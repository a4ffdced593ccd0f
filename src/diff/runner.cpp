#include "diff/runner.hpp"

#include <algorithm>
#include <stdexcept>

namespace gpudiff::diff {

namespace {

PlatformResult to_platform_result(const vgpu::RunResult& run,
                                  ir::Precision precision) {
  PlatformResult out;
  out.value = run.value;
  out.bits = run.value_bits;
  out.flags = run.flags;
  out.op_count = run.op_count;
  if (precision == ir::Precision::FP32) {
    out.outcome = fp::outcome_of(
        fp::from_bits<float>(static_cast<std::uint32_t>(run.value_bits)));
  } else {
    out.outcome = fp::outcome_of(fp::from_bits<double>(run.value_bits));
  }
  return out;
}

/// Classify every lane of `cmp` against lane 0 and set the representative
/// class.  One definition shared by the single-run and batched paths so
/// they cannot drift.
void classify_lanes(ComparisonResult& cmp) {
  cmp.cls = DiscrepancyClass::None;
  cmp.pair_cls[0] = DiscrepancyClass::None;
  const PlatformResult& base = cmp.platforms[0];
  for (std::uint32_t p = 1; p < cmp.count; ++p) {
    const DiscrepancyClass cls =
        classify_pair(base.outcome, base.bits, cmp.platforms[p].outcome,
                      cmp.platforms[p].bits);
    cmp.pair_cls[p] = cls;
    if (cmp.cls == DiscrepancyClass::None) cmp.cls = cls;
  }
}

}  // namespace

CompiledSet compile_set(const ir::Program& program,
                        std::span<const opt::PlatformSpec> platforms,
                        opt::OptLevel level, bool hipify_converted) {
  if (platforms.empty())
    throw std::invalid_argument("compile_set: empty platform list");
  if (platforms.size() > opt::kMaxPlatforms)
    throw std::invalid_argument("compile_set: more than kMaxPlatforms");
  // Platforms that resolve to one pipeline (nvcc and nvcc-fastmath at O0
  // and at O3 fast math) compile once; the copies share the first one's
  // lowering through bytecode_cache.
  std::array<opt::PipelineKey, opt::kMaxPlatforms> keys;
  CompiledSet set;
  set.exes.reserve(platforms.size());
  for (std::size_t i = 0; i < platforms.size(); ++i) {
    keys[i] = opt::pipeline_key(platforms[i], level, hipify_converted,
                                program.precision());
    const std::size_t first = static_cast<std::size_t>(
        std::find(keys.begin(), keys.begin() + i, keys[i]) - keys.begin());
    if (first < i)
      set.exes.push_back(set.exes[first]);
    else
      set.exes.push_back(opt::compile(program, keys[i], level));
  }
  return set;
}

CompiledSet compile_pair(const ir::Program& program, opt::OptLevel level,
                         bool hipify_converted) {
  const auto platforms = opt::default_platforms();
  return compile_set(program, platforms, level, hipify_converted);
}

ComparisonResult compare_run(const CompiledSet& set, const vgpu::KernelArgs& args) {
  const ir::Precision prec = set.precision();
  ComparisonResult out;
  out.count = static_cast<std::uint32_t>(set.size());
  for (std::size_t p = 0; p < set.size(); ++p)
    out.platforms[p] = to_platform_result(vgpu::run_kernel(set.exes[p], args), prec);
  classify_lanes(out);
  return out;
}

void compare_lanes(std::span<const std::vector<vgpu::RunResult>> lanes,
                   ir::Precision precision, std::vector<ComparisonResult>& out) {
  if (lanes.empty())
    throw std::invalid_argument("compare_lanes: no run lanes");
  if (lanes.size() > opt::kMaxPlatforms)
    throw std::invalid_argument("compare_lanes: more than kMaxPlatforms");
  const std::size_t n_inputs = lanes.front().size();
  for (const auto& lane : lanes)
    if (lane.size() != n_inputs)
      throw std::invalid_argument("compare_lanes: lanes differ in length");
  out.resize(n_inputs);
  for (std::size_t i = 0; i < n_inputs; ++i) {
    ComparisonResult& cmp = out[i];
    cmp.count = static_cast<std::uint32_t>(lanes.size());
    for (std::size_t p = 0; p < lanes.size(); ++p)
      cmp.platforms[p] = to_platform_result(lanes[p][i], precision);
    classify_lanes(cmp);
  }
}

const std::vector<ComparisonResult>& compare_batch(
    const CompiledSet& set, std::span<const vgpu::KernelArgs> inputs,
    SweepContext& ctx) {
  if (ctx.runs.size() < set.size()) ctx.runs.resize(set.size());
  for (std::size_t p = 0; p < set.size(); ++p) {
    ctx.runs[p].resize(inputs.size());
    vgpu::run_kernel_batch(set.exes[p], inputs, ctx.runs[p].data(), ctx.exec);
  }
  compare_lanes({ctx.runs.data(), set.size()}, set.precision(), ctx.cmps);
  return ctx.cmps;
}

std::vector<ComparisonResult> compare_batch(
    const CompiledSet& set, std::span<const vgpu::KernelArgs> inputs) {
  SweepContext ctx;
  return compare_batch(set, inputs, ctx);
}

ComparisonResult run_differential(const ir::Program& program,
                                  const vgpu::KernelArgs& args,
                                  opt::OptLevel level, bool hipify_converted) {
  return compare_run(compile_pair(program, level, hipify_converted), args);
}

}  // namespace gpudiff::diff
