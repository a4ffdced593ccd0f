#pragma once
// N-way differential runner: compile once per (platform, level), run per
// input, classify every platform against the baseline (paper Fig. 1
// pipeline, generalized from the paper's fixed nvcc/hipcc pair to any
// registry platform selection — opt/platform.hpp).

#include <array>
#include <span>
#include <string>
#include <vector>

#include "diff/discrepancy.hpp"
#include "fp/exceptions.hpp"
#include "fp/hexfloat.hpp"
#include "opt/pipeline.hpp"
#include "opt/platform.hpp"
#include "vgpu/args.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace gpudiff::diff {

/// One platform's view of one run.  The %.17g artifact string is not
/// materialized by compare_run — discrepancy classification works on raw
/// bits; call printed() when a record or report actually needs the text.
struct PlatformResult {
  double value = 0.0;           ///< comp widened to double (exact for FP32)
  std::uint64_t bits = 0;       ///< IEEE bits of comp (32 or 64 wide)
  fp::Outcome outcome;          ///< paper outcome class + sign
  fp::ExceptionFlags flags;     ///< virtual-FPU exception record
  std::uint64_t op_count = 0;

  /// %.17g output line, formatted on demand.
  std::string printed() const { return fp::print_g17(value); }
};

/// The compiled executables of one differential test at one optimization
/// level: one Executable per selected platform, element 0 the baseline.
struct CompiledSet {
  std::vector<opt::Executable> exes;

  std::size_t size() const noexcept { return exes.size(); }
  ir::Precision precision() const noexcept {
    return exes.front().program.precision();
  }
};

/// Compile `program` for every platform in `platforms` at `level`.
/// `hipify_converted` selects the CUDA-compat binding on hipcc-based
/// platforms (Tables VII/VIII).  Each distinct opt::PipelineKey compiles
/// once; a platform whose key an earlier one shares gets a copy of that
/// Executable, lowering included (the same bytecode_cache).  Throws when
/// `platforms` is empty or exceeds opt::kMaxPlatforms.
CompiledSet compile_set(const ir::Program& program,
                        std::span<const opt::PlatformSpec> platforms,
                        opt::OptLevel level, bool hipify_converted = false);

/// The paper's default pair (opt::default_platforms()): exes[0] = nvcc-sim,
/// exes[1] = hipcc-sim.
CompiledSet compile_pair(const ir::Program& program, opt::OptLevel level,
                         bool hipify_converted = false);

/// One differential comparison: every platform's result plus its
/// discrepancy class against the baseline (platform 0).  Fixed-capacity
/// lanes keep this allocation-free on the per-input hot path.
struct ComparisonResult {
  std::uint32_t count = 0;  ///< number of platforms compared
  std::array<PlatformResult, opt::kMaxPlatforms> platforms{};
  /// Pairwise class of platforms[i] vs the baseline; [0] is always None.
  std::array<DiscrepancyClass, opt::kMaxPlatforms> pair_cls{};
  /// Representative class: the first differing platform's class against
  /// the baseline (the only one for a two-platform set); None when every
  /// platform agrees.
  DiscrepancyClass cls = DiscrepancyClass::None;

  bool discrepant() const noexcept { return cls != DiscrepancyClass::None; }
  const PlatformResult& baseline() const noexcept { return platforms[0]; }
  /// The valid pairwise classes, [0, count): the full verdict a record
  /// stores and the reducer preserves verbatim.
  std::span<const DiscrepancyClass> classes() const noexcept {
    return {pair_cls.data(), count};
  }
};

ComparisonResult compare_run(const CompiledSet& set, const vgpu::KernelArgs& args);

/// Reusable scratch for batched sweeps: one VM execution context plus the
/// per-platform run-buffer lanes and the comparison output.  A campaign
/// worker keeps one of these per thread and hands it to every
/// compare_batch call, so the steady state performs no allocation at all
/// (buffer capacity is retained across programs, levels and platforms).
struct SweepContext {
  vgpu::ExecContext exec;
  std::vector<std::vector<vgpu::RunResult>> runs;  ///< one lane per platform
  std::vector<ComparisonResult> cmps;
};

/// Compare per-platform run lanes: lane p holds platform p's runs, one per
/// input, and every lane holds the same number of them.  out[i] gets each
/// platform's i-th run, classified against lane 0 (the baseline).  The
/// second half of compare_batch, and the step Metadata::analyze feeds with
/// runs decoded from a metadata file, so both classify one way.  Throws
/// when `lanes` is empty, exceeds opt::kMaxPlatforms or differs in length.
void compare_lanes(std::span<const std::vector<vgpu::RunResult>> lanes,
                   ir::Precision precision, std::vector<ComparisonResult>& out);

/// Batched sweep: run every input through one VM invocation loop per
/// platform, amortizing argument validation and execution-context setup
/// across the program's whole input set, then compare_lanes.  Result i is
/// bit-identical to compare_run(set, inputs[i]).  The returned reference
/// aliases ctx.cmps and is valid until the next call with the same context.
const std::vector<ComparisonResult>& compare_batch(
    const CompiledSet& set, std::span<const vgpu::KernelArgs> inputs,
    SweepContext& ctx);

/// Convenience overload with throwaway scratch.
std::vector<ComparisonResult> compare_batch(const CompiledSet& set,
                                            std::span<const vgpu::KernelArgs> inputs);

/// Convenience: compile the default pair + run one input at one level.
ComparisonResult run_differential(const ir::Program& program,
                                  const vgpu::KernelArgs& args,
                                  opt::OptLevel level,
                                  bool hipify_converted = false);

}  // namespace gpudiff::diff
