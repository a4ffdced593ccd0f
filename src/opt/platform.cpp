#include "opt/platform.hpp"

#include <stdexcept>

#include "vmath/mathlib.hpp"

namespace gpudiff::opt {

const std::vector<PlatformSpec>& platform_registry() {
  static const std::vector<PlatformSpec> registry = [] {
    std::vector<PlatformSpec> r;
    {
      PlatformSpec s;
      s.name = "nvcc";
      s.toolchain = Toolchain::Nvcc;
      s.blurb = "nvcc-sim, the paper's NVIDIA platform (baseline)";
      r.push_back(std::move(s));
    }
    {
      PlatformSpec s;
      s.name = "hipcc";
      s.toolchain = Toolchain::Hipcc;
      s.blurb = "hipcc-sim, the paper's AMD platform";
      r.push_back(std::move(s));
    }
    {
      // -fgpu-flush-denormals-to-zero: AMD keeps FP32 denormals by default
      // on MI2xx; this configuration flushes them at every level, so
      // "hipcc vs hipcc-ftz" isolates the denormal policy alone.
      PlatformSpec s;
      s.name = "hipcc-ftz";
      s.toolchain = Toolchain::Hipcc;
      s.force_ftz32 = true;
      s.force_daz32 = true;
      s.blurb = "hipcc-sim with FP32 FTZ/DAZ forced on (flush-denormals)";
      r.push_back(std::move(s));
    }
    {
      // A build that always passes -use_fast_math: optimized levels take
      // the fast-math pipeline, so "nvcc vs nvcc-fastmath" compares the
      // same compiler with and without the flag at every level.
      PlatformSpec s;
      s.name = "nvcc-fastmath";
      s.toolchain = Toolchain::Nvcc;
      s.fast_math = true;
      s.blurb = "nvcc-sim with -use_fast_math at every optimized level";
      r.push_back(std::move(s));
    }
    return r;
  }();
  return registry;
}

const PlatformSpec* find_platform(std::string_view name) {
  for (const PlatformSpec& spec : platform_registry())
    if (spec.name == name) return &spec;
  return nullptr;
}

std::vector<PlatformSpec> parse_platform_list(const std::string& csv) {
  std::vector<PlatformSpec> specs;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string name = csv.substr(pos, comma - pos);
    pos = comma + 1;
    if (name.empty())
      throw std::runtime_error(
          "platforms: empty entry in '" + csv +
          "' (want a comma-separated list like nvcc,hipcc)");
    const PlatformSpec* spec = find_platform(name);
    if (spec == nullptr) {
      std::string known;
      for (const PlatformSpec& s : platform_registry())
        known += (known.empty() ? "" : ", ") + s.name;
      throw std::runtime_error("platforms: unknown platform '" + name +
                               "' (known: " + known + ")");
    }
    for (const PlatformSpec& seen : specs)
      if (seen.name == name)
        throw std::runtime_error("platforms: duplicate platform '" + name +
                                 "'");
    specs.push_back(*spec);
  }
  if (specs.size() < 2)
    throw std::runtime_error(
        "platforms: a campaign needs at least two platforms (baseline + one "
        "to compare against it)");
  if (specs.size() > kMaxPlatforms)
    throw std::runtime_error("platforms: at most " +
                             std::to_string(kMaxPlatforms) +
                             " platforms per campaign");
  return specs;
}

std::vector<PlatformSpec> default_platforms() {
  return {platform_registry()[0], platform_registry()[1]};
}

std::vector<std::string> platform_names(std::span<const PlatformSpec> specs) {
  std::vector<std::string> names;
  names.reserve(specs.size());
  for (const PlatformSpec& spec : specs) names.push_back(spec.name);
  return names;
}

PipelineKey pipeline_key(const PlatformSpec& spec, OptLevel level,
                         bool hipify_converted, ir::Precision precision) {
  if (spec.fast_math && level != OptLevel::O0) level = OptLevel::O3_FastMath;
  PipelineKey key;
  key.toolchain = spec.toolchain;
  key.passes = level == OptLevel::O0            ? PassClass::None
               : level == OptLevel::O3_FastMath ? PassClass::FastMath
                                                : PassClass::Optimized;
  const bool nvcc = spec.toolchain == Toolchain::Nvcc;
  const bool fast = key.passes == PassClass::FastMath;
  if (nvcc) {
    key.mathlib = fast ? &vmath::nv_fast() : &vmath::nv_libdevice();
  } else if (hipify_converted) {
    key.mathlib =
        fast ? &vmath::hip_cuda_compat_native() : &vmath::hip_cuda_compat();
  } else {
    key.mathlib = fast ? &vmath::amd_ocml_native() : &vmath::amd_ocml();
  }

  fp::FpEnv& env = key.env;
  if (fast) {
    if (nvcc) {
      // -use_fast_math: .ftz on FP32 ops, approximate FP32 division; FP64
      // arithmetic stays IEEE on real nvcc.
      env.ftz32 = true;
      env.daz32 = true;
      env.div32 = fp::Div32Mode::NvApprox;
    } else {
      env.div32 = fp::Div32Mode::AmdApprox;
      // -ffinite-math-only lowers FP32 fmin/fmax to a bare compare-select;
      // the FP64 entry points keep IEEE NaN semantics because the paper's
      // recommended -DHIP_FAST_MATH spelling only swaps FP32 intrinsics
      // (paper §III-D, footnote on ROCm issue #28).
      if (precision == ir::Precision::FP32) env.naive_minmax = true;
    }
  }
  // The forced flags land after the level pipeline so a registry entry can
  // pin the FP environment independently of the level ("hipcc with FTZ on
  // at every level").
  if (spec.force_ftz32) env.ftz32 = true;
  if (spec.force_daz32) env.daz32 = true;
  return key;
}

Executable compile(const ir::Program& program, const PlatformSpec& spec,
                   OptLevel level, bool hipify_converted) {
  return compile(
      program,
      pipeline_key(spec, level, hipify_converted, program.precision()),
      level);
}

}  // namespace gpudiff::opt
