#pragma once
// Platform registry: named virtual-platform configurations.
//
// The paper's pipeline compares exactly two platforms, and that pair used
// to be baked into every layer as an {nvcc, hipcc} field pair.  The
// numerically interesting space, however, is per *configuration* (Khattak
// & Mikaitis 2025) — "hipcc with FTZ on vs off", "nvcc -O3 vs nvcc -O3
// -use_fast_math over the same program" — which a two-slot struct cannot
// express.
//
// A PlatformSpec is a Toolchain (pass schedule, FMA contraction side and
// math-library family) plus the knobs the registry's entries set: fast
// math and forced FP32 FTZ/DAZ.  pipeline_key() resolves a spec at a level
// into the pipeline compile() runs.  The differential core
// (diff/runner.hpp) runs any list of specs against the first entry — the
// baseline.  The built-in registry ships the two paper platforms plus
// scenario configurations; campaigns select a subset with
// `gpudiff-campaign --platforms nvcc,hipcc,hipcc-ftz`.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "opt/pipeline.hpp"

namespace gpudiff::opt {

/// Upper bound on platforms per comparison.  Keeps the per-run comparison
/// record (diff::ComparisonResult) allocation-free: it embeds one result
/// lane per platform.
inline constexpr std::size_t kMaxPlatforms = 8;

/// One named platform configuration.  Equality is field-wise, which is
/// what the campaign configuration fingerprint serializes — two specs that
/// share a name but differ in any knob fingerprint differently.  Every
/// field is set by some registry entry.
struct PlatformSpec {
  std::string name;  ///< registry key, CLI spelling and report label
  Toolchain toolchain = Toolchain::Nvcc;
  /// Compile every optimized level with the toolchain's fast-math pipeline
  /// (reassociation, approximate division, fast/native math binding), the
  /// way a build that always passes -use_fast_math / -ffast-math behaves.
  /// O0 stays O0.
  bool fast_math = false;
  bool force_ftz32 = false;  ///< flush FP32 subnormal results at every level
  bool force_daz32 = false;  ///< treat FP32 subnormal inputs as zero
  /// One-line description for `gpudiff-campaign --list-platforms`.
  std::string blurb;

  friend bool operator==(const PlatformSpec&, const PlatformSpec&) = default;
};

/// The built-in registry, in deterministic order: the two paper platforms
/// first, then the scenario configurations.  Names stay clear of the fixed
/// JSON keys of the campaign record format ("program", "input", "level",
/// "class", "classes", "platforms") — record documents key platform
/// payloads by name.
const std::vector<PlatformSpec>& platform_registry();

/// Registry lookup (null when `name` is unknown).
const PlatformSpec* find_platform(std::string_view name);

/// Parse a comma-separated platform selection ("nvcc,hipcc,hipcc-ftz").
/// Strict: throws std::runtime_error naming the offending entry on an
/// unknown name, a duplicate, fewer than two platforms, or more than
/// kMaxPlatforms.  The first entry is the comparison baseline.
std::vector<PlatformSpec> parse_platform_list(const std::string& csv);

/// The paper's default pair: {nvcc, hipcc}, nvcc the baseline.
std::vector<PlatformSpec> default_platforms();

/// Names of `specs`, in order (campaign results carry these labels).
std::vector<std::string> platform_names(std::span<const PlatformSpec> specs);

/// The pipeline `spec` builds at `level` for a program of `precision`: the
/// one place a spec's build fields are read (the table in opt/pipeline.hpp).
/// fast_math maps every optimized level to O3 fast math, the forced FP32
/// FTZ/DAZ land on the level's FP environment, and `hipify_converted`
/// binds hipcc-based specs to the CUDA-compat library.
PipelineKey pipeline_key(const PlatformSpec& spec, OptLevel level,
                         bool hipify_converted, ir::Precision precision);

/// compile(program, pipeline_key(spec, level, hipify_converted, precision),
/// level).  For the built-in "nvcc"/"hipcc" specs this is bit-for-bit the
/// pre-registry pipeline, which keeps default campaign output byte-identical.
Executable compile(const ir::Program& program, const PlatformSpec& spec,
                   OptLevel level, bool hipify_converted = false);

}  // namespace gpudiff::opt
