#pragma once
// Virtual compilers: nvcc-sim and hipcc-sim.
//
// compile() lowers a test kernel into an Executable — optimized IR plus the
// math-library binding and floating-point environment the real toolchain
// would configure.  Pipelines (paper §IV-B: O0, O1, O2, O3, O3 -ffast-math):
//
//             nvcc-sim                      hipcc-sim
//   O0        (none)                        (none)
//   O1..O3    fold, fma(left)               fold, fma(right), if-convert
//   O3+FM     + reassoc(flatten-left),      + reassoc(balanced), reciprocal
//             FTZ/DAZ fp32, approx div32,   div (fp64), approx div32,
//             __sinf-family fp32 binding    native_* fp32 binding,
//                                           finite-math fmin/fmax
//
// O1, O2 and O3 run identical numerics-relevant passes — higher levels add
// only value-preserving cleanup on real compilers too, which reproduces the
// identical per-level counts of paper Tables V/VII/IX.
//
// A build is a platform spec at a level (opt/platform.hpp).  pipeline_key()
// resolves it into the PipelineKey below — the toolchain, the level's pass
// class, the FP environment after the level and the spec's forced FP32
// FTZ/DAZ, and the toolchain's math library (HIPIFY-converted hipcc sources
// bind the CUDA-compat wrapper instead of plain OCML, see compat_math.cpp)
// — and compile() runs the pipeline that key names.  The contraction side
// and the reassociation shape are the toolchain's, as in the table above.

#include <memory>
#include <string>

#include "fp/env.hpp"
#include "ir/program.hpp"
#include "vmath/mathlib.hpp"

namespace gpudiff::vgpu {
class BytecodeProgram;
}

namespace gpudiff::opt {

enum class Toolchain : std::uint8_t { Nvcc, Hipcc };
std::string to_string(Toolchain t);

enum class OptLevel : std::uint8_t { O0, O1, O2, O3, O3_FastMath };
std::string to_string(OptLevel level);
/// Parse "O0".."O3"/"O3_FM" (returns false on unknown spelling).
bool parse_opt_level(const std::string& text, OptLevel* out);

/// All five levels in campaign order.
inline constexpr OptLevel kAllOptLevels[] = {
    OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3,
    OptLevel::O3_FastMath};

/// Which passes a level runs: none at O0, the optimizing set at O1..O3
/// (the three run the same passes), or the fast-math set at O3 fast math.
enum class PassClass : std::uint8_t { None, Optimized, FastMath };

/// Everything compile() branches on, resolved by opt::pipeline_key from a
/// platform spec, a level and the program's precision: the toolchain
/// (which also picks the FMA contraction side and the reassociation
/// shape), the pass class, the FP environment after the level and the
/// spec's forced FTZ/DAZ, and the bound math library after the HIPIFY
/// binding.  compile() reads only the key's fields, so compiles of one
/// program under equal keys produce the same kernel
/// (vgpu::BytecodeProgram::same_kernel); diff::compile_set compiles each
/// distinct key once.
struct PipelineKey {
  Toolchain toolchain = Toolchain::Nvcc;
  PassClass passes = PassClass::None;
  fp::FpEnv env;
  const vmath::MathLib* mathlib = nullptr;

  friend bool operator==(const PipelineKey&, const PipelineKey&) = default;
};

/// A compiled test: what the virtual GPU executes.
struct Executable {
  ir::Program program;                       ///< optimized kernel
  const vmath::MathLib* mathlib = nullptr;   ///< bound device math library
  fp::FpEnv env;                             ///< FP execution environment
  Toolchain toolchain = Toolchain::Nvcc;
  OptLevel level = OptLevel::O0;

  /// "nvcc-sim -O3 -use_fast_math"-style description.
  std::string description() const;

  /// Bytecode lowering of `program` for the register VM, built once by
  /// compile() and shared by every copy of this Executable — one pair of
  /// lowerings amortizes across all inputs of a differential campaign.
  /// Hand-assembled Executables build it lazily on first use (not
  /// thread-safe for a concurrent first call; clear `bytecode_cache` after
  /// mutating program/env/mathlib by hand).
  const vgpu::BytecodeProgram& bytecode() const;
  mutable std::shared_ptr<const vgpu::BytecodeProgram> bytecode_cache;
};

/// Run the pipeline `key` names.  `level` is the level the build asked for
/// and only labels the Executable (a fast-math key is labelled O3 fast
/// math whatever level resolved to it).  The input program is copied;
/// generation artifacts are never mutated.  A compile costs one program
/// copy (its expression pool sized once for what the passes add), the
/// passes and one bytecode lowering.  Compile a platform spec with
/// opt::compile(program, spec, level, hipify) (opt/platform.hpp).
Executable compile(const ir::Program& program, const PipelineKey& key,
                   OptLevel level);

}  // namespace gpudiff::opt
