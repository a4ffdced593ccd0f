#pragma once
// Floating-point environment of a virtual GPU thread.
//
// Models the knobs that differ between real GPU targets:
//  * FTZ (flush-to-zero of subnormal *results*) — nvcc -use_fast_math sets
//    .ftz on FP32 ops; AMD keeps denormals in FP32 on MI2xx by default.
//  * DAZ (treat subnormal *inputs* as zero).
// FP64 denormals are always supported on both real targets, so FTZ/DAZ
// apply to binary32 only: FP64 values pass apply_daz/apply_ftz untouched.

#include "fp/bits.hpp"
#include "fp/exceptions.hpp"

namespace gpudiff::fp {

/// How binary32 division executes (set by the virtual compilers' fast-math
/// pipelines; IEEE otherwise).
enum class Div32Mode : std::uint8_t {
  IEEE,      ///< correctly rounded division instruction
  NvApprox,  ///< __fdividef: float(recip) * multiply, and |y| > 2^126 -> 0
  AmdApprox, ///< v_rcp-based: double-product rounded once (no huge-y quirk)
};

struct FpEnv {
  bool ftz32 = false;  ///< flush binary32 subnormal results to zero
  bool daz32 = false;  ///< treat binary32 subnormal inputs as zero
  Div32Mode div32 = Div32Mode::IEEE;
  /// -ffinite-math-only fmin/fmax simplification: (a<b)?a:b instead of the
  /// IEEE minNum/maxNum NaN handling.
  bool naive_minmax = false;

  friend bool operator==(const FpEnv&, const FpEnv&) = default;
};

/// Apply DAZ to an operand under `env`.
inline float apply_daz(float x, const FpEnv& env) noexcept {
  if (env.daz32 && is_subnormal_bits(x))
    return copysign_bits(0.0f, x);
  return x;
}
inline double apply_daz(double x, const FpEnv&) noexcept { return x; }

/// Apply FTZ to a result under `env`; reports Underflow when it flushes.
inline float apply_ftz(float x, const FpEnv& env, ExceptionFlags* flags = nullptr) noexcept {
  if (env.ftz32 && is_subnormal_bits(x)) {
    if (flags) flags->raise(kUnderflow | kInexact);
    return copysign_bits(0.0f, x);
  }
  return x;
}
inline double apply_ftz(double x, const FpEnv&, ExceptionFlags* = nullptr) noexcept {
  return x;
}

}  // namespace gpudiff::fp
