#pragma once
// Device math-library bindings.
//
// A MathLib is the set of math-function entry points a virtual compiler
// links a kernel against — the analogue of NVIDIA's libdevice / inline PTX
// sequences and AMD's ROCm device-libs (OCML).  Six bindings exist:
//
//   nv_libdevice()     — NVIDIA-sim default library
//   amd_ocml()         — AMD-sim default library (OCML-style)
//   hip_cuda_compat()  — the binding HIPIFY-converted sources get: mostly
//                        OCML, but a few entry points (fmod, pow) route
//                        through hipcc's CUDA-compat wrapper layer
//   nv_fast()          — nvcc -use_fast_math FP32 intrinsics (__sinf, ...)
//   amd_ocml_native()  — hipcc fast-math FP32 native_* functions
//   hip_cuda_compat_native() — native_* on top of the CUDA-compat layer
//
// Shared cores (core/kernels.hpp) back the functions the real vendors agree
// on; vendor files implement the divergent algorithms.  See DESIGN.md §1.

#include <cstdint>
#include <string>

#include "ir/expr.hpp"

namespace gpudiff::vmath {

struct Fn64 {
  using F1 = double (*)(double);
  using F2 = double (*)(double, double);
  F1 fabs_, sqrt_, exp_, log_, sin_, cos_, tan_, asin_, acos_, atan_,
      sinh_, cosh_, tanh_, ceil_, floor_, trunc_;
  F2 fmod_, pow_, fmin_, fmax_;
};

struct Fn32 {
  using F1 = float (*)(float);
  using F2 = float (*)(float, float);
  F1 fabs_, sqrt_, exp_, log_, sin_, cos_, tan_, asin_, acos_, atan_,
      sinh_, cosh_, tanh_, ceil_, floor_, trunc_;
  F2 fmod_, pow_, fmin_, fmax_;
};

/// Naming convention used by Executable::disassemble() for call targets.
enum class SymbolStyle {
  NvLibdevice,    // __nv_cos / __nv_cosf
  NvFast,         // __cosf (fast intrinsics); fp64 falls back to __nv_*
  AmdOcml,        // __ocml_cos_f64 / __ocml_cos_f32
  AmdOcmlNative,  // __ocml_native_cos_f32; fp64 falls back to __ocml_*_f64
  HipCudaCompat,  // __hip_cuda_fmod (wrapped) or __ocml_* (pass-through)
};

class MathLib {
 public:
  MathLib(std::string name, SymbolStyle style, Fn64 f64, Fn32 f32,
          std::uint64_t fp32_call_cycles)
      : name_(std::move(name)), style_(style), f64_(f64), f32_(f32),
        fp32_call_cycles_(fp32_call_cycles) {}

  const std::string& name() const noexcept { return name_; }

  /// Issue cycles of one FP32 call in vgpu::cycle_model (Table I's runtime
  /// column): 24, or 6 for fast-math intrinsics.  FP64 calls cost 24 in
  /// every library; the fast paths are FP32-only.
  std::uint64_t fp32_call_cycles() const noexcept { return fp32_call_cycles_; }

  /// Invoke the bound implementation (b ignored for unary functions).
  double call64(ir::MathFn fn, double a, double b = 0.0) const;
  float call32(ir::MathFn fn, float a, float b = 0.0f) const;

  /// Linker-level symbol the call would resolve to on the real target.
  std::string symbol(ir::MathFn fn, ir::Precision p) const;

 private:
  std::string name_;
  SymbolStyle style_;
  Fn64 f64_;
  Fn32 f32_;
  std::uint64_t fp32_call_cycles_;
};

const MathLib& nv_libdevice();
const MathLib& nv_fast();
const MathLib& amd_ocml();
const MathLib& amd_ocml_native();
const MathLib& hip_cuda_compat();
const MathLib& hip_cuda_compat_native();

}  // namespace gpudiff::vmath
