#include "vmath/mathlib.hpp"

#include <stdexcept>

namespace gpudiff::vmath {

double MathLib::call64(ir::MathFn fn, double a, double b) const {
  using ir::MathFn;
  switch (fn) {
    case MathFn::Fabs: return f64_.fabs_(a);
    case MathFn::Sqrt: return f64_.sqrt_(a);
    case MathFn::Exp: return f64_.exp_(a);
    case MathFn::Log: return f64_.log_(a);
    case MathFn::Sin: return f64_.sin_(a);
    case MathFn::Cos: return f64_.cos_(a);
    case MathFn::Tan: return f64_.tan_(a);
    case MathFn::Asin: return f64_.asin_(a);
    case MathFn::Acos: return f64_.acos_(a);
    case MathFn::Atan: return f64_.atan_(a);
    case MathFn::Sinh: return f64_.sinh_(a);
    case MathFn::Cosh: return f64_.cosh_(a);
    case MathFn::Tanh: return f64_.tanh_(a);
    case MathFn::Ceil: return f64_.ceil_(a);
    case MathFn::Floor: return f64_.floor_(a);
    case MathFn::Trunc: return f64_.trunc_(a);
    case MathFn::Fmod: return f64_.fmod_(a, b);
    case MathFn::Pow: return f64_.pow_(a, b);
    case MathFn::Fmin: return f64_.fmin_(a, b);
    case MathFn::Fmax: return f64_.fmax_(a, b);
  }
  throw std::logic_error("MathLib::call64: bad function");
}

float MathLib::call32(ir::MathFn fn, float a, float b) const {
  using ir::MathFn;
  switch (fn) {
    case MathFn::Fabs: return f32_.fabs_(a);
    case MathFn::Sqrt: return f32_.sqrt_(a);
    case MathFn::Exp: return f32_.exp_(a);
    case MathFn::Log: return f32_.log_(a);
    case MathFn::Sin: return f32_.sin_(a);
    case MathFn::Cos: return f32_.cos_(a);
    case MathFn::Tan: return f32_.tan_(a);
    case MathFn::Asin: return f32_.asin_(a);
    case MathFn::Acos: return f32_.acos_(a);
    case MathFn::Atan: return f32_.atan_(a);
    case MathFn::Sinh: return f32_.sinh_(a);
    case MathFn::Cosh: return f32_.cosh_(a);
    case MathFn::Tanh: return f32_.tanh_(a);
    case MathFn::Ceil: return f32_.ceil_(a);
    case MathFn::Floor: return f32_.floor_(a);
    case MathFn::Trunc: return f32_.trunc_(a);
    case MathFn::Fmod: return f32_.fmod_(a, b);
    case MathFn::Pow: return f32_.pow_(a, b);
    case MathFn::Fmin: return f32_.fmin_(a, b);
    case MathFn::Fmax: return f32_.fmax_(a, b);
  }
  throw std::logic_error("MathLib::call32: bad function");
}

std::string MathLib::symbol(ir::MathFn fn, ir::Precision p) const {
  const std::string base = ir::name_of(fn, ir::Precision::FP64);
  const bool f32 = p == ir::Precision::FP32;
  switch (style_) {
    case SymbolStyle::NvLibdevice:
      return "__nv_" + base + (f32 ? "f" : "");
    case SymbolStyle::NvFast:
      // Only a handful of FP32 intrinsics exist; others fall back.
      if (f32 && (fn == ir::MathFn::Sin || fn == ir::MathFn::Cos ||
                  fn == ir::MathFn::Tan || fn == ir::MathFn::Exp ||
                  fn == ir::MathFn::Log || fn == ir::MathFn::Pow))
        return "__" + base + "f";
      return "__nv_" + base + (f32 ? "f" : "");
    case SymbolStyle::AmdOcml:
      return "__ocml_" + base + (f32 ? "_f32" : "_f64");
    case SymbolStyle::AmdOcmlNative:
      if (f32 && (fn == ir::MathFn::Sin || fn == ir::MathFn::Cos ||
                  fn == ir::MathFn::Tan || fn == ir::MathFn::Exp ||
                  fn == ir::MathFn::Log))
        return "__ocml_native_" + base + "_f32";
      return "__ocml_" + base + (f32 ? "_f32" : "_f64");
    case SymbolStyle::HipCudaCompat:
      if (fn == ir::MathFn::Fmod || fn == ir::MathFn::Pow)
        return "__hip_cuda_" + base + (f32 ? "_f32" : "_f64");
      return "__ocml_" + base + (f32 ? "_f32" : "_f64");
  }
  return base;
}

}  // namespace gpudiff::vmath
