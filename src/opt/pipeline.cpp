#include "opt/pipeline.hpp"

#include "opt/passes.hpp"
#include "vgpu/bytecode.hpp"

namespace gpudiff::opt {

std::string to_string(Toolchain t) {
  return t == Toolchain::Nvcc ? "nvcc-sim" : "hipcc-sim";
}

std::string to_string(FmaMode m) {
  switch (m) {
    case FmaMode::Auto: return "auto";
    case FmaMode::LeftProduct: return "left";
    case FmaMode::RightProduct: return "right";
  }
  return "?";
}

std::string to_string(Div32Override d) {
  switch (d) {
    case Div32Override::Auto: return "auto";
    case Div32Override::IEEE: return "ieee";
    case Div32Override::NvApprox: return "nv-approx";
    case Div32Override::AmdApprox: return "amd-approx";
  }
  return "?";
}

std::string to_string(OptLevel level) {
  switch (level) {
    case OptLevel::O0: return "O0";
    case OptLevel::O1: return "O1";
    case OptLevel::O2: return "O2";
    case OptLevel::O3: return "O3";
    case OptLevel::O3_FastMath: return "O3_FM";
  }
  return "?";
}

bool parse_opt_level(const std::string& text, OptLevel* out) {
  if (text == "O0") *out = OptLevel::O0;
  else if (text == "O1") *out = OptLevel::O1;
  else if (text == "O2") *out = OptLevel::O2;
  else if (text == "O3") *out = OptLevel::O3;
  else if (text == "O3_FM" || text == "O3_FastMath") *out = OptLevel::O3_FastMath;
  else return false;
  return true;
}

std::string Executable::description() const {
  std::string out = to_string(toolchain) + " -" +
                    (level == OptLevel::O3_FastMath ? std::string("O3")
                                                    : to_string(level));
  if (level == OptLevel::O3_FastMath)
    out += toolchain == Toolchain::Nvcc ? " -use_fast_math" : " -DHIP_FAST_MATH";
  return out;
}

const vgpu::BytecodeProgram& Executable::bytecode() const {
  if (!bytecode_cache)
    bytecode_cache = std::make_shared<const vgpu::BytecodeProgram>(
        vgpu::compile_bytecode(program, env, mathlib));
  return *bytecode_cache;
}

namespace {

const vmath::MathLib* select_mathlib(const CompileOptions& o) {
  const bool fast = o.level == OptLevel::O3_FastMath;
  if (o.toolchain == Toolchain::Nvcc)
    return fast ? &vmath::nv_fast() : &vmath::nv_libdevice();
  if (o.hipify_converted)
    return fast ? &vmath::hip_cuda_compat_native() : &vmath::hip_cuda_compat();
  return fast ? &vmath::amd_ocml_native() : &vmath::amd_ocml();
}

}  // namespace

PipelineKey pipeline_key(const CompileOptions& options,
                         ir::Precision precision) {
  PipelineKey key;
  key.toolchain = options.toolchain;
  key.passes = options.level == OptLevel::O0 ? PassClass::None
               : options.level == OptLevel::O3_FastMath ? PassClass::FastMath
                                                        : PassClass::Optimized;
  if (key.passes != PassClass::None)
    key.fma = options.fma != FmaMode::Auto ? options.fma
              : options.toolchain == Toolchain::Nvcc ? FmaMode::LeftProduct
                                                      : FmaMode::RightProduct;
  key.mathlib =
      options.mathlib != nullptr ? options.mathlib : select_mathlib(options);

  fp::FpEnv& env = key.env;
  if (key.passes == PassClass::FastMath) {
    if (options.toolchain == Toolchain::Nvcc) {
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
  // Platform-registry overrides land after the level pipeline so a
  // registry entry can pin the FP environment independently of the level
  // ("hipcc with FTZ on at every level").
  if (options.force_ftz32) env.ftz32 = true;
  if (options.force_daz32) env.daz32 = true;
  switch (options.div32) {
    case Div32Override::Auto: break;
    case Div32Override::IEEE: env.div32 = fp::Div32Mode::IEEE; break;
    case Div32Override::NvApprox: env.div32 = fp::Div32Mode::NvApprox; break;
    case Div32Override::AmdApprox: env.div32 = fp::Div32Mode::AmdApprox; break;
  }
  return key;
}

Executable compile(const ir::Program& program, const CompileOptions& options) {
  const PipelineKey key = pipeline_key(options, program.precision());
  Executable exe;
  exe.toolchain = key.toolchain;
  exe.level = options.level;
  exe.mathlib = key.mathlib;
  exe.env = key.env;
  if (key.passes == PassClass::None) {
    exe.program = program;  // deep copy
  } else {
    // A plain copy's pools are exactly full, so the first node a pass
    // allocates would move the whole expression pool; give the copy room
    // for what the passes add instead.
    exe.program = program.copy_with_headroom(program.arena().expr_count());
    fold_constants(exe.program);
    contract_fma(exe.program, key.fma == FmaMode::LeftProduct
                                  ? FmaPreference::LeftProduct
                                  : FmaPreference::RightProduct);
    if (key.toolchain == Toolchain::Hipcc) if_convert(exe.program);
  }
  if (key.passes == PassClass::FastMath) {
    if (key.toolchain == Toolchain::Nvcc) {
      reassociate(exe.program, ReassocStyle::FlattenLeft, /*min_chain=*/4);
    } else {
      reassociate(exe.program, ReassocStyle::BalancedTree, /*min_chain=*/4);
      // -ffast-math / -DHIP_FAST_MATH: reciprocal math applies to FP64 too.
      if (exe.program.precision() == ir::Precision::FP64)
        reciprocal_division(exe.program);
    }
  }

  // Lower to bytecode once, here, so every copy of the Executable (and
  // every input run against it) shares the cached program.  Lowering never
  // rejects malformed hand-written IR: bad statements become traps that
  // fault at execution exactly where the tree-walk interpreter would.
  exe.bytecode();
  return exe;
}

}  // namespace gpudiff::opt
