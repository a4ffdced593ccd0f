#include "opt/pipeline.hpp"

#include "opt/passes.hpp"
#include "vgpu/bytecode.hpp"

namespace gpudiff::opt {

std::string to_string(Toolchain t) {
  return t == Toolchain::Nvcc ? "nvcc-sim" : "hipcc-sim";
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

Executable compile(const ir::Program& program, const PipelineKey& key,
                   OptLevel level) {
  Executable exe;
  exe.toolchain = key.toolchain;
  exe.level = key.passes == PassClass::FastMath ? OptLevel::O3_FastMath : level;
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
    contract_fma(exe.program, key.toolchain == Toolchain::Nvcc
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
