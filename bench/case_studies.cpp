// Regenerates the paper's Figures 4, 5 and 6 (the three case studies):
// prints each kernel, the failure-inducing input, the per-compiler outputs
// at the relevant optimization levels, and the isolated root-cause
// expression — ending with the pseudo-assembly evidence the paper's
// analysis relied on.

#include <cstdio>

#include "diff/runner.hpp"
#include "emit/emit.hpp"
#include "fp/hexfloat.hpp"
#include "ir/builder.hpp"
#include "support/cli.hpp"
#include "vgpu/pseudo_asm.hpp"
#include "vmath/mathlib.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::ir;

void show(const char* title, const Program& p, const vgpu::KernelArgs& args,
          std::initializer_list<opt::OptLevel> levels) {
  std::printf("==== %s ====\n\n%s\n", title, emit::emit_kernel(p).c_str());
  std::printf("Input: %s\n\nOutput:\n", args.to_varity_string(p).c_str());
  for (auto level : levels) {
    const auto cmp = diff::run_differential(p, args, level);
    std::printf("  nvcc  -%-6s: %s\n  hipcc -%-6s: %s%s\n",
                opt::to_string(level).c_str(), cmp.platforms[0].printed().c_str(),
                opt::to_string(level).c_str(), cmp.platforms[1].printed().c_str(),
                cmp.discrepant()
                    ? ("   <-- " + to_string(cmp.cls) + " discrepancy").c_str()
                    : "");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli("case_studies",
                         "Regenerate paper Figures 4, 5, 6 (case studies)");
  cli.add_flag("asm", "also dump the pseudo-assembly evidence");
  if (!cli.parse(argc, argv)) return 1;

  // --- Case Study 1 (Fig. 4): fmod at an extreme exponent gap -------------
  {
    ProgramBuilder b(Precision::FP64);
    Arena& A = b.arena();
    const int var_8 = b.add_scalar_param();
    const int var_9 = b.add_scalar_param();
    b.assign_comp(
        AssignOp::Sub,
        make_call(A, MathFn::Fmod,
                  make_bin(A, BinOp::Mul, make_literal(A, -1.7538e305, "-1.7538E305"),
                           make_bin(A, BinOp::Div, make_param(A, var_8),
                                    make_bin(A, BinOp::Sub,
                                             make_bin(A, BinOp::Div,
                                                      make_literal(A, 0.0, "+0.0"),
                                                      make_param(A, var_9)),
                                             make_literal(A, 1.3065e-306,
                                                          "+1.3065E-306")))),
                  make_literal(A, 1.5793e-307, "+1.5793E-307")));
    const Program p = b.build();
    vgpu::KernelArgs args;
    args.fp = {0.0, 1.1757e-322, 1.713e-319};
    args.ints = {0, 0, 0};
    show("CASE STUDY 1 (paper Fig. 4): fmod-driven real-value divergence", p,
         args, {opt::OptLevel::O0});

    const double x = -1.7538e305 * (1.1757e-322 / (0.0 / 1.713e-319 - 1.3065e-306));
    std::printf("Isolated expression: fmod(%s, +1.5793E-307)\n",
                fp::print_g17(x).c_str());
    std::printf("  nvcc  -O0: %s\n  hipcc -O0: %s   (paper: 1.442e-307 vs 7.192e-309)\n\n",
                fp::print_g17(vmath::nv_libdevice().call64(MathFn::Fmod, x,
                                                           1.5793e-307)).c_str(),
                fp::print_g17(vmath::amd_ocml().call64(MathFn::Fmod, x,
                                                       1.5793e-307)).c_str());
  }

  // --- Case Study 2 (Fig. 5): ceil of a tiny value ------------------------
  Program ceil_program = [] {
    ProgramBuilder b(Precision::FP64);
    Arena& A = b.arena();
    const int t = b.decl_temp(make_literal(A, 1.1147e-307, "+1.1147E-307"));
    b.assign_comp(AssignOp::Add,
                  make_bin(A, BinOp::Div, make_temp(A, t),
                           make_call(A, MathFn::Ceil,
                                     make_literal(A, 1.5955e-125, "+1.5955E-125"))));
    return b.build();
  }();
  {
    vgpu::KernelArgs args;
    args.fp = {1.2374e-306};
    args.ints = {0};
    show("CASE STUDY 2 (paper Fig. 5): ceil divergence -> Inf vs Number",
         ceil_program, args, {opt::OptLevel::O0});
    std::printf("Isolated expression: ceil(+1.5955E-125)\n");
    std::printf("  nvcc  -O0: %g\n  hipcc -O0: %g   (paper: 0 vs 1)\n\n",
                vmath::nv_libdevice().call64(MathFn::Ceil, 1.5955e-125),
                vmath::amd_ocml().call64(MathFn::Ceil, 1.5955e-125));
  }

  // --- Case Study 3 (Fig. 6): -inf vs -nan from O1 on ---------------------
  Program cs3 = [] {
    ProgramBuilder b(Precision::FP64);
    Arena& A = b.arena();
    const int var_1 = b.add_int_param();
    const int var_2 = b.add_scalar_param();
    const int var_5 = b.add_scalar_param();
    const int var_8 = b.add_scalar_param();
    const int t = b.decl_temp(make_bin(A, 
        BinOp::Sub, make_literal(A, -1.8007e-323, "-1.8007E-323"),
        make_call(A, MathFn::Cosh,
                  make_bin(A, BinOp::Div, make_param(A, var_2),
                           make_literal(A, -1.7569e192, "-1.7569E192")))));
    b.assign_comp(AssignOp::Add,
                  make_bin(A, BinOp::Add, make_temp(A, t),
                           make_call(A, MathFn::Fabs,
                                     make_literal(A, 1.5726e-307, "+1.5726E-307"))));
    b.begin_for(var_1);
    b.assign_comp(AssignOp::Add,
                  make_bin(A, BinOp::Div, make_literal(A, 1.9903e306, "+1.9903E306"),
                           make_param(A, var_5)));
    b.end_block();
    b.begin_if(make_cmp(A, CmpOp::Ge, make_param(A, 0),
                        make_literal(A, -1.4205e305, "-1.4205E305")));
    b.assign_comp(AssignOp::Add,
                  make_bin(A, BinOp::Mul, make_literal(A, 1.3803e305, "+1.3803E305"),
                           make_param(A, var_8)));
    b.end_block();
    return b.build();
  }();
  {
    vgpu::KernelArgs args;
    args.fp = {-1.5548e-320, 0.0, 1.9121e306, -1.8994e-311, 1.2915e306};
    args.ints = {0, 5, 0, 0, 0};
    show("CASE STUDY 3 (paper Fig. 6): consistent -inf at O0, -inf vs -nan at O1+",
         cs3, args, {opt::OptLevel::O0, opt::OptLevel::O1, opt::OptLevel::O3});
    std::printf(
        "Root cause: hipcc-sim's O1+ if-conversion rewrites the guarded add\n"
        "into comp += (double)cond * value; with the branch not taken and the\n"
        "value overflowing to +inf, 0 * inf produces the NaN.\n\n");
  }

  if (cli.get_flag("asm")) {
    std::printf("==== Pseudo-assembly evidence (Case Study 3 at O1) ====\n\n");
    for (const opt::PlatformSpec& spec : opt::default_platforms()) {
      const auto exe = opt::compile(cs3, spec, opt::OptLevel::O1);
      std::printf("%s\n", vgpu::disassemble(exe).c_str());
    }
  }
  return 0;
}
