// Case Study 3 (paper Fig. 6): both platforms agree on -inf at -O0, then
// hipcc flips to -nan at every optimization level from O1 on.  The culprit
// is predicate-multiply if-conversion: the untaken branch's infinite value
// is multiplied by a 0.0 predicate, and 0 * inf is NaN.

#include <cstdio>

#include "diff/runner.hpp"
#include "emit/emit.hpp"
#include "ir/builder.hpp"
#include "support/cli.hpp"
#include "vgpu/pseudo_asm.hpp"

int main(int argc, char** argv) {
  using namespace gpudiff;
  using namespace gpudiff::ir;
  support::CliParser cli("case_study_inf_nan",
                         "Reproduce paper Fig. 6 (-inf vs -nan at O1+)");
  cli.add_flag("asm", "dump the pseudo-assembly at O1 for both toolchains");
  if (!cli.parse(argc, argv)) return 1;

  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int var_1 = b.add_int_param();
  const int var_2 = b.add_scalar_param();
  const int var_5 = b.add_scalar_param();
  const int var_8 = b.add_scalar_param();
  const int t = b.decl_temp(make_bin(A, 
      BinOp::Sub, make_literal(A, -1.8007e-323, "-1.8007E-323"),
      make_call(A, MathFn::Cosh, make_bin(A, BinOp::Div, make_param(A, var_2),
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
  const Program p = b.build();

  std::printf("%s\n", emit::emit_kernel(p).c_str());
  vgpu::KernelArgs args;
  args.fp = {-1.5548e-320, 0.0, 1.9121e306, -1.8994e-311, 1.2915e306};
  args.ints = {0, 5, 0, 0, 0};
  std::printf("Input: %s\n\n", args.to_varity_string(p).c_str());

  for (auto level : opt::kAllOptLevels) {
    const auto cmp = diff::run_differential(p, args, level);
    std::printf("  -%-6s nvcc: %-8s hipcc: %-8s %s\n",
                opt::to_string(level).c_str(), cmp.platforms[0].printed().c_str(),
                cmp.platforms[1].printed().c_str(),
                cmp.discrepant() ? "<-- diverged" : "(consistent)");
  }
  std::printf(
      "\nPaper Fig. 6: nvcc -O0 -inf / hipcc -O0 -inf; nvcc -O1 -inf /\n"
      "hipcc -O1 -nan.  The hipcc-sim O1 pipeline if-converts the guarded\n"
      "single-statement add into comp += (double)cond * value; the paper\n"
      "attributes the flip to \"reordering or elimination of intermediate\n"
      "steps\" — this is one concrete such reordering.\n");

  if (cli.get_flag("asm")) {
    for (const opt::PlatformSpec& spec : opt::default_platforms()) {
      const auto exe = opt::compile(p, spec, opt::OptLevel::O1);
      std::printf("\n%s\n", vgpu::disassemble(exe).c_str());
    }
  }
  return 0;
}
