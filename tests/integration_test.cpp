// Integration tests: the paper's three case studies reproduced end-to-end,
// plus cross-module pipelines (generate -> emit -> hipify -> compile -> run).

#include <gtest/gtest.h>

#include <cmath>

#include "diff/metadata.hpp"
#include "diff/runner.hpp"
#include "emit/emit.hpp"
#include "fp/bits.hpp"
#include "fp/hexfloat.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "hipify/hipify.hpp"
#include "ir/builder.hpp"
#include "vgpu/pseudo_asm.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::ir;
using diff::DiscrepancyClass;

// ---------------------------------------------------------------------------
// Case Study 1 (paper Fig. 4): fmod-driven Number-vs-Number divergence at O0.
// ---------------------------------------------------------------------------

TEST(CaseStudy1, FmodExtremeRatioDivergesLikeFig4) {
  // The kernel's key expression, reduced to its essence:
  //   comp -= fmod(-1.7538E305 * (var_8 / (+0.0 / var_9 - +1.3065E-306)),
  //                +1.5793E-307);
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int var_8 = b.add_scalar_param();
  const int var_9 = b.add_scalar_param();
  b.assign_comp(
      AssignOp::Sub,
      make_call(A, 
          MathFn::Fmod,
          make_bin(A, BinOp::Mul, make_literal(A, -1.7538e305, "-1.7538E305"),
                   make_bin(A, BinOp::Div, make_param(A, var_8),
                            make_bin(A, BinOp::Sub,
                                     make_bin(A, BinOp::Div, make_literal(A, 0.0, "+0.0"),
                                              make_param(A, var_9)),
                                     make_literal(A, 1.3065e-306, "+1.3065E-306")))),
          make_literal(A, 1.5793e-307, "+1.5793E-307")));
  const Program p = b.build();

  // Paper inputs: var_8 = +1.1757E-322, var_9 = +1.7130E-319.
  vgpu::KernelArgs args;
  args.fp = {0.0, 1.1757e-322, 1.713e-319};
  args.ints = {0, 0, 0};

  const auto cmp = diff::run_differential(p, args, opt::OptLevel::O0);
  ASSERT_TRUE(cmp.discrepant());
  // Both are small real numbers that disagree, as in the paper
  // (8.655e-306 vs 9.340e-306 there; the inner fmod drives the difference).
  EXPECT_TRUE(cmp.cls == DiscrepancyClass::Num_Num ||
              cmp.cls == DiscrepancyClass::Num_Zero)
      << to_string(cmp.cls);

  // The inner fmod itself: the AMD side computes the exact remainder the
  // paper reports for hipcc.
  const double inner_x = -1.7538e305 * (1.1757e-322 / (0.0 / 1.713e-319 - 1.3065e-306));
  EXPECT_EQ(fp::print_g17(inner_x), "1.5917195493481116e+289");
  const double amd_fmod =
      vmath::amd_ocml().call64(MathFn::Fmod, inner_x, 1.5793e-307);
  EXPECT_EQ(fp::print_g17(amd_fmod), "7.1923082856620736e-309");
  const double nv_fmod =
      vmath::nv_libdevice().call64(MathFn::Fmod, inner_x, 1.5793e-307);
  EXPECT_NE(fp::to_bits(nv_fmod), fp::to_bits(amd_fmod));
}

TEST(CaseStudy1, MostInputsForTheSameProgramAgree) {
  // Paper: "out of ten randomly generated inputs, only this specific input
  // created a discrepancy."  Ordinary-magnitude inputs agree.
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  const int y = b.add_scalar_param();
  b.assign_comp(AssignOp::Add,
                make_call(A, MathFn::Fmod, make_param(A, x), make_param(A, y)));
  const Program p = b.build();
  const diff::CompiledSet set = diff::compile_pair(p, opt::OptLevel::O0);
  int diffs = 0;
  // All pairs keep the exponent gap below the 1024-bit unrolled range.
  for (double xv : {1.5, 1e10, -3.7e100, 2.5e305}) {
    for (double yv : {0.3, 123.0, 8e-3}) {
      vgpu::KernelArgs args;
      args.fp = {0.0, xv, yv};
      args.ints = {0, 0, 0};
      if (diff::compare_run(set, args).discrepant()) ++diffs;
    }
  }
  EXPECT_EQ(diffs, 0);
}

// ---------------------------------------------------------------------------
// Case Study 2 (paper Fig. 5): ceil of a tiny value -> Inf vs Number at O0.
// ---------------------------------------------------------------------------

TEST(CaseStudy2, CeilTinyValueInfVsNumber) {
  // Fig. 5 verbatim:
  //   double tmp_1 = +1.1147E-307;
  //   comp += tmp_1 / ceil(+1.5955E-125);
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int t = b.decl_temp(make_literal(A, 1.1147e-307, "+1.1147E-307"));
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Div, make_temp(A, t),
                         make_call(A, MathFn::Ceil,
                                   make_literal(A, 1.5955e-125, "+1.5955E-125"))));
  const Program p = b.build();
  vgpu::KernelArgs args;
  args.fp = {1.2374e-306};  // paper input
  args.ints = {0};

  for (auto level : opt::kAllOptLevels) {
    const auto cmp = diff::run_differential(p, args, level);
    ASSERT_TRUE(cmp.discrepant()) << opt::to_string(level);
    EXPECT_EQ(cmp.cls, DiscrepancyClass::Inf_Num);
    EXPECT_EQ(cmp.platforms[0].printed(), "inf");  // nvcc: ceil -> 0 -> div by zero
    // hipcc: 1.34887e-306 in the paper (printed there at lower precision).
    EXPECT_EQ(cmp.platforms[1].printed().substr(0, 7), "1.34887");
    EXPECT_EQ(cmp.platforms[1].outcome.cls, fp::OutcomeClass::Number);
  }
}

// ---------------------------------------------------------------------------
// Case Study 3 (paper Fig. 6): -inf at O0 on both, -inf vs -nan at O1+.
// ---------------------------------------------------------------------------

Program case_study_3_program() {
  // Reduced Fig. 6: comp saturates to -inf via cosh/fabs arithmetic, a loop
  // keeps it at -inf, and a guarded single-statement add of an infinite
  // product is if-converted by hipcc-sim at O1+.
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int var_1 = b.add_int_param();
  const int var_2 = b.add_scalar_param();
  const int var_5 = b.add_scalar_param();
  const int var_8 = b.add_scalar_param();
  // tmp_1 = (small - cosh(huge)) -> -inf
  const int t = b.decl_temp(make_bin(A, 
      BinOp::Sub, make_literal(A, -1.8007e-323, "-1.8007E-323"),
      make_call(A, MathFn::Cosh, make_bin(A, BinOp::Div, make_param(A, var_2),
                                       make_literal(A, -1.7569e192, "-1.7569E192")))));
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Add, make_temp(A, t),
                         make_call(A, MathFn::Fabs, make_literal(A, 1.5726e-307,
                                                              "+1.5726E-307"))));
  b.begin_for(var_1);
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Div, make_literal(A, 1.9903e306, "+1.9903E306"),
                         make_param(A, var_5)));
  b.end_block();
  // Guarded single add whose value overflows to +inf: the if-conversion
  // candidate.  Condition is false because comp == -inf.
  b.begin_if(make_cmp(A, CmpOp::Ge, make_param(A, 0 /*comp*/),
                      make_literal(A, -1.4205e305, "-1.4205E305")));
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Mul, make_literal(A, 1.3803e305, "+1.3803E305"),
                         make_param(A, var_8)));
  b.end_block();
  return b.build();
}

TEST(CaseStudy3, ConsistentAtO0DivergesAtO1Plus) {
  const Program p = case_study_3_program();
  vgpu::KernelArgs args;
  // var_1=5, var_2=+1.9121E306, var_5=-1.8994E-311, var_8=+1.2915E306.
  args.fp = {-1.5548e-320, 0.0, 1.9121e306, -1.8994e-311, 1.2915e306};
  args.ints = {0, 5, 0, 0, 0};

  // O0: both produce -inf (paper: nvcc -O0 -inf, hipcc -O0 -inf).
  const auto o0 = diff::run_differential(p, args, opt::OptLevel::O0);
  EXPECT_FALSE(o0.discrepant());
  EXPECT_EQ(o0.platforms[0].printed(), "-inf");
  EXPECT_EQ(o0.platforms[1].printed(), "-inf");

  // O1..O3: nvcc keeps -inf, hipcc's predicate-multiply if-conversion turns
  // the untaken branch's 0 * (+inf) into NaN (paper: -inf vs -nan).
  for (auto level : {opt::OptLevel::O1, opt::OptLevel::O2, opt::OptLevel::O3}) {
    const auto cmp = diff::run_differential(p, args, level);
    ASSERT_TRUE(cmp.discrepant()) << opt::to_string(level);
    EXPECT_EQ(cmp.cls, DiscrepancyClass::NaN_Inf);
    EXPECT_EQ(cmp.platforms[0].printed(), "-inf");
    EXPECT_EQ(cmp.platforms[1].printed(), "-nan");
  }
}

TEST(CaseStudy3, AssemblyShowsTheRootCause) {
  const Program p = case_study_3_program();
  const auto amd_o1 =
      opt::compile(p, *opt::find_platform("hipcc"), opt::OptLevel::O1);
  EXPECT_NE(vgpu::disassemble(amd_o1).find("if-conversion"), std::string::npos);
  const auto nv_o1 =
      opt::compile(p, *opt::find_platform("nvcc"), opt::OptLevel::O1);
  EXPECT_EQ(vgpu::disassemble(nv_o1).find("if-conversion"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cross-module pipeline properties
// ---------------------------------------------------------------------------

TEST(Pipeline, HipifyModeChangesOnlyTheHipccSide) {
  // The nvcc side of a HIPIFY campaign is identical to the native one.
  gen::GenConfig cfg;
  gen::Generator g(cfg, 77);
  gen::InputGenerator ig(77);
  for (int pi = 0; pi < 10; ++pi) {
    const Program p = g.generate(pi);
    const auto args = ig.generate(p, pi, 0);
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O3_FastMath}) {
      const auto native = diff::compile_pair(p, level, false);
      const auto converted = diff::compile_pair(p, level, true);
      EXPECT_EQ(vgpu::run_kernel(native.exes[0], args).value_bits,
                vgpu::run_kernel(converted.exes[0], args).value_bits);
    }
  }
}

TEST(Pipeline, HipifiedSourceTextMatchesHipifyCompileMode) {
  // The textual pipeline (emit CUDA -> hipify) and the compile-mode flag are
  // two views of the same experiment; the translated source must exist and
  // carry the constructs the compat binding models.
  gen::GenConfig cfg;
  gen::Generator g(cfg, 78);
  const Program p = g.generate(3);
  const auto converted = hipify::hipify_source(emit::emit_cuda(p));
  EXPECT_EQ(converted.source.find("cuda"), std::string::npos);
  const auto set = diff::compile_pair(p, opt::OptLevel::O0, true);
  EXPECT_EQ(set.exes[1].mathlib, &vmath::hip_cuda_compat());
}

TEST(Pipeline, MetadataDrivenHipifyCampaignReproduces) {
  diff::CampaignConfig cfg;
  cfg.num_programs = 25;
  cfg.inputs_per_program = 4;
  cfg.hipify_converted = true;
  cfg.seed = 9;
  diff::Metadata md = diff::Metadata::create(cfg);
  md.record_platform(*opt::find_platform("nvcc"));
  md.record_platform(*opt::find_platform("hipcc"));
  const auto via_md = md.analyze();
  const auto direct = diff::run_campaign(cfg);
  for (std::size_t li = 0; li < direct.per_level.size(); ++li)
    EXPECT_EQ(via_md.per_level[li].pairs, direct.per_level[li].pairs);
}

TEST(Pipeline, ExceptionFlagsTrackSeriousEventsAcrossCampaign) {
  // Paper Table II events are observable through the virtual FPU: find at
  // least one run raising each of the serious exception classes.
  gen::GenConfig cfg;
  gen::Generator g(cfg, 80);
  gen::InputGenerator ig(80);
  bool saw_overflow = false, saw_invalid = false, saw_divzero = false,
       saw_underflow = false;
  for (int pi = 0; pi < 120; ++pi) {
    const Program p = g.generate(pi);
    const auto exe = opt::compile(p, *opt::find_platform("nvcc"), opt::OptLevel::O0);
    for (int ii = 0; ii < 3; ++ii) {
      const auto r = vgpu::run_kernel(exe, ig.generate(p, pi, ii));
      saw_overflow |= r.flags.overflow();
      saw_invalid |= r.flags.invalid();
      saw_divzero |= r.flags.divide_by_zero();
      saw_underflow |= r.flags.underflow();
    }
  }
  EXPECT_TRUE(saw_overflow);
  EXPECT_TRUE(saw_invalid);
  EXPECT_TRUE(saw_divzero);
  EXPECT_TRUE(saw_underflow);
}

}  // namespace
