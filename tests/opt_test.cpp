// Tests for the virtual compilers: individual passes and the vendor
// pipelines (level semantics, library binding, environment flags).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "diff/runner.hpp"
#include "fp/bits.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "ir/builder.hpp"
#include "ir/serialize.hpp"
#include "opt/passes.hpp"
#include "opt/pipeline.hpp"
#include "opt/platform.hpp"
#include "support/strings.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::ir;
using namespace gpudiff::opt;

/// Builder pre-seeded with four scalar params (var_1..var_4).
ProgramBuilder four_scalar_builder(Precision prec = Precision::FP64) {
  ProgramBuilder b(prec);
  b.add_scalar_param();  // var_1
  b.add_scalar_param();  // var_2
  b.add_scalar_param();  // var_3
  b.add_scalar_param();  // var_4
  return b;
}

/// The root expression of the i-th top-level statement.
const Expr& root_expr(const Program& p, std::size_t i = 0) {
  return p.expr(p.stmt(p.body()[i]).a);
}

const Expr& kid(const Program& p, const Expr& e, int i) {
  return p.expr(e.kid[i]);
}

// ---------------------------------------------------------------------------
// fold_constants
// ---------------------------------------------------------------------------

TEST(FoldConstants, FoldsLiteralSubtrees) {
  ProgramBuilder b = four_scalar_builder();
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Mul,
                         make_bin(A, BinOp::Add, make_literal(A, 1.5),
                                  make_literal(A, 2.5)),
                         make_param(A, 1)));
  Program p = b.build();
  fold_constants(p);
  const Expr& root = root_expr(p);
  ASSERT_EQ(root.kind, ExprKind::Bin);
  EXPECT_EQ(kid(p, root, 0).kind, ExprKind::Literal);
  EXPECT_EQ(kid(p, root, 0).lit_value, 4.0);
}

TEST(FoldConstants, FoldsNegation) {
  ProgramBuilder b = four_scalar_builder();
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_neg(A, make_literal(A, -0.0)));
  Program p = b.build();
  fold_constants(p);
  const Expr& root = root_expr(p);
  EXPECT_EQ(root.kind, ExprKind::Literal);
  EXPECT_FALSE(fp::sign_bit(root.lit_value));  // -(-0.0) == +0.0
}

TEST(FoldConstants, RespectsFp32Precision) {
  // 1e30f * 1e30f overflows float but not double.
  ProgramBuilder b = four_scalar_builder(Precision::FP32);
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_bin(A, BinOp::Mul, make_literal(A, 1e30),
                                        make_literal(A, 1e30)));
  Program p = b.build();
  fold_constants(p);
  EXPECT_TRUE(fp::is_inf_bits(root_expr(p).lit_value));
}

TEST(FoldConstants, LeavesCallsAlone) {
  ProgramBuilder b = four_scalar_builder();
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_call(A, MathFn::Cos, make_literal(A, 1.0)));
  Program p = b.build();
  fold_constants(p);
  EXPECT_EQ(root_expr(p).kind, ExprKind::Call);
}

// ---------------------------------------------------------------------------
// contract_fma
// ---------------------------------------------------------------------------

TEST(ContractFma, SingleProductContractsIdenticallyBothWays) {
  for (auto pref : {FmaPreference::LeftProduct, FmaPreference::RightProduct}) {
    ProgramBuilder b = four_scalar_builder();
    Arena& A = b.arena();
    b.assign_comp(AssignOp::Add,
                  make_bin(A, BinOp::Add,
                           make_bin(A, BinOp::Mul, make_param(A, 1), make_param(A, 2)),
                           make_param(A, 3)));
    Program p = b.build();
    contract_fma(p, pref);
    const Expr& root = root_expr(p);
    ASSERT_EQ(root.kind, ExprKind::Fma);
    EXPECT_EQ(kid(p, root, 0).index, 1);
    EXPECT_EQ(kid(p, root, 1).index, 2);
    EXPECT_EQ(kid(p, root, 2).index, 3);
  }
}

TEST(ContractFma, TieBreakDiffersOnDoubleProduct) {
  const auto make = [] {
    ProgramBuilder b = four_scalar_builder();
    Arena& A = b.arena();
    b.assign_comp(AssignOp::Add,
                  make_bin(A, BinOp::Add,
                           make_bin(A, BinOp::Mul, make_param(A, 1), make_param(A, 2)),
                           make_bin(A, BinOp::Mul, make_param(A, 3), make_param(A, 4))));
    return b.build();
  };
  Program left = make();
  contract_fma(left, FmaPreference::LeftProduct);
  const Expr& lr = root_expr(left);
  ASSERT_EQ(lr.kind, ExprKind::Fma);
  EXPECT_EQ(kid(left, lr, 0).index, 1);  // fma(a, b, c*d)
  EXPECT_EQ(kid(left, lr, 2).kind, ExprKind::Bin);

  Program right = make();
  contract_fma(right, FmaPreference::RightProduct);
  const Expr& rr = root_expr(right);
  ASSERT_EQ(rr.kind, ExprKind::Fma);
  EXPECT_EQ(kid(right, rr, 0).index, 3);  // fma(c, d, a*b)
  EXPECT_EQ(kid(right, rr, 2).kind, ExprKind::Bin);
}

TEST(ContractFma, SubtractionNegatesCorrectOperand) {
  // a*b - c  ->  fma(a, b, -c)
  {
    ProgramBuilder b = four_scalar_builder();
    Arena& A = b.arena();
    b.assign_comp(AssignOp::Add,
                  make_bin(A, BinOp::Sub,
                           make_bin(A, BinOp::Mul, make_param(A, 1), make_param(A, 2)),
                           make_param(A, 3)));
    Program p = b.build();
    contract_fma(p, FmaPreference::LeftProduct);
    const Expr& root = root_expr(p);
    ASSERT_EQ(root.kind, ExprKind::Fma);
    EXPECT_EQ(kid(p, root, 2).kind, ExprKind::Neg);
  }
  // c - a*b  ->  fma(-a, b, c)
  {
    ProgramBuilder b = four_scalar_builder();
    Arena& A = b.arena();
    b.assign_comp(AssignOp::Add,
                  make_bin(A, BinOp::Sub, make_param(A, 3),
                           make_bin(A, BinOp::Mul, make_param(A, 1), make_param(A, 2))));
    Program q = b.build();
    contract_fma(q, FmaPreference::LeftProduct);
    const Expr& root2 = root_expr(q);
    ASSERT_EQ(root2.kind, ExprKind::Fma);
    EXPECT_EQ(kid(q, root2, 0).kind, ExprKind::Neg);
  }
}

TEST(ContractFma, ContractionChangesRoundingObservably) {
  // a*b + c with a*b requiring the fused wide intermediate:
  // a = 1+2^-52, b = 1-2^-52 -> a*b = 1 - 2^-104 (exact product).
  // Unfused: rounds to 1.0, +(-1.0) = 0.  Fused: fma gives -2^-104 exactly.
  ProgramBuilder b = four_scalar_builder();
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Add,
                         make_bin(A, BinOp::Mul, make_param(A, 1), make_param(A, 2)),
                         make_param(A, 3)));
  Program p = b.build();
  vgpu::KernelArgs args;
  args.fp = {0.0, 1.0 + 0x1p-52, 1.0 - 0x1p-52, -1.0, 0.0};
  args.ints = {0, 0, 0, 0, 0};

  const Executable e0 = compile(p, *find_platform("nvcc"), OptLevel::O0);
  EXPECT_EQ(vgpu::run_kernel(e0, args).value, 0.0);

  const Executable e1 = compile(p, *find_platform("nvcc"), OptLevel::O1);
  EXPECT_EQ(vgpu::run_kernel(e1, args).value, -0x1p-104);
}

TEST(ContractFma, CountsNodes) {
  ProgramBuilder b = four_scalar_builder();
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Add,
                         make_bin(A, BinOp::Mul, make_param(A, 1), make_param(A, 2)),
                         make_param(A, 3)));
  Program p = b.build();
  EXPECT_EQ(count_fma_nodes(p), 0u);
  contract_fma(p, FmaPreference::LeftProduct);
  EXPECT_EQ(count_fma_nodes(p), 1u);
}

// ---------------------------------------------------------------------------
// if_convert
// ---------------------------------------------------------------------------

TEST(IfConvert, ConvertsSingleCheapGuardedAdd) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.begin_if(make_cmp(A, CmpOp::Ge, make_param(A, 0), make_param(A, x)));
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Mul, make_literal(A, 2.0), make_param(A, x)));
  b.end_block();
  Program p = b.build();
  if_convert(p);
  ASSERT_EQ(p.stmt(p.body()[0]).kind, StmtKind::AssignComp);
  const Expr& root = root_expr(p);
  ASSERT_EQ(root.kind, ExprKind::Bin);
  EXPECT_EQ(root.bin_op, BinOp::Mul);
  EXPECT_EQ(kid(p, root, 0).kind, ExprKind::BoolToFp);
}

TEST(IfConvert, SkipsMultiStatementBodies) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.begin_if(make_cmp(A, CmpOp::Ge, make_param(A, 0), make_param(A, x)));
  b.assign_comp(AssignOp::Add, make_param(A, x));
  b.assign_comp(AssignOp::Add, make_param(A, x));
  b.end_block();
  Program p = b.build();
  if_convert(p);
  EXPECT_EQ(p.stmt(p.body()[0]).kind, StmtKind::If);
}

TEST(IfConvert, SkipsExpensiveOrCallBodies) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.begin_if(make_cmp(A, CmpOp::Ge, make_param(A, 0), make_param(A, x)));
  b.assign_comp(AssignOp::Add, make_call(A, MathFn::Cos, make_param(A, x)));
  b.end_block();
  Program p = b.build();
  if_convert(p);
  EXPECT_EQ(p.stmt(p.body()[0]).kind, StmtKind::If);  // call: not speculated
}

TEST(IfConvert, ZeroTimesInfinityProducesNaN) {
  // Case Study 3's mechanism in miniature: guarded add of an infinite value
  // with a false condition.
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();  // will be huge -> 2*x = inf
  b.begin_if(make_cmp(A, CmpOp::Gt, make_param(A, 0), make_literal(A, 0.0)));
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Mul, make_literal(A, 2.0), make_param(A, x)));
  b.end_block();
  Program p = b.build();

  vgpu::KernelArgs args;
  args.fp = {-1.0, 1.5e308};  // comp = -1 (condition false), 2*x overflows
  args.ints = {0, 0};

  const auto nv_run = vgpu::run_kernel(
      compile(p, *find_platform("nvcc"), OptLevel::O1), args);
  const auto amd_run = vgpu::run_kernel(
      compile(p, *find_platform("hipcc"), OptLevel::O1), args);
  EXPECT_EQ(nv_run.value, -1.0);                 // branch not taken
  EXPECT_TRUE(std::isnan(amd_run.value));        // comp += 0 * inf
}

// ---------------------------------------------------------------------------
// reassociate
// ---------------------------------------------------------------------------

ExprId chain4(Arena& A) {
  return make_bin(
      A, BinOp::Add,
      make_bin(A, BinOp::Add,
               make_bin(A, BinOp::Add, make_param(A, 1), make_param(A, 2)),
               make_param(A, 3)),
      make_param(A, 4));
}

TEST(Reassociate, BalancedTreeReshapesLongChains) {
  ProgramBuilder b = four_scalar_builder();
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, chain4(A));
  Program p = b.build();
  reassociate(p, ReassocStyle::BalancedTree, 4);
  const Expr& root = root_expr(p);
  ASSERT_EQ(root.kind, ExprKind::Bin);
  // (a+b) + (c+d): both children are additions.
  EXPECT_EQ(kid(p, root, 0).kind, ExprKind::Bin);
  EXPECT_EQ(kid(p, root, 1).kind, ExprKind::Bin);
  EXPECT_EQ(kid(p, kid(p, root, 1), 0).index, 3);
}

TEST(Reassociate, FlattenLeftKeepsCanonicalShape) {
  ProgramBuilder b = four_scalar_builder();
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Add, make_param(A, 1),
                         make_bin(A, BinOp::Add, make_param(A, 2),
                                  make_bin(A, BinOp::Add, make_param(A, 3),
                                           make_param(A, 4)))));
  Program p = b.build();
  reassociate(p, ReassocStyle::FlattenLeft, 4);
  // ((a+b)+c)+d: left spine.
  const Expr* e = &root_expr(p);
  EXPECT_EQ(kid(p, *e, 1).index, 4);
  e = &kid(p, *e, 0);
  EXPECT_EQ(kid(p, *e, 1).index, 3);
  e = &kid(p, *e, 0);
  EXPECT_EQ(kid(p, *e, 1).index, 2);
  EXPECT_EQ(kid(p, *e, 0).index, 1);
}

TEST(Reassociate, ShortChainsUntouchedByThreshold) {
  ProgramBuilder b = four_scalar_builder();
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Add, make_param(A, 1),
                         make_bin(A, BinOp::Add, make_param(A, 2),
                                  make_param(A, 3))));
  Program p = b.build();
  Program q = p;
  reassociate(p, ReassocStyle::BalancedTree, 4);
  reassociate(q, ReassocStyle::FlattenLeft, 4);
  // Both rebuild 3-chains identically (left shape), so shapes agree.
  EXPECT_EQ(p.dump(), q.dump());
}

TEST(Reassociate, MulChainsToo) {
  ProgramBuilder b = four_scalar_builder();
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Mul,
                         make_bin(A, BinOp::Mul,
                                  make_bin(A, BinOp::Mul, make_param(A, 1),
                                           make_param(A, 2)),
                                  make_param(A, 3)),
                         make_param(A, 4)));
  Program p = b.build();
  reassociate(p, ReassocStyle::BalancedTree, 4);
  EXPECT_EQ(kid(p, root_expr(p), 1).kind, ExprKind::Bin);
}

TEST(Reassociate, BuildsEachChainOnce) {
  // A 32-leaf chain has 31 operation nodes: one build of its canonical
  // shape allocates those and nothing else, and is already the fixpoint
  // (a second pass gives the same program).
  for (const ReassocStyle style :
       {ReassocStyle::FlattenLeft, ReassocStyle::BalancedTree}) {
    ProgramBuilder b = four_scalar_builder();
    Arena& A = b.arena();
    ExprId chain = make_param(A, 1);
    for (int i = 1; i < 32; ++i)
      chain = make_bin(A, BinOp::Add, chain, make_param(A, 1 + i % 4));
    b.assign_comp(AssignOp::Add, chain);
    Program p = b.build();
    const std::size_t before = p.arena().expr_count();
    reassociate(p, style, 4);
    EXPECT_LE(p.arena().expr_count() - before, 31u)
        << (style == ReassocStyle::FlattenLeft ? "flatten-left" : "balanced");
    Program again = p;
    reassociate(again, style, 4);
    EXPECT_EQ(again.dump(), p.dump());
  }
}

// ---------------------------------------------------------------------------
// reciprocal_division
// ---------------------------------------------------------------------------

TEST(ReciprocalDivision, OnlyInsideLoops) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int n = b.add_int_param();
  const int x = b.add_scalar_param();
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Div, make_param(A, 0), make_param(A, x)));
  b.begin_for(n);
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Div, make_param(A, 0), make_param(A, x)));
  b.end_block();
  Program p = b.build();
  reciprocal_division(p);
  // Top-level division untouched.
  EXPECT_EQ(root_expr(p).bin_op, BinOp::Div);
  // Loop-body division rewritten to multiply by reciprocal.
  const Stmt& loop = p.stmt(p.body()[1]);
  const Expr& in_loop = p.expr(p.stmt(p.body_of(loop)[0]).a);
  ASSERT_EQ(in_loop.kind, ExprKind::Bin);
  EXPECT_EQ(in_loop.bin_op, BinOp::Mul);
  ASSERT_EQ(kid(p, in_loop, 1).kind, ExprKind::Bin);
  EXPECT_EQ(kid(p, in_loop, 1).bin_op, BinOp::Div);
  EXPECT_EQ(kid(p, kid(p, in_loop, 1), 0).lit_value, 1.0);
}

TEST(ReciprocalDivision, SkipsPowerOfTwoDenominators) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int n = b.add_int_param();
  b.begin_for(n);
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Div, make_param(A, 0), make_literal(A, 4.0)));
  b.end_block();
  Program p = b.build();
  reciprocal_division(p);
  const Stmt& loop = p.stmt(p.body()[0]);
  EXPECT_EQ(p.expr(p.stmt(p.body_of(loop)[0]).a).bin_op, BinOp::Div);
}

// ---------------------------------------------------------------------------
// pipeline
// ---------------------------------------------------------------------------

TEST(Pipeline, LevelNamesRoundTrip) {
  for (OptLevel l : kAllOptLevels) {
    OptLevel back;
    ASSERT_TRUE(parse_opt_level(to_string(l), &back));
    EXPECT_EQ(back, l);
  }
  OptLevel dummy;
  EXPECT_FALSE(parse_opt_level("O9", &dummy));
}

TEST(Pipeline, MathLibSelection) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 5);
  const Program p = g.generate(0);

  const auto lib = [&](const char* platform, OptLevel l, bool hipify) {
    return compile(p, *find_platform(platform), l, hipify).mathlib;
  };
  EXPECT_EQ(lib("nvcc", OptLevel::O0, false), &vmath::nv_libdevice());
  EXPECT_EQ(lib("nvcc", OptLevel::O3, false), &vmath::nv_libdevice());
  EXPECT_EQ(lib("nvcc", OptLevel::O3_FastMath, false), &vmath::nv_fast());
  EXPECT_EQ(lib("nvcc", OptLevel::O3_FastMath, true), &vmath::nv_fast())
      << "HIPIFY binds only on hipcc";
  EXPECT_EQ(lib("hipcc", OptLevel::O2, false), &vmath::amd_ocml());
  EXPECT_EQ(lib("hipcc", OptLevel::O3_FastMath, false),
            &vmath::amd_ocml_native());
  EXPECT_EQ(lib("hipcc", OptLevel::O0, true), &vmath::hip_cuda_compat());
  EXPECT_EQ(lib("hipcc", OptLevel::O3_FastMath, true),
            &vmath::hip_cuda_compat_native());
}

TEST(Pipeline, EnvironmentFlags) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 6);
  const Program p = g.generate(1);

  const Executable e1 = compile(p, *find_platform("nvcc"), OptLevel::O3_FastMath);
  EXPECT_TRUE(e1.env.ftz32);
  EXPECT_TRUE(e1.env.daz32);
  EXPECT_EQ(e1.env.div32, fp::Div32Mode::NvApprox);

  const PlatformSpec& amd = *find_platform("hipcc");
  const Executable e2 = compile(p, amd, OptLevel::O3_FastMath);
  EXPECT_FALSE(e2.env.ftz32);
  EXPECT_EQ(e2.env.div32, fp::Div32Mode::AmdApprox);
  EXPECT_FALSE(e2.env.naive_minmax);  // FP64 program keeps IEEE min/max

  Program p32 = p;
  p32.set_precision(Precision::FP32);
  const Executable e3 = compile(p32, amd, OptLevel::O3_FastMath);
  EXPECT_TRUE(e3.env.naive_minmax);

  const Executable e4 = compile(p, *find_platform("nvcc"), OptLevel::O0);
  EXPECT_EQ(e4.env, fp::FpEnv{});
}

TEST(Pipeline, O1EqualsO2EqualsO3Numerically) {
  // The paper's Tables V/VII/IX show identical counts for O1/O2/O3; our
  // pipelines guarantee it: same numerics-relevant passes at all three.
  gen::GenConfig cfg;
  gen::Generator g(cfg, 7);
  gen::InputGenerator ig(7);
  for (int pi = 0; pi < 40; ++pi) {
    const Program p = g.generate(pi);
    const auto args = ig.generate(p, pi, 0);
    for (const PlatformSpec& spec : default_platforms()) {
      const auto r1 = vgpu::run_kernel(compile(p, spec, OptLevel::O1), args);
      const auto r2 = vgpu::run_kernel(compile(p, spec, OptLevel::O2), args);
      const auto r3 = vgpu::run_kernel(compile(p, spec, OptLevel::O3), args);
      EXPECT_EQ(r1.value_bits, r2.value_bits) << "prog " << pi;
      EXPECT_EQ(r2.value_bits, r3.value_bits) << "prog " << pi;
    }
  }
}

TEST(Pipeline, DescriptionSpellsFlags) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 8);
  const Program p = g.generate(0);
  EXPECT_EQ(compile(p, *find_platform("nvcc"), OptLevel::O2).description(),
            "nvcc-sim -O2");
  EXPECT_EQ(compile(p, *find_platform("nvcc"), OptLevel::O3_FastMath).description(),
            "nvcc-sim -O3 -use_fast_math");
  EXPECT_EQ(compile(p, *find_platform("hipcc"), OptLevel::O3_FastMath).description(),
            "hipcc-sim -O3 -DHIP_FAST_MATH");
}

/// The compile grid both lock tests sweep: seeded programs of both
/// precisions, hipify off and on, the registry's four platforms at every
/// level, each level's set compiled by diff::compile_set as a campaign
/// compiles it.  `visit` sees every program's inputs and compiled sets.
struct CompileGrid {
  static constexpr int kPrograms = 24;
  static constexpr int kInputs = 3;

  template <typename Visit>
  static void sweep(const Visit& visit) {
    const std::vector<PlatformSpec> platforms =
        parse_platform_list("nvcc,hipcc,hipcc-ftz,nvcc-fastmath");
    for (const Precision prec : {Precision::FP64, Precision::FP32}) {
      gen::GenConfig cfg;
      cfg.precision = prec;
      const gen::Generator g(cfg, 2024);
      const gen::InputGenerator ig(2024);
      for (int pi = 0; pi < kPrograms; ++pi) {
        const Program p = g.generate(static_cast<std::uint64_t>(pi));
        std::vector<vgpu::KernelArgs> inputs;
        for (int ii = 0; ii < kInputs; ++ii)
          inputs.push_back(ig.generate(p, static_cast<std::uint64_t>(pi),
                                       static_cast<std::uint64_t>(ii)));
        for (const bool hipify : {false, true}) {
          std::vector<diff::CompiledSet> sets;
          for (const OptLevel level : kAllOptLevels)
            sets.push_back(diff::compile_set(p, platforms, level, hipify));
          visit(p, platforms, hipify, inputs, sets);
        }
      }
    }
  }
};

TEST(Pipeline, CompiledOutputLocked) {
  // What every compile of the grid produces: the optimized program, the
  // FP environment, the level, the bound library and the VM's results on
  // the program's inputs.  BytecodeProgram internals (and any address)
  // stay out, so the digest is the same in every build; it was taken with
  // the library before compiles became allocation-light and compile_set
  // shared duplicate pipelines.
  std::string per_compile;
  std::size_t compiles = 0;
  vgpu::ExecContext ctx;
  CompileGrid::sweep([&](const Program&, const std::vector<PlatformSpec>&, bool,
                         const std::vector<vgpu::KernelArgs>& inputs,
                         const std::vector<diff::CompiledSet>& sets) {
    std::vector<vgpu::RunResult> runs(inputs.size());
    for (const diff::CompiledSet& set : sets) {
      for (const Executable& exe : set.exes) {
        std::string record = ir::program_to_json(exe.program).dump();
        // "00" stands where the record printed FpEnv's FP64 FTZ/DAZ flags,
        // which no pipeline ever set, so the digest keeps its value.
        record += " env " + std::to_string(exe.env.ftz32) +
                  std::to_string(exe.env.daz32) + "00" +
                  std::to_string(static_cast<int>(exe.env.div32)) +
                  std::to_string(exe.env.naive_minmax);
        record += " " + to_string(exe.level) + " " + exe.mathlib->name();
        exe.bytecode().run_batch(inputs, ctx, runs.data());
        for (const vgpu::RunResult& r : runs)
          record += " " + std::to_string(r.value_bits) + "/" +
                    std::to_string(r.flags.raw()) + "/" +
                    std::to_string(r.op_count) + "/" +
                    std::to_string(r.cycle_count);
        per_compile += support::fnv1a64_hex(record);
        ++compiles;
      }
    }
  });
  EXPECT_EQ(compiles, 2u * CompileGrid::kPrograms * 2 * 5 * 4);
  EXPECT_EQ(support::fnv1a64_hex(per_compile), "cad97b1e77d842a2");
}

TEST(Pipeline, EqualKeysImplySameKernel) {
  // compile() branches only on its PipelineKey, so equal keys of one
  // program must lower to the same kernel; compile_set compiles such
  // duplicates once and hands out copies sharing the lowering.  Of the 20
  // (level, platform) pairs of the four platforms, 9 keys are distinct:
  // each platform's O1..O3 share one, and nvcc-fastmath shares nvcc's O0
  // and O3 fast-math pipelines at every level.
  std::size_t programs = 0;
  CompileGrid::sweep([&](const Program& p,
                         const std::vector<PlatformSpec>& platforms,
                         bool hipify, const std::vector<vgpu::KernelArgs>&,
                         const std::vector<diff::CompiledSet>& sets) {
    std::vector<std::pair<PipelineKey, const Executable*>> seen;
    for (std::size_t li = 0; li < sets.size(); ++li) {
      const diff::CompiledSet& set = sets[li];
      std::vector<PipelineKey> level_keys;
      for (std::size_t i = 0; i < platforms.size(); ++i) {
        const PipelineKey key = pipeline_key(platforms[i], kAllOptLevels[li],
                                             hipify, p.precision());
        const Executable& exe = set.exes[i];
        for (std::size_t j = 0; j < i; ++j)
          if (level_keys[j] == key) {
            EXPECT_EQ(exe.bytecode_cache, set.exes[j].bytecode_cache)
                << "compile_set compiled a duplicate pipeline twice";
          }
        level_keys.push_back(key);
        for (const auto& [other_key, other] : seen)
          if (other_key == key) {
            EXPECT_TRUE(exe.bytecode().same_kernel(other->bytecode()))
                << platforms[i].name << " " << to_string(kAllOptLevels[li]);
          }
        seen.emplace_back(key, &exe);
      }
    }
    std::vector<PipelineKey> distinct;
    for (const auto& entry : seen)
      if (std::find(distinct.begin(), distinct.end(), entry.first) ==
          distinct.end())
        distinct.push_back(entry.first);
    EXPECT_EQ(seen.size(), 20u);
    EXPECT_EQ(distinct.size(), 9u);
    ++programs;
  });
  EXPECT_EQ(programs, 2u * CompileGrid::kPrograms * 2);
}

TEST(Pipeline, CompileDoesNotMutateInput) {
  gen::GenConfig cfg;
  gen::Generator g(cfg, 9);
  const Program p = g.generate(2);
  const std::string before = p.dump();
  (void)compile(p, *find_platform("hipcc"), OptLevel::O3_FastMath);
  EXPECT_EQ(p.dump(), before);
}


// ---------------------------------------------------------------------------
// Platform overrides: a spec's forced FP32 FTZ/DAZ reach the pipeline key
// alone, at every level, on both toolchains.  What the registry platforms
// execute under them is probed in tests/platform_test.cpp.
// ---------------------------------------------------------------------------

PlatformSpec probe_spec(Toolchain toolchain) {
  PlatformSpec spec;
  spec.name = toolchain == Toolchain::Nvcc ? "probe-nvcc" : "probe-hipcc";
  spec.toolchain = toolchain;
  return spec;
}

/// The key `spec` resolves to at `level` for an FP32 program.
PipelineKey key_of(const PlatformSpec& spec, OptLevel level) {
  return pipeline_key(spec, level, /*hipify_converted=*/false,
                      Precision::FP32);
}

TEST(PlatformOverrides, ForcedFtzAndDazApplyAloneAtEveryLevel) {
  for (const Toolchain t : {Toolchain::Nvcc, Toolchain::Hipcc}) {
    for (const OptLevel level : kAllOptLevels) {
      PlatformSpec ftz = probe_spec(t);
      ftz.force_ftz32 = true;
      PipelineKey expected = key_of(probe_spec(t), level);
      expected.env.ftz32 = true;
      EXPECT_EQ(key_of(ftz, level), expected)
          << to_string(t) << " " << to_string(level);

      PlatformSpec daz = probe_spec(t);
      daz.force_daz32 = true;
      expected = key_of(probe_spec(t), level);
      expected.env.daz32 = true;
      EXPECT_EQ(key_of(daz, level), expected)
          << to_string(t) << " " << to_string(level);
    }
  }
  // Below fast math neither toolchain sets the other flag.
  PlatformSpec ftz = probe_spec(Toolchain::Hipcc);
  ftz.force_ftz32 = true;
  EXPECT_FALSE(key_of(ftz, OptLevel::O2).env.daz32);
  PlatformSpec daz = probe_spec(Toolchain::Hipcc);
  daz.force_daz32 = true;
  EXPECT_FALSE(key_of(daz, OptLevel::O2).env.ftz32);
}

}  // namespace
