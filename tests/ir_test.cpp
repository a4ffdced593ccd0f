// Unit tests for the program IR: arena node construction, pool copying,
// equality, builder, source rendering, JSON serialization round-trips.

#include <gtest/gtest.h>

#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "ir/builder.hpp"
#include "ir/program.hpp"
#include "ir/serialize.hpp"
#include "opt/platform.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff::ir;

TEST(Expr, ConstructorsSetPayload) {
  Arena A;
  const ExprId lit = make_literal(A, 1.5, "+1.5E0");
  EXPECT_EQ(A[lit].kind, ExprKind::Literal);
  EXPECT_EQ(A[lit].lit_value, 1.5);
  EXPECT_EQ(A.text(lit), "+1.5E0");

  const ExprId bin = make_bin(A, BinOp::Div, make_param(A, 1), make_temp(A, 2));
  EXPECT_EQ(A[bin].kind, ExprKind::Bin);
  EXPECT_EQ(A[bin].bin_op, BinOp::Div);
  ASSERT_EQ(A[bin].n_kids, 2);
  EXPECT_EQ(A[A[bin].kid[0]].index, 1);
  EXPECT_EQ(A[A[bin].kid[1]].index, 2);

  const ExprId call = make_call(A, MathFn::Fmod, make_param(A, 1), make_param(A, 2));
  EXPECT_EQ(A[call].n_kids, 2);
  const ExprId fma = make_fma(A, make_param(A, 1), make_param(A, 2), make_param(A, 3));
  EXPECT_EQ(A[fma].n_kids, 3);
}

TEST(Expr, BoolValuedPredicates) {
  Arena A;
  EXPECT_TRUE(A[make_cmp(A, CmpOp::Lt, make_param(A, 1), make_param(A, 2))]
                  .is_bool_valued());
  EXPECT_TRUE(A[make_not(A, make_cmp(A, CmpOp::Eq, make_param(A, 1),
                                     make_param(A, 1)))]
                  .is_bool_valued());
  EXPECT_FALSE(A[make_param(A, 1)].is_bool_valued());
  EXPECT_FALSE(A[make_bool_to_fp(A, make_cmp(A, CmpOp::Lt, make_param(A, 1),
                                             make_param(A, 2)))]
                   .is_bool_valued());
}

TEST(Expr, ArityAndNames) {
  EXPECT_EQ(arity(MathFn::Cos), 1);
  EXPECT_EQ(arity(MathFn::Fmod), 2);
  EXPECT_EQ(arity(MathFn::Pow), 2);
  EXPECT_EQ(name_of(MathFn::Cos), "cos");
  EXPECT_EQ(name_of(MathFn::Cos, Precision::FP32), "cosf");
  EXPECT_EQ(name_of(MathFn::Fmod, Precision::FP32), "fmodf");
}

TEST(Expr, IdsAreStableAcrossArenaGrowth) {
  Arena A;
  const ExprId first = make_literal(A, 2.0);
  for (int i = 0; i < 10000; ++i) (void)make_literal(A, static_cast<double>(i));
  EXPECT_EQ(A[first].lit_value, 2.0);  // growth must never move ids
}

TEST(Expr, EqualsComparesLiteralBits) {
  Arena A;
  const ExprId a = make_literal(A, 0.0);
  const ExprId b = make_literal(A, -0.0);
  EXPECT_FALSE(equal(A, a, A, b));  // signed zeros are distinct
  const ExprId c = make_literal(A, 0.0, "different spelling");
  EXPECT_TRUE(equal(A, a, A, c));  // spelling is cosmetic
}

TEST(Expr, EqualsWorksAcrossArenas) {
  Arena A, B;
  const ExprId x = make_bin(A, BinOp::Add, make_call(A, MathFn::Sqrt, make_param(A, 1)),
                            make_neg(A, make_literal(A, 2.0)));
  const ExprId y = make_bin(B, BinOp::Add, make_call(B, MathFn::Sqrt, make_param(B, 1)),
                            make_neg(B, make_literal(B, 2.0)));
  EXPECT_TRUE(equal(A, x, B, y));
  B[B[y].kid[1]].kind = ExprKind::BoolNot;
  EXPECT_FALSE(equal(A, x, B, y));
}

TEST(Expr, NodeCount) {
  Arena A;
  const ExprId e = make_bin(
      A, BinOp::Mul, make_param(A, 1),
      make_bin(A, BinOp::Add, make_literal(A, 1.0), make_temp(A, 1)));
  EXPECT_EQ(node_count(A, e), 5u);
}

TEST(Expr, NodeCountSurvivesDeepChains) {
  // The pointer IR's recursive clone()/~Expr() would overflow the stack on
  // chains like this; arena traversals are iterative by construction.
  Arena A;
  ExprId e = make_literal(A, 1.0);
  constexpr std::size_t kDepth = 1000000;
  for (std::size_t i = 0; i < kDepth; ++i) e = make_neg(A, e);
  EXPECT_EQ(node_count(A, e), kDepth + 1);
  EXPECT_TRUE(equal(A, e, A, e));
}

TEST(Stmt, BodySpansAndCount) {
  Arena A;
  std::vector<StmtId> body;
  body.push_back(make_assign_comp(A, AssignOp::Add, make_param(A, 1)));
  const StmtId loop = make_for(A, 0, 1, body);
  EXPECT_EQ(A[loop].kind, StmtKind::For);
  EXPECT_EQ(A[loop].bound_param, 1);
  ASSERT_EQ(A.body(A[loop]).size(), 1u);
  EXPECT_EQ(node_count(A, loop), 3u);  // for + assign + param
}

TEST(Builder, BuildsVarityShapedKernel) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int n = b.add_int_param();
  const int x = b.add_scalar_param();
  const int arr = b.add_array_param();
  b.assign_comp(AssignOp::Add, make_call(A, MathFn::Cos, make_param(A, x)));
  b.begin_for(n);
  b.store_array(arr, make_loop_var(A, 0), make_param(A, x));
  b.assign_comp(AssignOp::Sub, make_array(A, arr, make_loop_var(A, 0)));
  b.end_block();
  b.begin_if(make_cmp(A, CmpOp::Ge, make_param(A, 0), make_literal(A, 0.0)));
  b.assign_comp(AssignOp::Mul, make_literal(A, 2.0, "+2.0E0"));
  b.end_block();
  Program p = b.build();

  ASSERT_EQ(p.params().size(), 4u);
  EXPECT_EQ(p.params()[0].kind, ParamKind::Comp);
  EXPECT_EQ(p.params()[0].name, "comp");
  EXPECT_EQ(p.params()[1].name, "var_1");
  EXPECT_EQ(p.body().size(), 3u);
  EXPECT_EQ(p.stmt(p.body()[1]).kind, StmtKind::For);
  const std::string src = p.dump();
  EXPECT_NE(src.find("for (int i = 0; i < var_1; ++i)"), std::string::npos);
  EXPECT_NE(src.find("cos(var_2)"), std::string::npos);
  EXPECT_NE(src.find("printf(\"%.17g\\n\", comp);"), std::string::npos);
}

TEST(Builder, RejectsMisuse) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  EXPECT_THROW(b.begin_for(x), std::logic_error);       // not an int param
  EXPECT_THROW(b.begin_if(make_param(A, x)), std::logic_error);  // not boolean
  EXPECT_THROW(b.store_array(x, make_loop_var(A, 0), make_literal(A, 1.0)),
               std::logic_error);                       // not an array
  EXPECT_THROW(b.end_block(), std::logic_error);        // nothing open
  b.begin_if(make_cmp(A, CmpOp::Lt, make_param(A, x), make_literal(A, 1.0)));
  EXPECT_THROW(b.build(), std::logic_error);            // unclosed block
}

TEST(Builder, TempIdsAreSequential) {
  ProgramBuilder b(Precision::FP32);
  Arena& A = b.arena();
  EXPECT_EQ(b.decl_temp(make_literal(A, 1.0)), 1);
  EXPECT_EQ(b.decl_temp(make_literal(A, 2.0)), 2);
  Program p = b.build();
  EXPECT_EQ(p.max_temp_id(), 2);
  EXPECT_EQ(std::string(p.scalar_type()), "float");
}

TEST(Program, SourceRenderingPreservesLiteralSpelling) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_literal(A, 1.5955e-125, "+1.5955E-125"));
  Program p = b.build();
  EXPECT_NE(p.dump().find("+1.5955E-125"), std::string::npos);
}

TEST(Program, Fp32FallbackSpellingHasSuffix) {
  ProgramBuilder b(Precision::FP32);
  Arena& A = b.arena();
  b.assign_comp(AssignOp::Add, make_literal(A, 1.5));  // no spelling recorded
  Program p = b.build();
  EXPECT_NE(p.dump().find("F"), std::string::npos);
}

TEST(Program, CopyIsDeep) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(AssignOp::Add, make_param(A, x));
  Program p = b.build();
  Program q = p;  // pool copy
  q.stmt(q.body()[0]).assign_op = AssignOp::Mul;
  EXPECT_EQ(p.stmt(p.body()[0]).assign_op, AssignOp::Add);
}

// ---------------------------------------------------------------------------
// serialization round-trips
// ---------------------------------------------------------------------------

TEST(Serialize, ExprRoundTrip) {
  Arena A;
  const ExprId e = make_bin(
      A, BinOp::Div,
      make_call(A, MathFn::Fmod, make_param(A, 2),
                make_literal(A, 1.5793e-307, "+1.5793E-307")),
      make_fma(A, make_temp(A, 1), make_loop_var(A, 0),
               make_array(A, 3, make_loop_var(A, 0))));
  Arena B;
  const ExprId back = expr_from_json(B, expr_to_json(A, e));
  EXPECT_TRUE(equal(A, e, B, back));
  EXPECT_EQ(B.text(B[B[back].kid[0]].kid[1]), "+1.5793E-307");
}

TEST(Serialize, BooleanExprRoundTrip) {
  Arena A;
  const ExprId e = make_bool(
      A, BoolOp::And, make_cmp(A, CmpOp::Ge, make_param(A, 1), make_literal(A, 0.0)),
      make_not(A, make_cmp(A, CmpOp::Ne, make_temp(A, 1), make_param(A, 2))));
  Arena B;
  const ExprId back = expr_from_json(B, expr_to_json(A, e));
  EXPECT_TRUE(equal(A, e, B, back));
}

TEST(Serialize, SignedZeroLiteralSurvives) {
  Arena A;
  const ExprId e = make_literal(A, -0.0, "-0.0");
  Arena B;
  const ExprId back = expr_from_json(B, expr_to_json(A, e));
  EXPECT_TRUE(equal(A, e, B, back));
}

// ---------------------------------------------------------------------------
// compact(): drop orphaned pool nodes after pass rewriting
// ---------------------------------------------------------------------------

TEST(Compact, PoolShrinksToReachableNodeCount) {
  // Optimizing passes orphan rewritten nodes in the pool (arena.hpp:
  // "rewrites orphan old nodes").  After compact() the pools hold exactly
  // the live tree: expr_count + stmt_count == node_count() for the
  // tree-shaped programs the generator produces.
  gpudiff::gen::GenConfig cfg;
  gpudiff::gen::Generator g(cfg, 42);
  gpudiff::gen::InputGenerator ig(42);
  int shrunk = 0;
  for (std::uint64_t pi = 0; pi < 20; ++pi) {
    // The fast-math pipeline (fold + contraction + reassociation) is the
    // heaviest rewriter, so its executables carry the most garbage.
    auto exe = gpudiff::opt::compile(
        g.generate(pi), *gpudiff::opt::find_platform("nvcc"), gpudiff::opt::OptLevel::O3_FastMath);
    const auto args = ig.generate(exe.program, pi, 0);
    const auto before_bits = gpudiff::vgpu::run_kernel_tree(exe, args).value_bits;
    const std::string before_json = program_to_json(exe.program).dump();
    const std::size_t live = exe.program.node_count();
    const std::size_t pool_before =
        exe.program.arena().expr_count() + exe.program.arena().stmt_count();
    ASSERT_GE(pool_before, live);
    if (pool_before > live) ++shrunk;

    exe.program.compact();
    // The node-count assertion: nothing live dropped, nothing dead kept.
    EXPECT_EQ(exe.program.node_count(), live);
    EXPECT_EQ(exe.program.arena().expr_count() +
                  exe.program.arena().stmt_count(),
              live);
    // Semantics preserved: serialization and execution are unchanged.
    EXPECT_EQ(program_to_json(exe.program).dump(), before_json);
    exe.bytecode_cache.reset();  // program was rewritten in place
    EXPECT_EQ(gpudiff::vgpu::run_kernel_tree(exe, args).value_bits, before_bits);
    EXPECT_EQ(gpudiff::vgpu::run_kernel(exe, args).value_bits, before_bits);
  }
  EXPECT_GT(shrunk, 0) << "no optimized program carried orphaned nodes; the "
                          "test is vacuous";
}

TEST(Compact, PreservesLiteralSpellingsAndBodies) {
  ProgramBuilder b(Precision::FP64);
  Arena& A = b.arena();
  const int n = b.add_int_param();
  const int x = b.add_scalar_param();
  // Orphan some nodes by hand: allocated but never referenced.
  make_literal(A, 99.0, "+9.9E1");
  make_bin(A, BinOp::Mul, make_literal(A, 2.0), make_literal(A, 3.0));
  b.begin_for(n);
  b.assign_comp(AssignOp::Add,
                make_bin(A, BinOp::Add, make_param(A, x),
                         make_literal(A, 1.5955e-125, "+1.5955E-125")));
  b.end_block();
  Program p = b.build();

  const std::string before = p.dump();
  const std::size_t live = p.node_count();
  ASSERT_LT(live, p.arena().expr_count() + p.arena().stmt_count());
  p.compact();
  EXPECT_EQ(p.arena().expr_count() + p.arena().stmt_count(), live);
  // dump() renders the preserved literal spelling and the loop body.
  EXPECT_EQ(p.dump(), before);
  EXPECT_NE(p.dump().find("+1.5955E-125"), std::string::npos);
}

TEST(Serialize, RejectsGarbage) {
  using gpudiff::support::Json;
  Arena A;
  EXPECT_THROW(expr_from_json(A, Json::parse(R"({"k":"wat"})")), std::runtime_error);
  EXPECT_THROW(stmt_from_json(A, Json::parse(R"({"k":"wat"})")), std::runtime_error);
}

/// Property: random generated programs survive JSON round-trips with
/// byte-identical re-serialization, byte-identical rendered source, and
/// bit-identical execution of the parsed copy (both backends).
class ProgramRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ProgramRoundTrip, JsonPreservesProgramAndExecution) {
  gpudiff::gen::GenConfig cfg;
  cfg.precision = GetParam() % 2 == 0 ? Precision::FP64 : Precision::FP32;
  gpudiff::gen::Generator g(cfg, 99);
  gpudiff::gen::InputGenerator ig(99);
  const Program p = g.generate(static_cast<std::uint64_t>(GetParam()));

  // serialize -> parse -> re-serialize must be byte-equal: the wire format
  // is structural, so arena pool layout never leaks into the JSON.
  const gpudiff::support::Json j1 = program_to_json(p);
  const Program q = program_from_json(j1);
  const gpudiff::support::Json j2 = program_to_json(q);
  EXPECT_EQ(j1.dump(), j2.dump());

  ASSERT_EQ(p.params().size(), q.params().size());
  EXPECT_EQ(p.precision(), q.precision());
  EXPECT_EQ(p.dump(), q.dump());
  ASSERT_EQ(p.body().size(), q.body().size());
  EXPECT_EQ(p.node_count(), q.node_count());

  // Execution replayed from the parsed copy is bit-identical to the
  // original arena, at every level, on both platforms and both backends.
  const auto args = ig.generate(p, static_cast<std::uint64_t>(GetParam()), 0);
  namespace opt = gpudiff::opt;
  namespace vgpu = gpudiff::vgpu;
  for (const opt::OptLevel level : opt::kAllOptLevels) {
    for (const opt::PlatformSpec& spec : opt::default_platforms()) {
      const opt::Executable ep = opt::compile(p, spec, level);
      const opt::Executable eq = opt::compile(q, spec, level);
      const auto rp = vgpu::run_kernel(ep, args);
      const auto rq = vgpu::run_kernel(eq, args);
      EXPECT_EQ(rp.value_bits, rq.value_bits);
      EXPECT_EQ(rp.flags.raw(), rq.flags.raw());
      EXPECT_EQ(rp.op_count, rq.op_count);
      const auto tp = vgpu::run_kernel_tree(ep, args);
      const auto tq = vgpu::run_kernel_tree(eq, args);
      EXPECT_EQ(tp.value_bits, tq.value_bits);
      EXPECT_EQ(rp.value_bits, tp.value_bits);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramRoundTrip, ::testing::Range(0, 24));

}  // namespace
