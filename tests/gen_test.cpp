// Tests for the random program and input generators: determinism,
// grammar-constraint conformance (paper Table III), value-class coverage.

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "fp/bits.hpp"
#include "fp/hexfloat.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "ir/serialize.hpp"
#include "opt/platform.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::gen;
using ir::ExprKind;
using ir::ParamKind;
using ir::Precision;
using ir::Program;
using ir::StmtKind;

int expr_depth(const ir::Arena& A, ir::ExprId id) {
  const ir::Expr& e = A[id];
  int deepest = 0;
  for (int i = 0; i < e.n_kids; ++i)
    deepest = std::max(deepest, expr_depth(A, e.kid[i]));
  return 1 + deepest;
}

void walk_stmts(const ir::Arena& A, std::span<const ir::StmtId> body,
                const std::function<void(const ir::Stmt&)>& fn) {
  for (ir::StmtId id : body) {
    const ir::Stmt& s = A[id];
    fn(s);
    walk_stmts(A, A.body(s), fn);
  }
}

void walk_exprs(const ir::Arena& A, ir::ExprId id,
                const std::function<void(const ir::Expr&)>& fn) {
  const ir::Expr& e = A[id];
  fn(e);
  for (int i = 0; i < e.n_kids; ++i) walk_exprs(A, e.kid[i], fn);
}

void walk_all_exprs(const Program& p,
                    const std::function<void(const ir::Expr&)>& fn) {
  walk_stmts(p.arena(), p.body(), [&](const ir::Stmt& s) {
    if (s.a) walk_exprs(p.arena(), s.a, fn);
    if (s.b) walk_exprs(p.arena(), s.b, fn);
  });
}

TEST(Generator, DeterministicPerSeedAndIndex) {
  GenConfig cfg;
  Generator g1(cfg, 42), g2(cfg, 42);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(g1.generate(i).dump(), g2.generate(i).dump());
}

TEST(Generator, DifferentIndicesDiffer) {
  GenConfig cfg;
  Generator g(cfg, 42);
  std::set<std::string> sources;
  for (int i = 0; i < 50; ++i) sources.insert(g.generate(i).dump());
  EXPECT_GT(sources.size(), 45u);  // collisions are conceivable but rare
}

TEST(Generator, DifferentSeedsDiffer) {
  GenConfig cfg;
  Generator a(cfg, 1), b(cfg, 2);
  int same = 0;
  for (int i = 0; i < 20; ++i)
    if (a.generate(i).dump() == b.generate(i).dump()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Generator, SignatureRespectsConfig) {
  GenConfig cfg;
  cfg.min_scalar_params = 2;
  cfg.max_scalar_params = 5;
  cfg.max_int_params = 2;
  cfg.max_array_params = 2;
  Generator g(cfg, 7);
  for (int i = 0; i < 60; ++i) {
    const Program p = g.generate(i);
    int ints = 0, scalars = 0, arrays = 0;
    ASSERT_EQ(p.params()[0].kind, ParamKind::Comp);
    for (std::size_t j = 1; j < p.params().size(); ++j) {
      switch (p.params()[j].kind) {
        case ParamKind::Int: ++ints; break;
        case ParamKind::Scalar: ++scalars; break;
        case ParamKind::Array: ++arrays; break;
        default: FAIL() << "comp must be unique";
      }
      EXPECT_EQ(p.params()[j].name, "var_" + std::to_string(j));
    }
    EXPECT_GE(ints, 1);
    EXPECT_LE(ints, 2);
    EXPECT_GE(scalars, 2);
    EXPECT_LE(scalars, 5);
    EXPECT_LE(arrays, 2);
  }
}

TEST(Generator, RespectsExprDepthLimit) {
  GenConfig cfg;
  cfg.max_expr_depth = 3;
  Generator g(cfg, 8);
  for (int i = 0; i < 40; ++i) {
    const Program p = g.generate(i);
    walk_stmts(p.arena(), p.body(), [&](const ir::Stmt& s) {
      // Depth limit applies to value expressions; conditions add a
      // comparison + two depth-2 operand trees on top, and the array
      // subscript adds one more level.
      if (s.a) {
        EXPECT_LE(expr_depth(p.arena(), s.a), 3 + 3);
      }
      if (s.b) {
        EXPECT_LE(expr_depth(p.arena(), s.b), 3 + 3);
      }
    });
  }
}

TEST(Generator, RespectsLoopNestLimit) {
  GenConfig cfg;
  cfg.max_loop_nest = 2;
  Generator g(cfg, 9);
  for (int i = 0; i < 60; ++i) {
    const Program p = g.generate(i);
    const std::function<int(std::span<const ir::StmtId>)> max_nest =
        [&](std::span<const ir::StmtId> body) -> int {
      int deepest = 0;
      for (ir::StmtId id : body) {
        const ir::Stmt& s = p.stmt(id);
        int inner = max_nest(p.body_of(s));
        if (s.kind == StmtKind::For) inner += 1;
        deepest = std::max(deepest, inner);
      }
      return deepest;
    };
    EXPECT_LE(max_nest(std::span<const ir::StmtId>(p.body())), 2);
  }
}

TEST(Generator, FeaturetogglesWork) {
  GenConfig cfg;
  cfg.allow_loops = false;
  cfg.allow_ifs = false;
  cfg.allow_calls = false;
  cfg.allow_arrays = false;
  Generator g(cfg, 10);
  for (int i = 0; i < 30; ++i) {
    const Program p = g.generate(i);
    walk_stmts(p.arena(), p.body(), [](const ir::Stmt& s) {
      EXPECT_NE(s.kind, StmtKind::For);
      EXPECT_NE(s.kind, StmtKind::If);
      EXPECT_NE(s.kind, StmtKind::StoreArray);
    });
    walk_all_exprs(p, [](const ir::Expr& e) {
      EXPECT_NE(e.kind, ExprKind::Call);
      EXPECT_NE(e.kind, ExprKind::ArrayRef);
    });
  }
}

TEST(Generator, LoopVarsReferenceEnclosingLoopsOnly) {
  GenConfig cfg;
  Generator g(cfg, 11);
  for (int i = 0; i < 60; ++i) {
    const Program p = g.generate(i);
    const std::function<void(std::span<const ir::StmtId>, int)> check =
        [&](std::span<const ir::StmtId> body, int depth) {
          for (ir::StmtId id : body) {
            const ir::Stmt& s = p.stmt(id);
            const auto check_expr = [&](ir::ExprId root) {
              walk_exprs(p.arena(), root, [&](const ir::Expr& e) {
                if (e.kind == ExprKind::LoopVarRef) {
                  EXPECT_GE(e.index, 0);
                  EXPECT_LT(e.index, depth);
                }
              });
            };
            if (s.a) check_expr(s.a);
            if (s.b) check_expr(s.b);
            check(p.body_of(s), depth + (s.kind == StmtKind::For ? 1 : 0));
          }
        };
    check(std::span<const ir::StmtId>(p.body()), 0);
  }
}

TEST(Generator, LiteralSpellingParsesBackToValue) {
  support::Rng rng(12);
  ir::Arena A;
  for (int i = 0; i < 3000; ++i) {
    const ir::ExprId lit = random_literal(A, rng, Precision::FP64);
    const std::string text(A.text(lit));
    const auto parsed = fp::parse_double(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(fp::to_bits(*parsed), fp::to_bits(A[lit].lit_value)) << text;
  }
}

TEST(Generator, Fp32LiteralsCarrySuffixAndFloatValue) {
  support::Rng rng(13);
  ir::Arena A;
  for (int i = 0; i < 2000; ++i) {
    const ir::ExprId lit = random_literal(A, rng, Precision::FP32);
    const std::string text(A.text(lit));
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), 'F') << text;
    // Value is exactly representable as float.
    const float f = static_cast<float>(A[lit].lit_value);
    EXPECT_EQ(static_cast<double>(f), A[lit].lit_value);
  }
}

TEST(Generator, TempsDeclaredBeforeUse) {
  GenConfig cfg;
  Generator g(cfg, 14);
  for (int i = 0; i < 60; ++i) {
    const Program p = g.generate(i);
    int declared = 0;
    // Walk in program order; every TempRef must reference a prior decl.
    const std::function<void(std::span<const ir::StmtId>)> scan =
        [&](std::span<const ir::StmtId> body) {
          for (ir::StmtId id : body) {
            const ir::Stmt& s = p.stmt(id);
            const auto check_expr = [&](ir::ExprId root) {
              walk_exprs(p.arena(), root, [&](const ir::Expr& e) {
                if (e.kind == ExprKind::TempRef) {
                  EXPECT_GE(e.index, 1);
                  EXPECT_LE(e.index, declared);
                }
              });
            };
            if (s.a) check_expr(s.a);
            if (s.b) check_expr(s.b);
            scan(p.body_of(s));
            if (s.kind == StmtKind::DeclTemp)
              declared = std::max(declared, static_cast<int>(s.index));
          }
        };
    scan(std::span<const ir::StmtId>(p.body()));
  }
}

TEST(Generator, DescribeMentionsGrammarRows) {
  GenConfig cfg;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("Loops"), std::string::npos);
  EXPECT_NE(d.find("Conditions"), std::string::npos);
  EXPECT_NE(d.find("double"), std::string::npos);
  cfg.precision = Precision::FP32;
  EXPECT_NE(cfg.describe().find("float"), std::string::npos);
}

// ---------------------------------------------------------------------------
// InputGenerator
// ---------------------------------------------------------------------------

TEST(Inputs, Deterministic) {
  GenConfig cfg;
  Generator g(cfg, 20);
  const Program p = g.generate(0);
  InputGenerator a(20), b(20);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(a.generate(p, 0, i), b.generate(p, 0, i));
}

TEST(Inputs, DistinctPerInputIndex) {
  GenConfig cfg;
  Generator g(cfg, 21);
  const Program p = g.generate(0);
  InputGenerator ig(21);
  std::set<std::string> seen;
  for (int i = 0; i < 20; ++i) seen.insert(ig.generate(p, 0, i).to_varity_string(p));
  EXPECT_GT(seen.size(), 18u);
}

TEST(Inputs, IntBoundsAreSmallNonNegative) {
  GenConfig cfg;
  Generator g(cfg, 22);
  InputGenerator ig(22, /*max_trip_count=*/8);
  for (int pi = 0; pi < 20; ++pi) {
    const Program p = g.generate(pi);
    for (int ii = 0; ii < 20; ++ii) {
      const auto args = ig.generate(p, pi, ii);
      for (std::size_t j = 0; j < p.params().size(); ++j) {
        if (p.params()[j].kind != ParamKind::Int) continue;
        EXPECT_GE(args.ints[j], 0);
        EXPECT_LE(args.ints[j], 8);
      }
    }
  }
}

TEST(Inputs, CoversValueClasses) {
  support::Rng rng(23);
  for (Precision prec : {Precision::FP64, Precision::FP32}) {
    // Every class generator produces a value of that class.
    for (int i = 0; i < 200; ++i) {
      const double z = random_value(rng, ValueClass::Zero, prec);
      EXPECT_TRUE(fp::is_zero_bits(z));
      const double sub = random_value(rng, ValueClass::Subnormal, prec);
      if (prec == Precision::FP32)
        EXPECT_TRUE(fp::is_subnormal_bits(static_cast<float>(sub))) << sub;
      else
        EXPECT_TRUE(fp::is_subnormal_bits(sub)) << sub;
      const double huge = fp::abs_bits(random_value(rng, ValueClass::Huge, prec));
      EXPECT_TRUE(fp::is_finite_bits(huge));
      EXPECT_GE(huge, prec == Precision::FP32 ? 1e34 : 1e291);
      const double mod = fp::abs_bits(random_value(rng, ValueClass::Moderate, prec));
      EXPECT_GE(mod, 0.09);
      EXPECT_LT(mod, 2e4);
    }
  }
}

TEST(Inputs, BothSignsAppear) {
  support::Rng rng(24);
  int neg = 0;
  for (int i = 0; i < 1000; ++i)
    if (fp::sign_bit(random_value(rng, ValueClass::Moderate, Precision::FP64)))
      ++neg;
  EXPECT_GT(neg, 400);
  EXPECT_LT(neg, 600);
}

TEST(Inputs, GeneratedProgramsRunWithGeneratedInputs) {
  // Smoke property: every generated (program, input) pair executes without
  // throwing on both platforms at every level.
  GenConfig cfg;
  Generator g(cfg, 25);
  InputGenerator ig(25);
  for (int pi = 0; pi < 15; ++pi) {
    const Program p = g.generate(pi);
    for (int ii = 0; ii < 3; ++ii) {
      const auto args = ig.generate(p, pi, ii);
      for (auto level : opt::kAllOptLevels) {
        for (const opt::PlatformSpec& spec : opt::default_platforms()) {
          EXPECT_NO_THROW({
            const auto exe = opt::compile(p, spec, level);
            (void)vgpu::run_kernel(exe, args);
          });
        }
      }
    }
  }
}

}  // namespace
