#include "opt/passes.hpp"

#include <vector>

#include "fp/bits.hpp"

namespace gpudiff::opt {

using ir::Arena;
using ir::Expr;
using ir::ExprId;
using ir::ExprKind;
using ir::Precision;
using ir::Program;
using ir::Stmt;
using ir::StmtId;
using ir::StmtKind;

namespace {

// Passes rewrite by allocating replacement nodes into the program's own
// arena and swapping child ids; orphaned nodes stay in the pool and die
// with the Program.  Invariant relied on throughout: rewrites allocate
// *expressions* only, so Stmt references and body spans stay stable while
// Expr references must be re-indexed (or copied by value) across any
// make_* call.
//
// The walkers are templates over the rewrite callable, so a pass costs a
// direct (usually inlined) call per node rather than a std::function
// dispatch.

/// Apply `fn` to every expression root in the program (stmt operands),
/// allowing replacement: fn receives the root id and returns the new one.
template <typename Fn>
void transform_exprs(Program& prog, std::span<const StmtId> body, Fn&& fn) {
  for (StmtId id : body) {
    Stmt& s = prog.stmt(id);
    if (s.a) s.a = fn(s.a);
    if (s.b) s.b = fn(s.b);
    transform_exprs(prog, prog.body_of(s), fn);
  }
}

/// Post-order expression rewrite.
template <typename Fn>
ExprId rewrite_post(Arena& a, ExprId id, const Fn& fn) {
  const int n = a[id].n_kids;
  for (int i = 0; i < n; ++i) {
    const ExprId kid = a[id].kid[i];
    const ExprId replacement = rewrite_post(a, kid, fn);
    a[id].kid[i] = replacement;
  }
  return fn(id);
}

/// Rewrite every expression of the program post-order with `fn`.
template <typename Fn>
void rewrite_all_post(Program& prog, const Fn& fn) {
  Arena& arena = prog.arena();
  transform_exprs(prog, prog.body(),
                  [&](ExprId root) { return rewrite_post(arena, root, fn); });
}

}  // namespace

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

namespace {

template <typename T>
double fold_bin(ir::BinOp op, double a, double b) {
  const T x = static_cast<T>(a);
  const T y = static_cast<T>(b);
  T r{};
  switch (op) {
    case ir::BinOp::Add: r = x + y; break;
    case ir::BinOp::Sub: r = x - y; break;
    case ir::BinOp::Mul: r = x * y; break;
    case ir::BinOp::Div: r = x / y; break;
  }
  return static_cast<double>(r);
}

}  // namespace

void fold_constants(ir::Program& prog) {
  Arena& arena = prog.arena();
  const Precision prec = prog.precision();
  const auto fold = [&arena, prec](ExprId id) -> ExprId {
    const Expr e = arena[id];
    switch (e.kind) {
      case ExprKind::Neg:
        if (arena[e.kid[0]].kind == ExprKind::Literal) {
          // Exact sign flip; spelling is dropped (the value is canonical).
          return ir::make_literal(arena,
                                  fp::negate_bits(arena[e.kid[0]].lit_value));
        }
        break;
      case ExprKind::Bin: {
        const Expr& k0 = arena[e.kid[0]];
        const Expr& k1 = arena[e.kid[1]];
        if (k0.kind == ExprKind::Literal && k1.kind == ExprKind::Literal) {
          const double a = k0.lit_value;
          const double b = k1.lit_value;
          const double r = prec == Precision::FP32
                               ? fold_bin<float>(e.bin_op, a, b)
                               : fold_bin<double>(e.bin_op, a, b);
          return ir::make_literal(arena, r);
        }
        break;
      }
      default:
        break;
    }
    return id;
  };
  rewrite_all_post(prog, fold);
}

// ---------------------------------------------------------------------------
// FMA contraction
// ---------------------------------------------------------------------------

void contract_fma(ir::Program& prog, FmaPreference pref) {
  Arena& arena = prog.arena();
  const auto contract = [&arena, pref](ExprId id) -> ExprId {
    const Expr e = arena[id];
    if (e.kind != ExprKind::Bin) return id;
    if (e.bin_op != ir::BinOp::Add && e.bin_op != ir::BinOp::Sub) return id;
    const Expr lhs = arena[e.kid[0]];
    const Expr rhs = arena[e.kid[1]];
    const bool lhs_mul = lhs.kind == ExprKind::Bin && lhs.bin_op == ir::BinOp::Mul;
    const bool rhs_mul = rhs.kind == ExprKind::Bin && rhs.bin_op == ir::BinOp::Mul;
    if (!lhs_mul && !rhs_mul) return id;

    const bool subtract = e.bin_op == ir::BinOp::Sub;
    ExprId lhs_id = e.kid[0];
    ExprId rhs_id = e.kid[1];

    if (lhs_mul && rhs_mul) {
      // a*b (+/-) c*d — tie-break differs between the toolchains.
      if (pref == FmaPreference::LeftProduct) {
        if (subtract) rhs_id = ir::make_neg(arena, rhs_id);
        return ir::make_fma(arena, lhs.kid[0], lhs.kid[1], rhs_id);
      }
      ExprId c = rhs.kid[0];
      if (subtract) {
        // a*b - c*d = fma(-c, d, a*b)
        c = ir::make_neg(arena, c);
      }
      return ir::make_fma(arena, c, rhs.kid[1], lhs_id);
    }
    if (lhs_mul) {
      // a*b + c -> fma(a,b,c);  a*b - c -> fma(a,b,-c)
      if (subtract) rhs_id = ir::make_neg(arena, rhs_id);
      return ir::make_fma(arena, lhs.kid[0], lhs.kid[1], rhs_id);
    }
    // c + a*b -> fma(a,b,c);  c - a*b -> fma(-a,b,c)
    ExprId a = rhs.kid[0];
    if (subtract) a = ir::make_neg(arena, a);
    return ir::make_fma(arena, a, rhs.kid[1], lhs_id);
  };
  rewrite_all_post(prog, contract);
}

// ---------------------------------------------------------------------------
// Predicate-multiply if-conversion
// ---------------------------------------------------------------------------

namespace {

/// Whether the subtree at `id` has at most `budget` nodes and no call.
/// Speculation is only profitable for cheap right-hand sides; real
/// if-converters bail out on large expressions (and on calls, which may
/// not be speculatable at all).  The budget bounds the recursion.
bool cheap_to_speculate(const Arena& arena, ExprId id, int& budget) {
  const Expr& e = arena[id];
  if (--budget < 0 || e.kind == ExprKind::Call) return false;
  for (int i = 0; i < e.n_kids; ++i)
    if (!cheap_to_speculate(arena, e.kid[i], budget)) return false;
  return true;
}

void if_convert_body(Program& prog, std::span<const StmtId> body) {
  Arena& arena = prog.arena();
  for (StmtId id : body) {
    if_convert_body(prog, prog.body_of(prog.stmt(id)));
    const Stmt s = prog.stmt(id);
    if (s.kind != StmtKind::If) continue;
    if (s.body_len != 1) continue;
    const Stmt inner = prog.stmt(arena.body(s)[0]);
    if (inner.kind != StmtKind::AssignComp || inner.assign_op != ir::AssignOp::Add)
      continue;
    int budget = 4;
    if (!cheap_to_speculate(arena, inner.a, budget)) continue;
    // if (cond) comp += e;  ==>  comp += (T)cond * e;
    const ExprId predicate = ir::make_bool_to_fp(arena, s.a);
    const ExprId value =
        ir::make_bin(arena, ir::BinOp::Mul, predicate, inner.a);
    Stmt replacement;
    replacement.kind = StmtKind::AssignComp;
    replacement.assign_op = ir::AssignOp::Add;
    replacement.a = value;
    prog.stmt(id) = replacement;
  }
}

}  // namespace

void if_convert(ir::Program& prog) { if_convert_body(prog, prog.body()); }

// ---------------------------------------------------------------------------
// Reassociation
// ---------------------------------------------------------------------------

namespace {

/// Collect the leaves of a same-op chain (Add or Mul, left/right nested).
void collect_chain(const Arena& arena, ExprId id, ir::BinOp op,
                   std::vector<ExprId>& leaves) {
  const Expr& e = arena[id];
  if (e.kind == ExprKind::Bin && e.bin_op == op) {
    collect_chain(arena, e.kid[0], op, leaves);
    collect_chain(arena, e.kid[1], op, leaves);
    return;
  }
  leaves.push_back(id);
}

ExprId build_left(Arena& arena, const std::vector<ExprId>& leaves, ir::BinOp op,
                  std::size_t lo, std::size_t hi) {
  ExprId acc = leaves[lo];
  for (std::size_t i = lo + 1; i < hi; ++i)
    acc = ir::make_bin(arena, op, acc, leaves[i]);
  return acc;
}

/// The canonical shape of leaves [lo, hi) of a chain: a left spine under
/// FlattenLeft or below `min_chain` leaves, otherwise the two halves split
/// at n/2, each shaped by the same rule.  Every sub-chain of this shape is
/// already in its own canonical shape, so one build is the fixpoint the
/// rule asks for: each of the chain's n - 1 operation nodes is allocated
/// once.
ExprId build_chain(Arena& arena, const std::vector<ExprId>& leaves,
                   ir::BinOp op, ReassocStyle style, int min_chain,
                   std::size_t lo, std::size_t hi) {
  const std::size_t n = hi - lo;
  if (n == 1 || style == ReassocStyle::FlattenLeft ||
      static_cast<int>(n) < min_chain)
    return build_left(arena, leaves, op, lo, hi);
  const std::size_t mid = lo + n / 2;
  const ExprId lhs = build_chain(arena, leaves, op, style, min_chain, lo, mid);
  const ExprId rhs = build_chain(arena, leaves, op, style, min_chain, mid, hi);
  return ir::make_bin(arena, op, lhs, rhs);
}

/// Reassociate every add/mul chain in the expression at `id`: reassociate
/// the chain's leaves (each is some other kind of node, or another op's
/// chain), then build the chain once in its canonical shape.  `leaves` is
/// a stack: this chain's leaves sit above `base`, and a nested chain's
/// above them until it returns.
ExprId reassociate_expr(Arena& arena, ExprId id, ReassocStyle style,
                        int min_chain, std::vector<ExprId>& leaves) {
  const Expr e = arena[id];
  if (e.kind == ExprKind::Bin &&
      (e.bin_op == ir::BinOp::Add || e.bin_op == ir::BinOp::Mul)) {
    const std::size_t base = leaves.size();
    collect_chain(arena, id, e.bin_op, leaves);
    for (std::size_t i = base; i < leaves.size(); ++i) {
      const ExprId leaf =
          reassociate_expr(arena, leaves[i], style, min_chain, leaves);
      leaves[i] = leaf;
    }
    const ExprId root = build_chain(arena, leaves, e.bin_op, style, min_chain,
                                    base, leaves.size());
    leaves.resize(base);
    return root;
  }
  for (int i = 0; i < e.n_kids; ++i) {
    const ExprId kid =
        reassociate_expr(arena, arena[id].kid[i], style, min_chain, leaves);
    arena[id].kid[i] = kid;
  }
  return id;
}

}  // namespace

void reassociate(ir::Program& prog, ReassocStyle style, int min_chain) {
  Arena& arena = prog.arena();
  std::vector<ExprId> leaves;  // one stack for every chain of the program
  transform_exprs(prog, prog.body(), [&](ExprId root) {
    return reassociate_expr(arena, root, style, min_chain, leaves);
  });
}

// ---------------------------------------------------------------------------
// Reciprocal division
// ---------------------------------------------------------------------------

namespace {

bool is_power_of_two_literal(const Expr& e) {
  if (e.kind != ExprKind::Literal) return false;
  const double v = fp::abs_bits(e.lit_value);
  if (fp::is_zero_bits(v) || !fp::is_finite_bits(v)) return false;
  return fp::mantissa_field(v) == 0;
}

ExprId recip_rewrite(Arena& arena, ExprId id) {
  const Expr e = arena[id];
  if (e.kind != ExprKind::Bin || e.bin_op != ir::BinOp::Div) return id;
  if (is_power_of_two_literal(arena[e.kid[1]])) return id;  // exact either way
  const ExprId one = ir::make_literal(arena, 1.0, "1.0");
  const ExprId inv = ir::make_bin(arena, ir::BinOp::Div, one, e.kid[1]);
  return ir::make_bin(arena, ir::BinOp::Mul, e.kid[0], inv);
}

/// Reciprocal substitution pays off when the reciprocal can be hoisted, so
/// the pass (like the real -freciprocal-math heuristics) only rewrites
/// divisions inside loop bodies.
void reciprocal_in_loops(Program& prog, std::span<const StmtId> body,
                         bool in_loop) {
  Arena& arena = prog.arena();
  const auto rewrite = [&arena](ExprId id) { return recip_rewrite(arena, id); };
  for (StmtId id : body) {
    const bool next_in_loop =
        in_loop || prog.stmt(id).kind == StmtKind::For;
    reciprocal_in_loops(prog, prog.body_of(prog.stmt(id)), next_in_loop);
    if (!in_loop) continue;
    Stmt& s = prog.stmt(id);
    if (s.a) s.a = rewrite_post(arena, s.a, rewrite);
    if (s.b) s.b = rewrite_post(arena, s.b, rewrite);
  }
}

}  // namespace

void reciprocal_division(ir::Program& prog) {
  reciprocal_in_loops(prog, prog.body(), /*in_loop=*/false);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

namespace {

std::size_t count_exprs_matching(const Arena& arena, ExprId root, ExprKind kind) {
  std::size_t n = 0;
  std::vector<ExprId> work{root};
  while (!work.empty()) {
    const Expr& e = arena[work.back()];
    work.pop_back();
    if (e.kind == kind) ++n;
    for (int i = 0; i < e.n_kids; ++i) work.push_back(e.kid[i]);
  }
  return n;
}

std::size_t count_stmts_matching(const Program& prog,
                                 std::span<const StmtId> body, ExprKind kind) {
  std::size_t n = 0;
  for (StmtId id : body) {
    const Stmt& s = prog.stmt(id);
    if (s.a) n += count_exprs_matching(prog.arena(), s.a, kind);
    if (s.b) n += count_exprs_matching(prog.arena(), s.b, kind);
    n += count_stmts_matching(prog, prog.body_of(s), kind);
  }
  return n;
}

}  // namespace

std::size_t count_fma_nodes(const ir::Program& prog) {
  return count_stmts_matching(prog, prog.body(), ExprKind::Fma);
}

}  // namespace gpudiff::opt
