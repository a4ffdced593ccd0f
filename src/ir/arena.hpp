#pragma once
// The IR node arena: Program-owned flat pools for expressions, statements,
// statement lists and literal spellings.
//
// Ownership / handle invariants:
//   * Every ExprId/StmtId is an index into exactly one Arena; ids are only
//     meaningful together with the arena (usually reached via the Program)
//     that allocated them.  Ids are never freed — rewrites orphan old nodes,
//     which die with the arena (bounded: one arena per compiled variant).
//   * add() never invalidates ids, but *does* invalidate node references
//     (vector growth).  Re-index after any allocation instead of holding a
//     `Expr&`/`Stmt&` across a make_* call; nodes are 48-byte structs, so
//     taking a by-value copy before rewriting is the idiomatic pattern.
//   * For/If bodies are contiguous StmtId spans in the list pool, written
//     once by set_body(); passes may overwrite list *entries* (same length)
//     or whole Stmt records in place, which is how if_convert rewrites an
//     `if` into an assignment without disturbing sibling statements.
//   * Literal spellings are interned append-only in a char pool; copying a
//     Program copies four flat vectors and never chases a pointer.

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "ir/stmt.hpp"

namespace gpudiff::ir {

class Arena {
 public:
  ExprId add(const Expr& e) {
    exprs_.push_back(e);
    return ExprId{static_cast<std::uint32_t>(exprs_.size() - 1)};
  }
  StmtId add(const Stmt& s) {
    stmts_.push_back(s);
    return StmtId{static_cast<std::uint32_t>(stmts_.size() - 1)};
  }

  const Expr& operator[](ExprId id) const noexcept { return exprs_[id.v]; }
  Expr& operator[](ExprId id) noexcept { return exprs_[id.v]; }
  const Stmt& operator[](StmtId id) const noexcept { return stmts_[id.v]; }
  Stmt& operator[](StmtId id) noexcept { return stmts_[id.v]; }

  /// Body statements of a For/If (empty for leaf statements).
  std::span<const StmtId> body(const Stmt& s) const noexcept {
    return {lists_.data() + s.body_off, s.body_len};
  }
  std::span<StmtId> body(Stmt& s) noexcept {
    return {lists_.data() + s.body_off, s.body_len};
  }

  /// Attach `ids` as the body of `s` (copied into the contiguous list
  /// pool).  `s` may be a local record not yet add()ed, or a node of this
  /// arena; only the list pool grows.
  void set_body(Stmt& s, std::span<const StmtId> ids) {
    s.body_off = static_cast<std::uint32_t>(lists_.size());
    s.body_len = static_cast<std::uint32_t>(ids.size());
    lists_.insert(lists_.end(), ids.begin(), ids.end());
  }

  /// Literal spelling of `e` (empty when none was recorded).
  std::string_view text(const Expr& e) const noexcept {
    return {text_.data() + e.text_off, e.text_len};
  }
  std::string_view text(ExprId id) const noexcept { return text(exprs_[id.v]); }
  void set_text(Expr& e, std::string_view t) {
    e.text_off = static_cast<std::uint32_t>(text_.size());
    e.text_len = static_cast<std::uint32_t>(t.size());
    text_.append(t);
  }

  std::size_t expr_count() const noexcept { return exprs_.size(); }
  std::size_t stmt_count() const noexcept { return stmts_.size(); }

  /// A copy whose expression pool has room for `extra_exprs` more nodes
  /// before it must grow (a plain copy's pools are exactly full).
  Arena copy_with_headroom(std::size_t extra_exprs) const {
    Arena out;
    out.exprs_.reserve(exprs_.size() + extra_exprs);
    out.exprs_.assign(exprs_.begin(), exprs_.end());
    out.stmts_ = stmts_;
    out.lists_ = lists_;
    out.text_ = text_;
    return out;
  }

  /// Pre-size the pools (generator hot path: one arena per program).
  void reserve(std::size_t exprs, std::size_t stmts, std::size_t text_bytes) {
    exprs_.reserve(exprs);
    stmts_.reserve(stmts);
    lists_.reserve(stmts);
    text_.reserve(text_bytes);
  }

 private:
  std::vector<Expr> exprs_;
  std::vector<Stmt> stmts_;
  std::vector<StmtId> lists_;
  std::string text_;
};

// --- expression constructors (free functions keep call sites terse) -------

inline ExprId make_literal(Arena& a, double value, std::string_view text = {}) {
  Expr e;
  e.kind = ExprKind::Literal;
  e.lit_value = value;
  if (!text.empty()) a.set_text(e, text);
  return a.add(e);
}

inline ExprId make_indexed(Arena& a, ExprKind kind, int index) {
  Expr e;
  e.kind = kind;
  e.index = index;
  return a.add(e);
}

inline ExprId make_param(Arena& a, int index) {
  return make_indexed(a, ExprKind::ParamRef, index);
}
inline ExprId make_int_param(Arena& a, int index) {
  return make_indexed(a, ExprKind::IntParamRef, index);
}
inline ExprId make_loop_var(Arena& a, int depth) {
  return make_indexed(a, ExprKind::LoopVarRef, depth);
}
inline ExprId make_temp(Arena& a, int id) {
  return make_indexed(a, ExprKind::TempRef, id);
}

inline ExprId make_array(Arena& a, int index, ExprId subscript) {
  Expr e;
  e.kind = ExprKind::ArrayRef;
  e.index = index;
  e.n_kids = 1;
  e.kid[0] = subscript;
  return a.add(e);
}

inline ExprId make_neg(Arena& a, ExprId x) {
  Expr e;
  e.kind = ExprKind::Neg;
  e.n_kids = 1;
  e.kid[0] = x;
  return a.add(e);
}

inline ExprId make_bin(Arena& a, BinOp op, ExprId x, ExprId y) {
  Expr e;
  e.kind = ExprKind::Bin;
  e.bin_op = op;
  e.n_kids = 2;
  e.kid[0] = x;
  e.kid[1] = y;
  return a.add(e);
}

inline ExprId make_fma(Arena& a, ExprId x, ExprId y, ExprId z) {
  Expr e;
  e.kind = ExprKind::Fma;
  e.n_kids = 3;
  e.kid[0] = x;
  e.kid[1] = y;
  e.kid[2] = z;
  return a.add(e);
}

inline ExprId make_call(Arena& a, MathFn fn, ExprId x) {
  Expr e;
  e.kind = ExprKind::Call;
  e.fn = fn;
  e.n_kids = 1;
  e.kid[0] = x;
  return a.add(e);
}

inline ExprId make_call(Arena& a, MathFn fn, ExprId x, ExprId y) {
  Expr e;
  e.kind = ExprKind::Call;
  e.fn = fn;
  e.n_kids = 2;
  e.kid[0] = x;
  e.kid[1] = y;
  return a.add(e);
}

inline ExprId make_cmp(Arena& a, CmpOp op, ExprId x, ExprId y) {
  Expr e;
  e.kind = ExprKind::Cmp;
  e.cmp_op = op;
  e.n_kids = 2;
  e.kid[0] = x;
  e.kid[1] = y;
  return a.add(e);
}

inline ExprId make_bool(Arena& a, BoolOp op, ExprId x, ExprId y) {
  Expr e;
  e.kind = ExprKind::BoolBin;
  e.bool_op = op;
  e.n_kids = 2;
  e.kid[0] = x;
  e.kid[1] = y;
  return a.add(e);
}

inline ExprId make_not(Arena& a, ExprId x) {
  Expr e;
  e.kind = ExprKind::BoolNot;
  e.n_kids = 1;
  e.kid[0] = x;
  return a.add(e);
}

inline ExprId make_bool_to_fp(Arena& a, ExprId cond) {
  Expr e;
  e.kind = ExprKind::BoolToFp;
  e.n_kids = 1;
  e.kid[0] = cond;
  return a.add(e);
}

// --- statement constructors ----------------------------------------------

inline StmtId make_decl_temp(Arena& a, int id, ExprId init) {
  Stmt s;
  s.kind = StmtKind::DeclTemp;
  s.index = id;
  s.a = init;
  return a.add(s);
}

inline StmtId make_assign_comp(Arena& a, AssignOp op, ExprId value) {
  Stmt s;
  s.kind = StmtKind::AssignComp;
  s.assign_op = op;
  s.a = value;
  return a.add(s);
}

inline StmtId make_store_array(Arena& a, int param_index, ExprId subscript,
                               ExprId value) {
  Stmt s;
  s.kind = StmtKind::StoreArray;
  s.index = param_index;
  s.a = subscript;
  s.b = value;
  return a.add(s);
}

inline StmtId make_for(Arena& a, int depth, int bound_param,
                       std::span<const StmtId> body) {
  Stmt s;
  s.kind = StmtKind::For;
  s.index = depth;
  s.bound_param = bound_param;
  a.set_body(s, body);
  return a.add(s);
}

inline StmtId make_if(Arena& a, ExprId cond, std::span<const StmtId> body) {
  Stmt s;
  s.kind = StmtKind::If;
  s.a = cond;
  a.set_body(s, body);
  return a.add(s);
}

// --- whole-subtree queries (iterative: generated trees are shallow, but
// hand-assembled IR may be arbitrarily deep and must not overflow the
// stack — the recursive clone()/destructor hazards of the pointer IR are
// exactly what the arena retired) ----------------------------------------

/// Total node count of the expression subtree rooted at `id`.
std::size_t node_count(const Arena& a, ExprId id) noexcept;
/// Total node count of the statement subtree (statements + expressions).
std::size_t node_count(const Arena& a, StmtId id) noexcept;
std::size_t node_count(const Arena& a, std::span<const StmtId> body) noexcept;

/// Structural equality of two expression subtrees, possibly in different
/// arenas (ignores literal spelling, compares values by bits).
bool equal(const Arena& a, ExprId x, const Arena& b, ExprId y) noexcept;

}  // namespace gpudiff::ir
