#pragma once
// A complete Varity-style test kernel: signature + body.
//
// Every generated test is a single kernel named `compute` whose first
// parameter `comp` doubles as the accumulator; the kernel prints comp with
// printf("%.17g\n", comp) at the end (paper §III-B).  Remaining parameters
// are integer loop bounds, floating scalars and floating arrays, named
// var_1, var_2, ... in declaration order as Varity does.
//
// The Program owns the node Arena; the body is a list of top-level StmtIds.
// Copying a Program copies the flat pools — no recursive clone — which is
// what makes per-level compilation (five levels x two toolchains per
// campaign program) cheap.

#include <string>
#include <vector>

#include "ir/arena.hpp"

namespace gpudiff::ir {

enum class ParamKind : std::uint8_t {
  Comp,    ///< the FP accumulator (always parameter 0)
  Int,     ///< integer loop bound
  Scalar,  ///< FP scalar
  Array,   ///< FP array (device buffer)
};

struct Param {
  ParamKind kind{};
  std::string name;  // "comp", "var_1", ...
};

/// Number of elements allocated for every array parameter, both in the
/// virtual GPU and in emitted CUDA/HIP `main()` code.  Loop bounds are
/// capped well below this by the input generator.
inline constexpr int kArrayExtent = 256;

class Program {
 public:
  Program() = default;
  Program(Precision precision, std::vector<Param> params, Arena arena,
          std::vector<StmtId> body)
      : precision_(precision),
        params_(std::move(params)),
        arena_(std::move(arena)),
        body_(std::move(body)) {}

  // Copies are flat pool copies (defaulted member-wise vector copies).
  Program(const Program&) = default;
  Program& operator=(const Program&) = default;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  /// A copy whose expression pool has room for `extra_exprs` more nodes:
  /// what the optimizer copies before its passes allocate into the pool.
  Program copy_with_headroom(std::size_t extra_exprs) const {
    return Program(precision_, params_, arena_.copy_with_headroom(extra_exprs),
                   body_);
  }

  Precision precision() const noexcept { return precision_; }
  void set_precision(Precision p) noexcept { precision_ = p; }

  const std::vector<Param>& params() const noexcept { return params_; }
  std::vector<Param>& params() noexcept { return params_; }

  const std::vector<StmtId>& body() const noexcept { return body_; }
  std::vector<StmtId>& body() noexcept { return body_; }

  const Arena& arena() const noexcept { return arena_; }
  Arena& arena() noexcept { return arena_; }

  // Handle sugar so call sites read naturally.
  const Expr& expr(ExprId id) const noexcept { return arena_[id]; }
  Expr& expr(ExprId id) noexcept { return arena_[id]; }
  const Stmt& stmt(StmtId id) const noexcept { return arena_[id]; }
  Stmt& stmt(StmtId id) noexcept { return arena_[id]; }
  std::span<const StmtId> body_of(const Stmt& s) const noexcept {
    return arena_.body(s);
  }

  /// Total *live* IR node count — nodes reachable from the body, not pool
  /// size (passes orphan rewritten nodes in the pool).  Used by size-based
  /// generation limits & stats.
  std::size_t node_count() const noexcept {
    return ir::node_count(arena_, body_);
  }

  /// Highest temporary id declared (or -1 if none).
  int max_temp_id() const noexcept;

  /// Rebuild the arena with only the nodes reachable from the body,
  /// dropping everything passes orphaned (rewrites never free pool slots —
  /// see arena.hpp).  Ids are remapped; any ExprId/StmtId held outside the
  /// Program is invalidated.  Nodes land in deterministic depth-first body
  /// order and shared subtrees are kept single, so after compacting a
  /// tree-shaped program, pool size == node_count().  Worth calling only
  /// on long-lived Programs after heavy pass rewriting; campaign compiles
  /// are transient and never bother.
  void compact();

  /// Scalar C type for the program's precision ("float"/"double").
  const char* scalar_type() const noexcept {
    return precision_ == Precision::FP32 ? "float" : "double";
  }

  /// Render the kernel body as C-like text (debug aid; emitters produce the
  /// full compilable files).
  std::string dump() const;

 private:
  Precision precision_ = Precision::FP64;
  std::vector<Param> params_;
  Arena arena_;
  std::vector<StmtId> body_;
};

/// Render one expression as C-like source (shared by Program::dump and the
/// CUDA/HIP emitters; literal spellings are preserved when present).
std::string expr_to_source(const Program& prog, ExprId e);

/// Render statements at the given indentation depth.
std::string body_to_source(const Program& prog, std::span<const StmtId> body,
                           int indent);

}  // namespace gpudiff::ir
