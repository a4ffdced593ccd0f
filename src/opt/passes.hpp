#pragma once
// Optimization passes of the virtual compilers.
//
// Each pass is a small IR-to-IR transformation modeling one numerics-
// relevant optimization the real toolchains perform.  Vendor pipelines
// differ in *which* passes run and in tie-breaking choices inside a pass —
// those differences, not randomness, are what produce cross-vendor
// divergence at O1+ (paper Tables V/VII/IX; Case Study 3).

#include "ir/program.hpp"

namespace gpudiff::opt {

/// Fold literal-only arithmetic subtrees (+,-,*,/,neg) in the program's
/// precision with IEEE round-to-nearest host semantics.  Both toolchains
/// fold identically, so the pass is cross-vendor neutral; it exists for
/// fidelity (and the Table I runtime effect of smaller kernels).
void fold_constants(ir::Program& prog);

/// FMA contraction tie-break when both operands of an addition are products.
enum class FmaPreference {
  LeftProduct,   // nvcc-sim: fma(a, b, c*d)
  RightProduct,  // hipcc-sim: fma(c, d, a*b)
};

/// Contract mul+add / mul-sub patterns into FMA nodes (default at O1+ on
/// both real toolchains).  `a*b + c` contracts identically everywhere; the
/// preference only decides `a*b + c*d`, where the two choices round
/// differently.
void contract_fma(ir::Program& prog, FmaPreference pref);

/// Predicate-multiply if-conversion (hipcc-sim O1+, DESIGN.md quirk #3):
///     if (cond) { comp += e; }   ==>   comp += (T)cond * e;
/// Value-preserving for finite e, but 0 * Inf = NaN when the branch is not
/// taken and e is infinite — reproducing Case Study 3's -inf vs -nan flip.
void if_convert(ir::Program& prog);

/// Reassociation shape applied to +/* chains under fast math.
enum class ReassocStyle {
  FlattenLeft,   // nvcc-sim: ((a+b)+c)+d
  BalancedTree,  // hipcc-sim: (a+b)+(c+d)
};

/// Reassociate floating add/mul chains of length >= `min_chain`
/// (fast-math only; forbidden by IEEE semantics otherwise).
void reassociate(ir::Program& prog, ReassocStyle style, int min_chain = 3);

/// Rewrite x / y into x * (1 / y) (hipcc-sim -freciprocal-math on FP64;
/// nvcc's fast math leaves FP64 division IEEE-correct).  Skips divisions by
/// literal powers of two, which are exact either way.
void reciprocal_division(ir::Program& prog);

/// Statistics helper used by benches/tests.
std::size_t count_fma_nodes(const ir::Program& prog);

}  // namespace gpudiff::opt
