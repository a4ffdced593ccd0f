#pragma once
// Double-double ("dd") building blocks: error-free transformations used by
// the accurate math-library paths (Dekker/Knuth/Møller algorithms).
//
// All arithmetic here relies on IEEE round-to-nearest; client builds compile
// the library with -ffp-contract=off so a*b+c never contracts implicitly —
// fused operations are always explicit std::fma calls.

#include <cmath>

namespace gpudiff::vmath::core {

struct DD {
  double hi = 0.0;
  double lo = 0.0;
};

/// Error-free sum when |a| >= |b| (Dekker's fast two-sum).
inline DD quick_two_sum(double a, double b) noexcept {
  const double s = a + b;
  const double e = b - (s - a);
  return {s, e};
}

/// Error-free sum, no magnitude precondition (Knuth/Møller two-sum).
inline DD two_sum(double a, double b) noexcept {
  const double s = a + b;
  const double v = s - a;
  const double e = (a - (s - v)) + (b - v);
  return {s, e};
}

/// Error-free product using hardware FMA.
inline DD two_prod(double a, double b) noexcept {
  const double p = a * b;
  const double e = std::fma(a, b, -p);
  return {p, e};
}

/// dd + double, normalized.
inline DD dd_add(DD a, double b) noexcept {
  DD s = two_sum(a.hi, b);
  s.lo += a.lo;
  return quick_two_sum(s.hi, s.lo);
}

/// dd + dd, normalized (accurate variant).
inline DD dd_add(DD a, DD b) noexcept {
  DD s = two_sum(a.hi, b.hi);
  DD t = two_sum(a.lo, b.lo);
  s.lo += t.hi;
  s = quick_two_sum(s.hi, s.lo);
  s.lo += t.lo;
  return quick_two_sum(s.hi, s.lo);
}

/// dd * double, normalized.
inline DD dd_mul(DD a, double b) noexcept {
  DD p = two_prod(a.hi, b);
  p.lo = std::fma(a.lo, b, p.lo);
  return quick_two_sum(p.hi, p.lo);
}

/// dd * dd, normalized.
inline DD dd_mul(DD a, DD b) noexcept {
  DD p = two_prod(a.hi, b.hi);
  p.lo += a.hi * b.lo + a.lo * b.hi;
  return quick_two_sum(p.hi, p.lo);
}

/// double / double to dd accuracy.
inline DD dd_div(double a, double b) noexcept {
  const double q1 = a / b;
  const double r = std::fma(-q1, b, a);
  const double q2 = r / b;
  return quick_two_sum(q1, q2);
}

}  // namespace gpudiff::vmath::core
