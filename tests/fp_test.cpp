// Unit tests for the IEEE-754 toolkit: bit helpers, classification,
// exact printing/parsing, exception flags, FTZ/DAZ environment.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fp/bits.hpp"
#include "fp/classify.hpp"
#include "fp/env.hpp"
#include "fp/exceptions.hpp"
#include "fp/hexfloat.hpp"
#include "fp/softfloat.hpp"
#include "support/rng.hpp"

namespace {

using namespace gpudiff::fp;

// ---------------------------------------------------------------------------
// bits
// ---------------------------------------------------------------------------

TEST(Bits, ClassPredicates64) {
  EXPECT_TRUE(is_nan_bits(std::nan("")));
  EXPECT_TRUE(is_inf_bits(infinity<double>()));
  EXPECT_TRUE(is_inf_bits(infinity<double>(true)));
  EXPECT_TRUE(is_zero_bits(0.0));
  EXPECT_TRUE(is_zero_bits(-0.0));
  EXPECT_TRUE(is_subnormal_bits(1e-310));
  EXPECT_FALSE(is_subnormal_bits(1e-300));
  EXPECT_TRUE(is_finite_bits(1.5));
  EXPECT_FALSE(is_finite_bits(infinity<double>()));
  EXPECT_FALSE(is_finite_bits(quiet_nan<double>()));
}

TEST(Bits, ClassPredicates32) {
  EXPECT_TRUE(is_nan_bits(quiet_nan<float>()));
  EXPECT_TRUE(is_inf_bits(infinity<float>()));
  EXPECT_TRUE(is_zero_bits(-0.0f));
  EXPECT_TRUE(is_subnormal_bits(1e-44f));
  EXPECT_FALSE(is_subnormal_bits(1e-37f));
}

TEST(Bits, SignHandling) {
  EXPECT_TRUE(sign_bit(-0.0));
  EXPECT_FALSE(sign_bit(0.0));
  EXPECT_TRUE(sign_bit(-std::nan("")));
  EXPECT_EQ(negate_bits(3.5), -3.5);
  EXPECT_EQ(to_bits(negate_bits(-0.0)), to_bits(0.0));
  EXPECT_EQ(copysign_bits(2.0, -1.0), -2.0);
  EXPECT_EQ(copysign_bits(-2.0, 1.0), 2.0);
  EXPECT_EQ(abs_bits(-7.0f), 7.0f);
}

TEST(Bits, Exponents) {
  EXPECT_EQ(unbiased_exponent(1.0), 0);
  EXPECT_EQ(unbiased_exponent(2.0), 1);
  EXPECT_EQ(unbiased_exponent(0.5), -1);
  EXPECT_EQ(unbiased_exponent(1.0f), 0);
  EXPECT_EQ(raw_exponent(0.0), 0);
  EXPECT_EQ(raw_exponent(1e-310), 0);  // subnormal
}

TEST(Bits, UlpDistance) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 0.0)), 1u);
  EXPECT_EQ(ulp_distance(0.0, -0.0), 1u);  // adjacent on the ordered line
  EXPECT_EQ(ulp_distance(quiet_nan<double>(), 1.0), ~0ULL);
  // Symmetry.
  EXPECT_EQ(ulp_distance(-1.5, 2.5), ulp_distance(2.5, -1.5));
}

TEST(Bits, NextUpDown) {
  EXPECT_GT(next_up(1.0), 1.0);
  EXPECT_LT(next_down(1.0), 1.0);
  EXPECT_EQ(next_up(next_down(1.0)), 1.0);
  // Crossing zero.
  EXPECT_GT(next_up(-0.0), 0.0);
  EXPECT_TRUE(is_subnormal_bits(next_up(0.0)));
  EXPECT_TRUE(sign_bit(next_down(0.0)));
}

struct NextUpCase {
  double value;
};

class NextUpMonotone : public ::testing::TestWithParam<NextUpCase> {};

TEST_P(NextUpMonotone, StrictlyIncreasing) {
  const double v = GetParam().value;
  const double up = next_up(v);
  EXPECT_GT(up, v);
  EXPECT_EQ(ulp_distance(v, up), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    SweepValues, NextUpMonotone,
    ::testing::Values(NextUpCase{1.0}, NextUpCase{-1.0}, NextUpCase{1e-310},
                      NextUpCase{-1e-310}, NextUpCase{1e308},
                      NextUpCase{-1e308}, NextUpCase{0.5}, NextUpCase{-2.5}));

// ---------------------------------------------------------------------------
// classify
// ---------------------------------------------------------------------------

TEST(Classify, FullTaxonomy) {
  EXPECT_EQ(classify(quiet_nan<double>()), FpClass::PosNaN);
  EXPECT_EQ(classify(quiet_nan<double>(true)), FpClass::NegNaN);
  EXPECT_EQ(classify(infinity<double>()), FpClass::PosInf);
  EXPECT_EQ(classify(-infinity<double>()), FpClass::NegInf);
  EXPECT_EQ(classify(0.0), FpClass::PosZero);
  EXPECT_EQ(classify(-0.0), FpClass::NegZero);
  EXPECT_EQ(classify(1e-310), FpClass::PosSubnormal);
  EXPECT_EQ(classify(-1e-310), FpClass::NegSubnormal);
  EXPECT_EQ(classify(3.0), FpClass::PosNormal);
  EXPECT_EQ(classify(-3.0), FpClass::NegNormal);
}

TEST(Classify, OutcomeBucketsSubnormalIsNumber) {
  EXPECT_EQ(outcome_of(1e-310).cls, OutcomeClass::Number);
  EXPECT_EQ(outcome_of(1e-310).negative, false);
  EXPECT_EQ(outcome_of(-5.0).cls, OutcomeClass::Number);
  EXPECT_TRUE(outcome_of(-5.0).negative);
  EXPECT_EQ(outcome_of(-0.0).cls, OutcomeClass::Zero);
  EXPECT_TRUE(outcome_of(-0.0).negative);
  EXPECT_EQ(outcome_of(infinity<float>()).cls, OutcomeClass::Inf);
  EXPECT_EQ(outcome_of(quiet_nan<float>(true)).cls, OutcomeClass::NaN);
}

TEST(Classify, ToStringSpellsSign) {
  EXPECT_EQ(to_string(Outcome{OutcomeClass::Inf, true}), "-Inf");
  EXPECT_EQ(to_string(Outcome{OutcomeClass::Number, false}), "+Num");
  EXPECT_EQ(to_string(FpClass::NegSubnormal), "-Subnormal");
}

// ---------------------------------------------------------------------------
// hexfloat: printing & parsing round-trips
// ---------------------------------------------------------------------------

TEST(Hexfloat, PrintG17MatchesPrintf) {
  const double values[] = {8.6551990944767196e-306, 1.0, -0.0, 0.1, 1e300};
  for (double v : values) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    EXPECT_EQ(print_g17(v), buf);
  }
}

TEST(Hexfloat, VarityStyleSpecials) {
  EXPECT_EQ(print_varity(0.0), "+0.0");
  EXPECT_EQ(print_varity(-0.0), "-0.0");
  EXPECT_EQ(print_varity(infinity<double>()), "+inf");
  EXPECT_EQ(print_varity(-infinity<double>()), "-inf");
  EXPECT_EQ(print_varity(quiet_nan<double>(true)), "-nan");
}

TEST(Hexfloat, ParsesVarityLiterals) {
  EXPECT_EQ(parse_double("+1.5955E-125").value(), 1.5955e-125);
  EXPECT_EQ(parse_double("-1.3857E-36").value(), -1.3857e-36);
  EXPECT_EQ(parse_double("+0.0").value(), 0.0);
  EXPECT_TRUE(sign_bit(parse_double("-0.0").value()));
  EXPECT_TRUE(is_inf_bits(parse_double("-inf").value()));
  EXPECT_TRUE(is_nan_bits(parse_double("nan").value()));
  EXPECT_FALSE(parse_double("1.2.3").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
}

TEST(Hexfloat, ParsesFloatSuffix) {
  EXPECT_EQ(parse_float("1.5F").value(), 1.5f);
  EXPECT_EQ(parse_float("+1.2345E10F").value(), 1.2345e10f);
  EXPECT_TRUE(is_inf_bits(parse_float("+inf").value()));
  EXPECT_FALSE(parse_float("").has_value());
}

TEST(Hexfloat, BitEncodingRoundTrip64) {
  gpudiff::support::Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    const double v = from_bits<double>(rng.next());
    const auto back = decode_bits64(encode_bits(v));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(to_bits(*back), to_bits(v));  // NaN payloads preserved
  }
}

TEST(Hexfloat, BitEncodingRoundTrip32) {
  gpudiff::support::Rng rng(2025);
  for (int i = 0; i < 2000; ++i) {
    const float v = from_bits<float>(static_cast<std::uint32_t>(rng.next()));
    const auto back = decode_bits32(encode_bits(v));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(to_bits(*back), to_bits(v));
  }
}

TEST(Hexfloat, BitDecodingRejectsMalformed) {
  EXPECT_FALSE(decode_bits64("64:123").has_value());
  EXPECT_FALSE(decode_bits64("32:0000000000000000").has_value());
  EXPECT_FALSE(decode_bits64("64:GGGGGGGGGGGGGGGG").has_value());
  EXPECT_FALSE(decode_bits32("64:00000000").has_value());
}

/// Property: %.17g printing round-trips every double exactly.
TEST(Hexfloat, PrintedG17RoundTripsRandomDoubles) {
  gpudiff::support::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    double v = from_bits<double>(rng.next());
    if (is_nan_bits(v)) continue;  // NaN payloads are not in %.17g's contract
    const auto back = parse_double(print_g17(v));
    ASSERT_TRUE(back.has_value()) << print_g17(v);
    EXPECT_EQ(to_bits(*back), to_bits(v)) << print_g17(v);
  }
}

// ---------------------------------------------------------------------------
// exceptions
// ---------------------------------------------------------------------------

TEST(Exceptions, FlagAccumulation) {
  ExceptionFlags flags;
  EXPECT_FALSE(flags.any());
  flags.raise(kInexact);
  EXPECT_TRUE(flags.inexact());
  EXPECT_FALSE(flags.any_serious());
  flags.raise(kOverflow | kInvalid);
  EXPECT_TRUE(flags.overflow());
  EXPECT_TRUE(flags.invalid());
  EXPECT_TRUE(flags.any_serious());
  flags.clear();
  EXPECT_FALSE(flags.any());
}

TEST(Exceptions, ToStringListsRaised) {
  ExceptionFlags flags;
  EXPECT_EQ(flags.to_string(), "none");
  flags.raise(kDivideByZero | kUnderflow);
  const std::string s = flags.to_string();
  EXPECT_NE(s.find("div-by-zero"), std::string::npos);
  EXPECT_NE(s.find("underflow"), std::string::npos);
  EXPECT_EQ(s.find("overflow"), std::string::npos);
}

TEST(Exceptions, InferArithmetic) {
  EXPECT_TRUE(infer_arith_exceptions(quiet_nan<double>(), true, true) & kInvalid);
  EXPECT_TRUE(infer_arith_exceptions(infinity<double>(), true, true) & kOverflow);
  EXPECT_TRUE(infer_arith_exceptions(1e-310, true, true) & kUnderflow);
  EXPECT_TRUE(infer_arith_exceptions(1.5, true, false) & kInexact);
  EXPECT_EQ(infer_arith_exceptions(1.5, true, true), 0);
}

// ---------------------------------------------------------------------------
// env (FTZ / DAZ)
// ---------------------------------------------------------------------------

TEST(Env, FtzFlushesSubnormalResults) {
  FpEnv env;
  env.ftz32 = true;
  ExceptionFlags flags;
  EXPECT_EQ(apply_ftz(1e-44f, env, &flags), 0.0f);
  EXPECT_TRUE(flags.underflow());
  EXPECT_TRUE(sign_bit(apply_ftz(-1e-44f, env)));
  EXPECT_EQ(apply_ftz(1e-30f, env), 1e-30f);  // normal untouched
  // FP64 unaffected by ftz32.
  EXPECT_EQ(apply_ftz(1e-310, env), 1e-310);
}

TEST(Env, DazZeroesSubnormalInputs) {
  FpEnv env;
  env.daz32 = true;
  EXPECT_EQ(apply_daz(1e-44f, env), 0.0f);
  EXPECT_TRUE(sign_bit(apply_daz(-1e-44f, env)));
  EXPECT_EQ(apply_daz(1e-44, env), 1e-44);  // FP64 keeps its subnormals
}

TEST(Env, DefaultEnvIsTransparent) {
  FpEnv env;
  EXPECT_EQ(apply_ftz(1e-44f, env), 1e-44f);
  EXPECT_EQ(apply_daz(1e-310, env), 1e-310);
  EXPECT_EQ(env.div32, Div32Mode::IEEE);
  EXPECT_FALSE(env.naive_minmax);
}

// ---------------------------------------------------------------------------
// softfloat: the assist-free integer mul/div must match the host FPU
// bit-for-bit on every finite operand pair — the hardware is the oracle.
// ---------------------------------------------------------------------------

template <typename T>
void check_softfloat_against_hardware() {
  using B = typename FloatTraits<T>::Bits;
  gpudiff::support::Rng rng(0x50F7u);
  // Operand generators biased toward the assist-prone classes: subnormals,
  // near-underflow and near-overflow magnitudes, plus uniform bit noise.
  const auto gen = [&]() -> T {
    const auto cls = rng.next() % 4;
    B bits = static_cast<B>(rng.next());
    constexpr int m = FloatTraits<T>::mantissa_bits;
    constexpr int ebits = FloatTraits<T>::exponent_bits;
    const B sign = bits & FloatTraits<T>::sign_mask;
    if (cls == 0) {  // subnormal
      bits = sign | (bits & FloatTraits<T>::mantissa_mask);
    } else if (cls == 1) {  // tiny normal exponent
      const B e = static_cast<B>(1 + rng.next() % 40);
      bits = sign | (e << m) | (bits & FloatTraits<T>::mantissa_mask);
    } else if (cls == 2) {  // huge exponent
      const B e = static_cast<B>(((B{1} << ebits) - 2) - rng.next() % 40);
      bits = sign | (e << m) | (bits & FloatTraits<T>::mantissa_mask);
    }
    return from_bits<T>(bits);
  };
  int checked = 0;
  for (int i = 0; i < 200000; ++i) {
    const T a = gen();
    const T b = gen();
    if (is_nan_bits(a) || is_nan_bits(b) || is_inf_bits(a) || is_inf_bits(b))
      continue;
    const T hw_mul = a * b;
    ASSERT_EQ(to_bits(soft_mul(a, b)), to_bits(hw_mul))
        << encode_bits(a) << " * " << encode_bits(b);
    if (!is_zero_bits(a) && !is_zero_bits(b)) {
      const T hw_div = a / b;
      ASSERT_EQ(to_bits(soft_div(a, b)), to_bits(hw_div))
          << encode_bits(a) << " / " << encode_bits(b);
    }
    ++checked;
  }
  ASSERT_GT(checked, 100000);
}

TEST(SoftFloat, MulDivMatchHardware64) { check_softfloat_against_hardware<double>(); }
TEST(SoftFloat, MulDivMatchHardware32) { check_softfloat_against_hardware<float>(); }

TEST(SoftFloat, DirectedEdgeCases64) {
  const double cases[][2] = {
      {0x1p-1074, 0x1p-1074},    // min subnormal squared -> 0
      {0x1.8p-1074, 1.0},        // halfway-odd: RNE up
      {0x1p-1022, 0.5},          // min normal down into subnormal
      {0x1.fffffffffffffp+1023, 0x1p-1074},  // extreme magnitudes
      {0x1p-537, 0x1p-537},      // product exactly min subnormal scale
      {-0x1p-1070, 0x1p+3},
      {5.0, 3.0},                // plain normals (exactness of the path)
  };
  for (const auto& c : cases) {
    EXPECT_EQ(to_bits(soft_mul(c[0], c[1])), to_bits(c[0] * c[1]))
        << c[0] << " * " << c[1];
    EXPECT_EQ(to_bits(soft_div(c[0], c[1])), to_bits(c[0] / c[1]))
        << c[0] << " / " << c[1];
    EXPECT_EQ(to_bits(soft_div(c[1], c[0])), to_bits(c[1] / c[0]))
        << c[1] << " / " << c[0];
  }
  // Overflow to infinity through division by a subnormal.
  EXPECT_EQ(to_bits(soft_div(0x1p+1000, 0x1p-1074)),
            to_bits(std::numeric_limits<double>::infinity()));
}

// ---------------------------------------------------------------------------
// soft_fma / conversions / exactness probes: the remaining assist sites.
// Same contract: the hardware operation is the oracle, bit-for-bit.
// ---------------------------------------------------------------------------

template <typename T>
void check_soft_fma_against_hardware() {
  using B = typename FloatTraits<T>::Bits;
  gpudiff::support::Rng rng(0xF3A5u);
  const auto gen = [&]() -> T {
    const auto cls = rng.next() % 5;
    B bits = static_cast<B>(rng.next());
    constexpr int m = FloatTraits<T>::mantissa_bits;
    constexpr int ebits = FloatTraits<T>::exponent_bits;
    const B sign = bits & FloatTraits<T>::sign_mask;
    if (cls == 0) {  // subnormal
      bits = sign | (bits & FloatTraits<T>::mantissa_mask);
    } else if (cls == 1) {  // tiny normal exponent
      const B e = static_cast<B>(1 + rng.next() % 40);
      bits = sign | (e << m) | (bits & FloatTraits<T>::mantissa_mask);
    } else if (cls == 2) {  // huge exponent
      const B e = static_cast<B>(((B{1} << ebits) - 2) - rng.next() % 40);
      bits = sign | (e << m) | (bits & FloatTraits<T>::mantissa_mask);
    } else if (cls == 3) {  // mid-range (cancellation fodder)
      const B e = static_cast<B>(FloatTraits<T>::exponent_bias - 2 +
                                 rng.next() % 5);
      bits = sign | (e << m) | (bits & FloatTraits<T>::mantissa_mask);
    }
    return from_bits<T>(bits);
  };
  int checked = 0;
  for (int i = 0; i < 200000; ++i) {
    const T a = gen();
    const T b = gen();
    T c = gen();
    if (rng.next() % 4 == 0) {
      // Directed near-cancellation: c ~ -(a*b) so the fused low bits
      // survive, the hardest rounding case for a fused implementation.
      c = -(a * b);
    }
    if (is_nan_bits(a) || is_nan_bits(b) || is_nan_bits(c) || is_inf_bits(a) ||
        is_inf_bits(b) || is_inf_bits(c))
      continue;
    const T hw = std::fma(a, b, c);
    ASSERT_EQ(to_bits(soft_fma(a, b, c)), to_bits(hw))
        << encode_bits(a) << " * " << encode_bits(b) << " + " << encode_bits(c);
    ++checked;
  }
  ASSERT_GT(checked, 100000);
}

TEST(SoftFloat, FmaMatchesHardware64) { check_soft_fma_against_hardware<double>(); }
TEST(SoftFloat, FmaMatchesHardware32) { check_soft_fma_against_hardware<float>(); }

TEST(SoftFloat, FmaDirectedEdgeCases64) {
  const double cases[][3] = {
      {1.0 + 0x1p-52, 1.0 - 0x1p-52, -1.0},       // fused -2^-104 survives
      {1.0 + 0x1p-52, 1.0 + 0x1p-52, -1.0},       // cancellation, low bits up
      {0x1p-537, 0x1p-537, 0x1p-1074},            // subnormal product + ulp
      {0x1p-537, 0x1p-537, -0x1p-1074},           // ... and cancelled
      {0x1p-1074, 0x1p-1074, 0.0},                // product underflows to 0
      {0x1p-1074, 0x1p-1074, -0.0},               // signed-zero addend
      {0.0, 5.0, -0.0},                           // 0*x + -0 = +0 (RNE)
      {-0.0, 5.0, 0.0},                           // -0*x + 0 = +0 (RNE)
      {-0.0, 5.0, -0.0},                          // both negative: -0
      {0x1.fffffffffffffp+1023, 2.0, -0x1.fffffffffffffp+1023},  // huge
      {0x1p+1000, 0x1p+100, -0x1p-1000},          // far-apart magnitudes
      {0x1p-1000, 0x1p-100, 0x1p+1000},           // addend dominates
      {3.0, 7.0, 1e-300},                         // sticky below plain product
  };
  for (const auto& c : cases) {
    EXPECT_EQ(to_bits(soft_fma(c[0], c[1], c[2])),
              to_bits(std::fma(c[0], c[1], c[2])))
        << encode_bits(c[0]) << " * " << encode_bits(c[1]) << " + "
        << encode_bits(c[2]);
  }
}

TEST(SoftFloat, PromoteDemoteMatchCasts) {
  gpudiff::support::Rng rng(0xCA57u);
  for (int i = 0; i < 200000; ++i) {
    // Demote: bias toward the narrow band that lands subnormal in float.
    const std::uint64_t bits = rng.next();
    double d = from_bits<double>(bits);
    if (rng.next() % 2) {
      const int e = 1023 - 120 - static_cast<int>(rng.next() % 40);
      d = from_bits<double>((bits & 0x800FFFFFFFFFFFFFull) |
                            (static_cast<std::uint64_t>(e) << 52));
    }
    if (!is_nan_bits(d) && !is_inf_bits(d)) {
      EXPECT_EQ(to_bits(soft_demote(d)), to_bits(static_cast<float>(d)))
          << encode_bits(d);
    }
    const float f = from_bits<float>(static_cast<std::uint32_t>(rng.next()));
    if (!is_nan_bits(f) && !is_inf_bits(f)) {
      EXPECT_EQ(to_bits(soft_promote(f)), to_bits(static_cast<double>(f)))
          << encode_bits(f);
    }
  }
}

TEST(SoftFloat, ExactnessProbesMatchErrorFreeTransformations) {
  // The std::fma error-free probe is only a trustworthy oracle away from
  // the underflow boundary: when the rounding residual falls below
  // 2^-1074 the fused probe itself flushes it to zero and falsely reports
  // "exact" (the integer probes get those hairline cases right — pinned
  // by the directed checks below).
  gpudiff::support::Rng rng(0xE4AC7u);
  // The fused probe's residual is a multiple of 2^(ulp-exponent sum of its
  // product operands); the probe is an oracle only when that frame is at
  // or above the smallest subnormal.
  const auto frame_ok = [](double x, double y) {
    return (std::ilogb(x) - 52) + (std::ilogb(y) - 52) >= -1074;
  };
  int checked = 0;
  for (int i = 0; i < 200000; ++i) {
    const double a = from_bits<double>(rng.next());
    const double b = from_bits<double>(rng.next());
    if (is_nan_bits(a) || is_nan_bits(b) || is_inf_bits(a) || is_inf_bits(b) ||
        is_zero_bits(a) || is_zero_bits(b))
      continue;
    const double r = a * b;
    if (is_finite_bits(r) && frame_ok(a, b)) {
      EXPECT_EQ(mul_rounds_inexact(a, b), std::fma(a, b, -r) != 0.0)
          << encode_bits(a) << " * " << encode_bits(b);
      ++checked;
    }
    const double q = a / b;
    if (is_finite_bits(q) && !is_zero_bits(q) && frame_ok(q, b)) {
      EXPECT_EQ(div_rounds_inexact(a, b), std::fma(q, b, -a) != 0.0)
          << encode_bits(a) << " / " << encode_bits(b);
    }
  }
  EXPECT_GT(checked, 50000);
  // Directed: exact cases must not report inexact.
  EXPECT_FALSE(mul_rounds_inexact(1.5, 2.0));
  EXPECT_FALSE(mul_rounds_inexact(0x1p-537, 0x1p-537));  // exact subnormal
  // Exactly representable at the subnormal ulp (2^-1022 + 2^-1074).
  EXPECT_FALSE(mul_rounds_inexact(1.0 + 0x1p-52, 0x1p-1022));
  EXPECT_FALSE(div_rounds_inexact(6.0, 3.0));
  // Hairline inexactness the fused probe cannot see:
  // 2^-1023 + 2^-1075 has a dropped half-ulp below the subnormal grid.
  EXPECT_TRUE(mul_rounds_inexact(1.0 + 0x1p-52, 0x1p-1023));
  // 2^-537 * 2^-538 = 2^-1075: rounds to zero on the subnormal grid.
  EXPECT_TRUE(mul_rounds_inexact(0x1p-537, 0x1p-538));
  // 2^-1074 / 2 is below the subnormal ulp and rounds (to zero): inexact.
  EXPECT_TRUE(div_rounds_inexact(0x1p-1074, 2.0));
  EXPECT_TRUE(div_rounds_inexact(1.0, 3.0));
}

}  // namespace
