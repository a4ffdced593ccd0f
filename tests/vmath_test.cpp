// Tests for the math substrate: fixed-point constant derivation, argument
// reduction, shared kernels (accuracy vs host libm), exact generic ops, and
// the vendor libraries' documented agreement/divergence behaviours.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <initializer_list>

#include "fp/bits.hpp"
#include "fp/hexfloat.hpp"
#include "support/rng.hpp"
#include "vmath/core/bigfixed.hpp"
#include "vmath/core/dd.hpp"
#include "vmath/core/kernels.hpp"
#include "vmath/core/reduce.hpp"
#include "vmath/mathlib.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::vmath;
using core::PolyScheme;
using core::ReduceStyle;

double ulps(double a, double b) {
  return static_cast<double>(fp::ulp_distance(a, b));
}

// ---------------------------------------------------------------------------
// BigFixed: pi and 2/pi derived from scratch
// ---------------------------------------------------------------------------

TEST(BigFixed, PiMatchesKnownPrefix) {
  // pi = 3.243F6A8885A308D313198A2E03707344A4093822299F31D0... (hex)
  const auto pi = core::big_pi(8);
  EXPECT_EQ(pi.int_part, 3u);
  EXPECT_EQ(pi.limb(0), 0x243F6A88u);
  EXPECT_EQ(pi.limb(1), 0x85A308D3u);
  EXPECT_EQ(pi.limb(2), 0x13198A2Eu);
  EXPECT_EQ(pi.limb(3), 0x03707344u);
  EXPECT_EQ(pi.limb(4), 0xA4093822u);
}

TEST(BigFixed, TwoOverPiMatchesFdlibmTable) {
  // fdlibm's two_over_pi table begins A2F983 6E4E44 1529FC 2757D1 F534DD.
  EXPECT_EQ(core::two_over_pi_word(0), 0xA2F9836E4E441529ULL);
  EXPECT_EQ(core::two_over_pi_word(1), 0xFC2757D1F534DDC0ULL);
}

TEST(BigFixed, ArithmeticBasics) {
  core::BigFixed one(4);
  one.int_part = 1;
  core::BigFixed third(4);
  third.set_quotient(one, 3);
  EXPECT_EQ(third.int_part, 0u);
  EXPECT_EQ(third.limb(0), 0x55555555u);
  core::BigFixed two_thirds = third;
  two_thirds.add(third);
  EXPECT_EQ(two_thirds.limb(0), 0xAAAAAAAAu);
  two_thirds.sub(third);
  EXPECT_EQ(two_thirds.compare(third), 0);
  third.mul_small(3);
  EXPECT_EQ(third.int_part, 0u);  // 0.FFFF... stays below 1
  EXPECT_EQ(third.limb(0), 0xFFFFFFFFu);
}

TEST(BigFixed, ExtractAndSetBits) {
  core::BigFixed v(4);
  v.set_fraction_bit(0);   // 0.5
  v.set_fraction_bit(3);   // + 0.0625
  EXPECT_EQ(v.extract_bits(0, 4), 0b1001u);
  EXPECT_EQ(v.extract_bits(1, 3), 0b001u);
  EXPECT_TRUE(!v.is_zero());
}

TEST(Reduce, Pio2DoubleDouble) {
  double hi, lo;
  core::pio2_dd(&hi, &lo);
  EXPECT_EQ(hi, 1.5707963267948966);
  EXPECT_NEAR(lo, 6.123233995736766e-17, 1e-30);
}

/// FNV-1a over the bits of (x, hi, lo, quadrant) of rem_pio2 for seeded
/// arguments: 50 per binade from the Payne-Hanek bound (2^20 * pi/2, in
/// binade 2^20) to 2^1023, both signs, plus the end points.
std::uint64_t rem_pio2_digest(std::size_t* count) {
  constexpr double kPayneHanekMin = 1647099.0;  // reduce.cpp's bound
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  std::size_t n = 0;
  const auto add = [&](double x) {
    const core::Reduced r =
        core::rem_pio2(x, core::ReduceStyle::CodyWaite3);
    mix(fp::to_bits(x));
    mix(fp::to_bits(r.hi));
    mix(fp::to_bits(r.lo));
    mix(static_cast<std::uint64_t>(r.quadrant));
    ++n;
  };
  support::Rng rng(0x7E3A9D21u);
  for (std::uint64_t e = 20; e <= 1023; ++e) {
    for (int k = 0; k < 50; ++k) {
      double x;
      do {
        const std::uint64_t mant = rng.next() & ((std::uint64_t{1} << 52) - 1);
        x = fp::from_bits<double>(((e + 1023) << 52) | mant);
      } while (x < kPayneHanekMin);
      add(x);
      add(-x);
    }
  }
  for (const double x : {kPayneHanekMin, DBL_MAX}) {
    add(x);
    add(-x);
  }
  *count = n;
  return h;
}

TEST(Reduce, PayneHanekBitsLocked) {
  // The huge-argument reduction is exact, so its bits are a fixed function
  // of the argument; this digest was taken with the bit-at-a-time window
  // extraction that the two-word shift replaced.
  std::size_t count = 0;
  const std::uint64_t digest = rem_pio2_digest(&count);
  EXPECT_EQ(count, 100404u);
  EXPECT_EQ(digest, 0x9477c248ae246fc9ull);
}

// ---------------------------------------------------------------------------
// Trig: both reduction styles vs host libm (glibc does exact reduction)
// ---------------------------------------------------------------------------

struct TrigCase {
  double x;
};

class TrigAccuracy : public ::testing::TestWithParam<TrigCase> {};

TEST_P(TrigAccuracy, SinWithin2Ulp) {
  const double x = GetParam().x;
  EXPECT_LE(ulps(core::sin64(x, ReduceStyle::CodyWaite3), std::sin(x)), 2.0)
      << "x=" << x;
  EXPECT_LE(ulps(core::cos64(x, ReduceStyle::CodyWaite3), std::cos(x)), 2.0)
      << "x=" << x;
  EXPECT_LE(ulps(core::tan64(x, ReduceStyle::CodyWaite3), std::tan(x)), 4.0)
      << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TrigAccuracy,
    ::testing::Values(TrigCase{0.1}, TrigCase{-0.7}, TrigCase{1.0},
                      TrigCase{3.0}, TrigCase{-10.5}, TrigCase{355.0},
                      TrigCase{1e4}, TrigCase{123456.7}, TrigCase{1647098.0},
                      TrigCase{1647101.0}, TrigCase{1e10}, TrigCase{-1e22},
                      TrigCase{1e100}, TrigCase{8.7e305}, TrigCase{-1e308}));

TEST(Trig, RandomSweepBothStylesVsHost) {
  support::Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(-1e6, 1e6);
    ASSERT_LE(ulps(core::sin64(x, ReduceStyle::CodyWaite3), std::sin(x)), 2.0)
        << "x=" << fp::print_g17(x) << " (CW3)";
  }
}

TEST(Trig, Specials) {
  EXPECT_TRUE(fp::is_nan_bits(core::sin64(fp::infinity<double>(), ReduceStyle::CodyWaite3)));
  EXPECT_TRUE(fp::is_nan_bits(core::cos64(-fp::infinity<double>(), ReduceStyle::CodyWaite2)));
  EXPECT_TRUE(fp::is_nan_bits(core::tan64(std::nan(""), ReduceStyle::CodyWaite3)));
  EXPECT_EQ(core::sin64(0.0, ReduceStyle::CodyWaite3), 0.0);
  EXPECT_EQ(core::cos64(0.0, ReduceStyle::CodyWaite3), 1.0);
  // Odd symmetry.
  for (double x : {0.5, 100.0, 1e9, 1e300})
    EXPECT_EQ(core::sin64(-x, ReduceStyle::CodyWaite3),
              -core::sin64(x, ReduceStyle::CodyWaite3));
}

TEST(Trig, HugeArgsUsePayneHanekAndStylesAgree) {
  // Beyond the Cody-Waite bound both styles share the exact Payne-Hanek
  // reduction; only the kernel's fused/unfused last rounding can differ.
  for (double x : {2e6, 1e10, 1e100, 1e300}) {
    EXPECT_LE(fp::ulp_distance(core::sin64(x, ReduceStyle::CodyWaite2),
                               core::sin64(x, ReduceStyle::CodyWaite3)),
              1u)
        << "x=" << x;
  }
}

TEST(Trig, StylesDivergeNearMultiplesOfPi) {
  // Near-cancellation arguments expose the 2-constant reduction's error:
  // essentially every argument within ~1e-13 of a multiple of pi diverges.
  int diverged = 0;
  for (int k = 1000; k < 2000; ++k) {
    const double x = 3.141592653589793 * k;  // close to k*pi
    if (core::sin64(x, ReduceStyle::CodyWaite2) !=
        core::sin64(x, ReduceStyle::CodyWaite3))
      ++diverged;
  }
  EXPECT_GT(diverged, 900);
  // Away from the cancellation band the two paths differ only through the
  // fused-kernel last-ULP mechanism (~13% of arguments), never more.
  support::Rng rng(30);
  int random_diverged = 0;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(1.0, 1e6);
    const double a = core::sin64(x, ReduceStyle::CodyWaite2);
    const double b = core::sin64(x, ReduceStyle::CodyWaite3);
    if (a != b) {
      ++random_diverged;
      EXPECT_LE(fp::ulp_distance(a, b), 2u) << "x=" << fp::print_g17(x);
    }
  }
  EXPECT_LT(random_diverged, 2000 / 4);
}

// ---------------------------------------------------------------------------
// exp / log / atan / asin / acos / tanh / pow
// ---------------------------------------------------------------------------

TEST(ExpLog, AccuracyVsHost) {
  support::Rng rng(32);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(-700.0, 700.0);
    ASSERT_LE(ulps(core::exp64(x), std::exp(x)), 2.0) << "x=" << x;
  }
  for (int i = 0; i < 3000; ++i) {
    const double x = std::exp(rng.uniform(-700.0, 700.0));
    ASSERT_LE(ulps(core::log64(x), std::log(x)), 2.0) << "x=" << x;
  }
}

TEST(ExpLog, Specials) {
  EXPECT_EQ(core::exp64(0.0), 1.0);
  EXPECT_TRUE(fp::is_inf_bits(core::exp64(710.0)));
  EXPECT_EQ(core::exp64(-746.0), 0.0);
  EXPECT_EQ(core::exp64(fp::infinity<double>(true)), 0.0);
  EXPECT_TRUE(fp::is_inf_bits(core::exp64(fp::infinity<double>())));
  EXPECT_TRUE(fp::is_inf_bits(core::log64(0.0)));
  EXPECT_TRUE(fp::sign_bit(core::log64(0.0)));
  EXPECT_TRUE(fp::is_nan_bits(core::log64(-1.0)));
  EXPECT_EQ(core::log64(1.0), 0.0);
  // Subnormal input handled by scaling.
  EXPECT_LE(ulps(core::log64(1e-310), std::log(1e-310)), 2.0);
}

TEST(ExpLog, SchemesAgreeMostlyAndDifferOccasionally) {
  support::Rng rng(33);
  int diff_exp = 0, diff_log = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const double x = rng.uniform(-500.0, 500.0);
    if (core::exp64(x, PolyScheme::Horner) != core::exp64(x, PolyScheme::Estrin))
      ++diff_exp;
    // Sample log near 1, where the polynomial term is not swamped by k*ln2
    // and the association difference can reach the rounding.
    const double y = std::exp(rng.uniform(-0.5, 0.5));
    const double h = core::log64(y, PolyScheme::Horner);
    const double e = core::log64(y, PolyScheme::Estrin);
    if (h != e) ++diff_log;
    ASSERT_LE(ulps(h, e), 1.0);  // never more than the last ulp apart
  }
  // The association difference flips the final rounding often (both
  // implementations are ~1 ulp accurate, rounded differently) but never by
  // more than one ulp — the realistic cross-vendor libm relationship.
  EXPECT_GT(diff_exp, 0);
  EXPECT_GT(diff_log, 0);
  EXPECT_LT(diff_exp, kTrials);
  EXPECT_LT(diff_log, kTrials);
}

TEST(ArcTrig, AccuracyVsHost) {
  support::Rng rng(34);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    ASSERT_LE(ulps(core::atan64(x), std::atan(x)), 3.0) << "x=" << x;
  }
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    ASSERT_LE(ulps(core::asin64(x), std::asin(x)), 4.0) << "x=" << x;
    ASSERT_LE(ulps(core::acos64(x), std::acos(x)), 4.0) << "x=" << x;
  }
  EXPECT_LE(ulps(core::atan64(1e300), std::atan(1e300)), 2.0);
  EXPECT_TRUE(fp::is_nan_bits(core::asin64(1.5)));
  EXPECT_TRUE(fp::is_nan_bits(core::acos64(-1.0000001)));
  EXPECT_EQ(core::acos64(1.0), 0.0);
}

TEST(Tanh, AccuracyAndSaturation) {
  support::Rng rng(35);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-25.0, 25.0);
    ASSERT_LE(ulps(core::tanh64(x), std::tanh(x)), 8.0) << "x=" << x;
  }
  EXPECT_EQ(core::tanh64(1000.0), 1.0);
  EXPECT_EQ(core::tanh64(-1000.0), -1.0);
  EXPECT_EQ(core::tanh64(fp::infinity<double>()), 1.0);
}

TEST(Pow, IEEESpecialCases) {
  const double inf = fp::infinity<double>();
  const double nan = fp::quiet_nan<double>();
  EXPECT_EQ(core::pow64(5.0, 0.0), 1.0);
  EXPECT_EQ(core::pow64(nan, 0.0), 1.0);
  EXPECT_EQ(core::pow64(1.0, nan), 1.0);
  EXPECT_TRUE(fp::is_nan_bits(core::pow64(nan, 2.0)));
  EXPECT_TRUE(fp::is_nan_bits(core::pow64(-2.0, 0.5)));   // negative, non-int
  EXPECT_EQ(core::pow64(-2.0, 3.0), -8.0);                // odd integer
  EXPECT_EQ(core::pow64(-2.0, 2.0), 4.0);
  EXPECT_EQ(core::pow64(0.0, 3.0), 0.0);
  EXPECT_TRUE(fp::sign_bit(core::pow64(-0.0, 3.0)));
  EXPECT_TRUE(fp::is_inf_bits(core::pow64(0.0, -2.0)));
  EXPECT_EQ(core::pow64(0.5, inf), 0.0);
  EXPECT_TRUE(fp::is_inf_bits(core::pow64(0.5, -inf)));
  EXPECT_EQ(core::pow64(-1.0, inf), 1.0);
  EXPECT_EQ(core::pow64(-inf, -3.0), -0.0);
  EXPECT_TRUE(fp::is_inf_bits(core::pow64(2.0, 1e300)));
  EXPECT_EQ(core::pow64(2.0, -1e300), 0.0);
}

TEST(Pow, AccuracyVsHost) {
  support::Rng rng(36);
  for (int i = 0; i < 1000; ++i) {
    const double x = std::exp(rng.uniform(-20.0, 20.0));
    const double y = rng.uniform(-30.0, 30.0);
    const double mine = core::pow64(x, y);
    const double ref = std::pow(x, y);
    ASSERT_LE(std::fabs(mine - ref), 1e-11 * std::fabs(ref))
        << "x=" << x << " y=" << y;
  }
}

// ---------------------------------------------------------------------------
// Exact generic ops
// ---------------------------------------------------------------------------

TEST(FmodExact, MatchesHostEverywhere) {
  support::Rng rng(37);
  for (int i = 0; i < 5000; ++i) {
    const double x = fp::from_bits<double>(rng.next());
    const double y = fp::from_bits<double>(rng.next());
    if (fp::is_nan_bits(x) || fp::is_nan_bits(y)) continue;
    const double mine = core::fmod_exact(x, y);
    const double ref = std::fmod(x, y);
    if (fp::is_nan_bits(ref)) {
      EXPECT_TRUE(fp::is_nan_bits(mine)) << x << " " << y;
    } else {
      EXPECT_EQ(fp::to_bits(mine), fp::to_bits(ref)) << x << " " << y;
    }
  }
}

TEST(FmodExact, Float32MatchesHost) {
  support::Rng rng(38);
  for (int i = 0; i < 5000; ++i) {
    const float x = fp::from_bits<float>(static_cast<std::uint32_t>(rng.next()));
    const float y = fp::from_bits<float>(static_cast<std::uint32_t>(rng.next()));
    if (fp::is_nan_bits(x) || fp::is_nan_bits(y)) continue;
    const float mine = core::fmod_exact(x, y);
    const float ref = std::fmod(x, y);
    if (fp::is_nan_bits(ref)) {
      EXPECT_TRUE(fp::is_nan_bits(mine));
    } else {
      EXPECT_EQ(fp::to_bits(mine), fp::to_bits(ref)) << x << " " << y;
    }
  }
}

TEST(FmodExact, SubnormalOperands) {
  EXPECT_EQ(core::fmod_exact(1e-310, 3e-320), std::fmod(1e-310, 3e-320));
  EXPECT_EQ(core::fmod_exact(5e-324, 5e-324), 0.0);
  EXPECT_EQ(core::fmod_exact(1.0, 5e-324), std::fmod(1.0, 5e-324));
}

TEST(RoundingOps, MatchHostOnSweep) {
  support::Rng rng(39);
  for (int i = 0; i < 5000; ++i) {
    const double x = fp::from_bits<double>(rng.next());
    if (fp::is_nan_bits(x)) continue;
    EXPECT_EQ(fp::to_bits(core::ceil_exact(x)), fp::to_bits(std::ceil(x)));
    EXPECT_EQ(fp::to_bits(core::floor_exact(x)), fp::to_bits(std::floor(x)));
    EXPECT_EQ(fp::to_bits(core::trunc_exact(x)), fp::to_bits(std::trunc(x)));
  }
}

TEST(RoundingOps, SignedZeroAndTinies) {
  EXPECT_TRUE(fp::sign_bit(core::ceil_exact(-0.5)));  // ceil(-0.5) == -0.0
  EXPECT_EQ(core::ceil_exact(1e-310), 1.0);
  EXPECT_EQ(core::floor_exact(-1e-310), -1.0);
  EXPECT_EQ(core::trunc_exact(-1e-310), -0.0);
  EXPECT_TRUE(fp::sign_bit(core::trunc_exact(-1e-310)));
}

TEST(MinMax, IEEESemantics) {
  const double nan = fp::quiet_nan<double>();
  EXPECT_EQ(core::fmin_ieee(nan, 2.0), 2.0);
  EXPECT_EQ(core::fmin_ieee(2.0, nan), 2.0);
  EXPECT_TRUE(fp::is_nan_bits(core::fmin_ieee(nan, nan)));
  EXPECT_EQ(core::fmax_ieee(nan, 2.0), 2.0);
  EXPECT_TRUE(fp::sign_bit(core::fmin_ieee(0.0, -0.0)));
  EXPECT_FALSE(fp::sign_bit(core::fmax_ieee(0.0, -0.0)));
  EXPECT_EQ(core::fmin_ieee(1.0f, 2.0f), 1.0f);
}

TEST(ScaleByPow2, SubnormalRoundingIsSingle) {
  // 2^-1080 scaled into range and back.
  EXPECT_EQ(core::scale_by_pow2(1.5, -1074), std::ldexp(1.5, -1074));
  EXPECT_EQ(core::scale_by_pow2(1.0, -1100), 0.0);
  EXPECT_TRUE(fp::is_inf_bits(core::scale_by_pow2(1.0, 2000)));
  EXPECT_EQ(core::scale_by_pow2(0.75, 3), 6.0);
  support::Rng rng(40);
  for (int i = 0; i < 2000; ++i) {
    const double m = rng.uniform(1.0, 2.0);
    const int k = static_cast<int>(rng.range(-1100, 1100));
    EXPECT_EQ(core::scale_by_pow2(m, k), std::ldexp(m, k)) << m << " " << k;
  }
}

// ---------------------------------------------------------------------------
// Vendor libraries: documented agreement & divergence
// ---------------------------------------------------------------------------

TEST(VendorLibs, RegistryFindsAll) {
  const MathLib* libs[] = {&nv_libdevice(),    &nv_fast(),
                           &amd_ocml(),        &amd_ocml_native(),
                           &hip_cuda_compat(), &hip_cuda_compat_native()};
  for (const MathLib* lib : libs) {
    // Only the fast-math intrinsics price an FP32 call below a full call.
    const bool fast = lib == &nv_fast() || lib == &amd_ocml_native() ||
                      lib == &hip_cuda_compat_native();
    EXPECT_EQ(lib->fp32_call_cycles(), fast ? 6u : 24u) << lib->name();
  }
}

TEST(VendorLibs, SymbolNames) {
  using ir::MathFn;
  using ir::Precision;
  EXPECT_EQ(nv_libdevice().symbol(MathFn::Fmod, Precision::FP64), "__nv_fmod");
  EXPECT_EQ(nv_libdevice().symbol(MathFn::Cos, Precision::FP32), "__nv_cosf");
  EXPECT_EQ(amd_ocml().symbol(MathFn::Fmod, Precision::FP64), "__ocml_fmod_f64");
  EXPECT_EQ(nv_fast().symbol(MathFn::Sin, Precision::FP32), "__sinf");
  EXPECT_EQ(amd_ocml_native().symbol(MathFn::Cos, Precision::FP32),
            "__ocml_native_cos_f32");
  EXPECT_EQ(hip_cuda_compat().symbol(MathFn::Fmod, Precision::FP64),
            "__hip_cuda_fmod_f64");
  EXPECT_EQ(hip_cuda_compat().symbol(MathFn::Cos, Precision::FP64),
            "__ocml_cos_f64");
}

TEST(VendorLibs, CaseStudy1FmodDivergesOnExtremeGap) {
  using ir::MathFn;
  const double x = 1.5917195493481116e+289;
  const double y = 1.5793e-307;
  const double nv = nv_libdevice().call64(MathFn::Fmod, x, y);
  const double amd = amd_ocml().call64(MathFn::Fmod, x, y);
  // AMD side is the exact remainder (matches the paper's hipcc output).
  EXPECT_EQ(amd, 7.1923082856620736e-309);
  EXPECT_NE(fp::to_bits(nv), fp::to_bits(amd));
  // Ordinary gaps agree bit-for-bit.
  for (double xx : {10.3, 1e10, -3.7e5}) {
    for (double yy : {3.1, 0.007, 19.5}) {
      EXPECT_EQ(fp::to_bits(nv_libdevice().call64(MathFn::Fmod, xx, yy)),
                fp::to_bits(amd_ocml().call64(MathFn::Fmod, xx, yy)));
    }
  }
}

TEST(VendorLibs, CaseStudy2CeilQuirk) {
  using ir::MathFn;
  EXPECT_EQ(nv_libdevice().call64(MathFn::Ceil, 1.5955e-125), 0.0);
  EXPECT_EQ(amd_ocml().call64(MathFn::Ceil, 1.5955e-125), 1.0);
  EXPECT_EQ(nv_libdevice().call64(MathFn::Floor, -1e-200), -0.0);
  EXPECT_EQ(amd_ocml().call64(MathFn::Floor, -1e-200), -1.0);
  // Quirk only below 2^-126; ordinary values agree.
  EXPECT_EQ(nv_libdevice().call64(MathFn::Ceil, 1e-20), 1.0);
  EXPECT_EQ(nv_libdevice().call64(MathFn::Ceil, 2.7), 3.0);
  EXPECT_EQ(nv_libdevice().call64(MathFn::Floor, -2.7), -3.0);
}

TEST(VendorLibs, CoshOverflowBand) {
  using ir::MathFn;
  // NV overflows with exp at ~709.78; AMD stays finite until ~710.47.
  EXPECT_TRUE(fp::is_inf_bits(nv_libdevice().call64(MathFn::Cosh, 710.0)));
  EXPECT_TRUE(fp::is_finite_bits(amd_ocml().call64(MathFn::Cosh, 710.0)));
  EXPECT_TRUE(fp::is_inf_bits(amd_ocml().call64(MathFn::Cosh, 711.0)));
  // Common range agrees within the exp schemes' single-ulp envelope.
  for (double x : {0.5, 5.0, 100.0, 700.0})
    EXPECT_LE(fp::ulp_distance(nv_libdevice().call64(MathFn::Cosh, x),
                               amd_ocml().call64(MathFn::Cosh, x)),
              2u);
}

TEST(VendorLibs, SharedFunctionsAgreeBitForBit) {
  using ir::MathFn;
  support::Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-30.0, 30.0);
    for (MathFn fn : {MathFn::Sqrt, MathFn::Fabs, MathFn::Atan, MathFn::Trunc}) {
      EXPECT_EQ(fp::to_bits(nv_libdevice().call64(fn, std::fabs(x))),
                fp::to_bits(amd_ocml().call64(fn, std::fabs(x))));
    }
  }
}

TEST(VendorLibs, CompatFmodFlushesSubnormalResults) {
  using ir::MathFn;
  // Find a pair with a subnormal exact remainder.
  const double x = 1.0;
  const double y = 1.1e-308;
  const double exact = core::fmod_exact(x, y);
  ASSERT_TRUE(fp::is_subnormal_bits(exact))
      << "test premise: remainder must be subnormal, got " << exact;
  EXPECT_EQ(hip_cuda_compat().call64(MathFn::Fmod, x, y), 0.0);
  EXPECT_EQ(amd_ocml().call64(MathFn::Fmod, x, y), exact);
}

TEST(VendorLibs, CompatPowDriftsFromOcml) {
  using ir::MathFn;
  int diffs = 0;
  support::Rng rng(42);
  for (int i = 0; i < 300; ++i) {
    const double x = std::exp(rng.uniform(-10.0, 10.0));
    const double y = rng.uniform(-60.0, 60.0);
    if (hip_cuda_compat().call64(MathFn::Pow, x, y) !=
        amd_ocml().call64(MathFn::Pow, x, y))
      ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(FastLibs, ApproximationsAreClose) {
  using ir::MathFn;
  for (float x : {0.3f, 1.0f, 3.0f, 10.0f, 80.0f}) {
    const float nv = nv_fast().call32(MathFn::Sin, x);
    const float amd = amd_ocml_native().call32(MathFn::Sin, x);
    const float ref = static_cast<float>(std::sin(static_cast<double>(x)));
    EXPECT_NEAR(nv, ref, 2e-4f + 2e-5f * std::fabs(ref)) << x;
    EXPECT_NEAR(amd, ref, 2e-4f + 2e-5f * std::fabs(ref)) << x;
  }
  for (float x : {-5.0f, 0.5f, 4.0f, 30.0f}) {
    const float ref = static_cast<float>(std::exp(static_cast<double>(x)));
    EXPECT_NEAR(nv_fast().call32(MathFn::Exp, x), ref, 2e-5f * ref) << x;
    EXPECT_NEAR(amd_ocml_native().call32(MathFn::Exp, x), ref, 4e-5f * ref) << x;
  }
  for (float x : {0.1f, 0.9f, 2.0f, 1000.0f}) {
    const float ref = static_cast<float>(std::log(static_cast<double>(x)));
    EXPECT_NEAR(nv_fast().call32(MathFn::Log, x), ref, 3e-6f + 3e-6f * std::fabs(ref));
    EXPECT_NEAR(amd_ocml_native().call32(MathFn::Log, x), ref,
                3e-5f + 3e-5f * std::fabs(ref));
  }
}

TEST(FastLibs, VendorsDisagreeOnMostLiveArguments) {
  using ir::MathFn;
  support::Rng rng(43);
  int diffs = 0;
  const int kTrials = 500;
  for (int i = 0; i < kTrials; ++i) {
    const float x = static_cast<float>(rng.uniform(0.1, 50.0));
    if (nv_fast().call32(MathFn::Exp, x) !=
        amd_ocml_native().call32(MathFn::Exp, x))
      ++diffs;
  }
  EXPECT_GT(diffs, kTrials / 2);  // the FP32 fast-math explosion's engine
}

TEST(FastLibs, Fp64EntriesMatchDefaultLibraries) {
  using ir::MathFn;
  // Fast math only swaps FP32 entry points on both real toolchains.
  for (double x : {0.5, 3.0, 100.0, -7.5}) {
    EXPECT_EQ(fp::to_bits(nv_fast().call64(MathFn::Exp, x)),
              fp::to_bits(nv_libdevice().call64(MathFn::Exp, x)));
    EXPECT_EQ(fp::to_bits(amd_ocml_native().call64(MathFn::Cos, x)),
              fp::to_bits(amd_ocml().call64(MathFn::Cos, x)));
  }
}

TEST(Fp32Trig, NvFloatKernelVsAmdPromotion) {
  using ir::MathFn;
  support::Rng rng(44);
  int diffs = 0;
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.uniform(-100.0, 100.0));
    const float nv = nv_libdevice().call32(MathFn::Sin, x);
    const float amd = amd_ocml().call32(MathFn::Sin, x);
    const float ref = static_cast<float>(std::sin(static_cast<double>(x)));
    ASSERT_LE(fp::ulp_distance(nv, ref), 2u) << x;   // NV ~1-2 ulp
    ASSERT_LE(fp::ulp_distance(amd, ref), 1u) << x;  // AMD correctly rounded-ish
    if (nv != amd) ++diffs;
  }
  EXPECT_GT(diffs, 0);  // the FP32 O0 Num-vs-Num baseline
}

// ---------------------------------------------------------------------------
// fmod_exact: the chunked long division must match the textbook one-bit
// shift-subtract loop for every operand pair, most importantly the
// extreme-exponent-gap pairs the campaign's input classes produce.
// ---------------------------------------------------------------------------

template <typename T>
T fmod_bit_loop_reference(T x, T y) {
  using Tr = fp::FloatTraits<T>;
  using B = typename Tr::Bits;
  const B uy_abs = fp::to_bits(y) & ~Tr::sign_mask;
  const B sign = fp::to_bits(x) & Tr::sign_mask;
  B ux_abs = fp::to_bits(x) & ~Tr::sign_mask;
  if (uy_abs == 0 || ux_abs >= Tr::exponent_mask || uy_abs > Tr::exponent_mask)
    return fp::quiet_nan<T>();
  if (ux_abs < uy_abs) return x;
  if (ux_abs == uy_abs) return fp::copysign_bits(T(0), x);
  const auto decompose = [](B v, int& e) -> B {
    e = static_cast<int>(v >> Tr::mantissa_bits);
    B m = v & Tr::mantissa_mask;
    if (e == 0) {
      const int shift = Tr::mantissa_bits + 1 -
                        (std::numeric_limits<B>::digits - std::countl_zero(m));
      m <<= shift;
      e = 1 - shift;
    } else {
      m |= (B{1} << Tr::mantissa_bits);
    }
    return m;
  };
  int ex, ey;
  B mx = decompose(ux_abs, ex);
  const B my = decompose(uy_abs, ey);
  for (; ex > ey; --ex) {
    if (mx >= my) mx -= my;
    mx <<= 1;
  }
  if (mx >= my) mx -= my;
  if (mx == 0) return fp::copysign_bits(T(0), x);
  const int lead = std::numeric_limits<B>::digits - 1 - std::countl_zero(mx);
  const int shift = Tr::mantissa_bits - lead;
  mx <<= shift;
  ex -= shift;
  B out;
  if (ex > 0)
    out = (mx - (B{1} << Tr::mantissa_bits)) | (static_cast<B>(ex) << Tr::mantissa_bits);
  else
    out = mx >> (1 - ex);
  return fp::from_bits<T>(out | sign);
}

template <typename T>
void check_fmod_against_reference() {
  support::Rng rng(0xF40Du);
  using B = typename fp::FloatTraits<T>::Bits;
  for (int i = 0; i < 20000; ++i) {
    // Uniform over raw bit patterns: covers subnormals, huge/tiny exponent
    // gaps, zeros, infinities and NaNs.
    const T x = fp::from_bits<T>(static_cast<B>(rng.next()));
    const T y = fp::from_bits<T>(static_cast<B>(rng.next()));
    const T got = core::fmod_exact(x, y);
    const T ref = fmod_bit_loop_reference(x, y);
    ASSERT_EQ(fp::to_bits(got), fp::to_bits(ref))
        << fp::encode_bits(x) << " fmod " << fp::encode_bits(y);
  }
  // The paper's Case Study 1 pair (1980-bit gap) and directed extremes.
  const T cases[][2] = {
      {static_cast<T>(1.59e+289), static_cast<T>(1.58e-307)},
      {std::numeric_limits<T>::max(), std::numeric_limits<T>::denorm_min()},
      {static_cast<T>(-1.5402e-4), static_cast<T>(1.50107438058625021e-308)},
      {static_cast<T>(7.0), static_cast<T>(3.0)},
  };
  for (const auto& c : cases) {
    const T got = core::fmod_exact(c[0], c[1]);
    const T ref = fmod_bit_loop_reference(c[0], c[1]);
    ASSERT_EQ(fp::to_bits(got), fp::to_bits(ref))
        << fp::encode_bits(c[0]) << " fmod " << fp::encode_bits(c[1]);
  }
}

TEST(FmodExact, ChunkedDivisionMatchesBitLoopReference64) {
  check_fmod_against_reference<double>();
}

TEST(FmodExact, ChunkedDivisionMatchesBitLoopReference32) {
  check_fmod_against_reference<float>();
}

}  // namespace
