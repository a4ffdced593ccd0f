// Tests for the platform registry (opt/platform.hpp) and the N-way
// differential core it feeds: registry lookup and strict selection
// parsing, the scenario configurations' FP-environment effects, and the
// consistency of an N-way comparison with the pairwise runs it bundles.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "diff/runner.hpp"
#include "fp/bits.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "ir/builder.hpp"
#include "opt/platform.hpp"

namespace {

using namespace gpudiff;

// ---------------------------------------------------------------------------
// registry + parsing
// ---------------------------------------------------------------------------

TEST(PlatformRegistry, ShipsThePaperPairFirst) {
  const auto& registry = opt::platform_registry();
  ASSERT_GE(registry.size(), 4u);
  EXPECT_LE(registry.size(), opt::kMaxPlatforms);
  EXPECT_EQ(registry[0].name, "nvcc");
  EXPECT_EQ(registry[0].toolchain, opt::Toolchain::Nvcc);
  EXPECT_EQ(registry[1].name, "hipcc");
  EXPECT_EQ(registry[1].toolchain, opt::Toolchain::Hipcc);

  const auto defaults = opt::default_platforms();
  ASSERT_EQ(defaults.size(), 2u);
  EXPECT_EQ(defaults[0], registry[0]);
  EXPECT_EQ(defaults[1], registry[1]);
}

TEST(PlatformRegistry, FindAndNames) {
  ASSERT_NE(opt::find_platform("hipcc-ftz"), nullptr);
  EXPECT_TRUE(opt::find_platform("hipcc-ftz")->force_ftz32);
  ASSERT_NE(opt::find_platform("nvcc-fastmath"), nullptr);
  EXPECT_TRUE(opt::find_platform("nvcc-fastmath")->fast_math);
  EXPECT_EQ(opt::find_platform("gcc"), nullptr);

  const auto names = opt::platform_names(opt::platform_registry());
  EXPECT_EQ(names[0], "nvcc");
  EXPECT_EQ(names[1], "hipcc");
  // Registry names must never collide with the fixed record-JSON keys.
  for (const auto& name : names)
    for (const char* reserved :
         {"program", "input", "level", "class", "classes", "platforms"})
      EXPECT_NE(name, reserved);
}

TEST(PlatformRegistry, ParseListIsStrict) {
  const auto specs = opt::parse_platform_list("hipcc,nvcc,hipcc-ftz");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "hipcc") << "first entry is the baseline";
  EXPECT_EQ(specs[2].name, "hipcc-ftz");

  // Unknown, duplicate, empty-entry, too-few selections all throw with a
  // message naming the problem.
  EXPECT_THROW(opt::parse_platform_list("nvcc,rustc"), std::runtime_error);
  EXPECT_THROW(opt::parse_platform_list("nvcc,nvcc"), std::runtime_error);
  EXPECT_THROW(opt::parse_platform_list("nvcc,,hipcc"), std::runtime_error);
  EXPECT_THROW(opt::parse_platform_list("nvcc"), std::runtime_error);
  EXPECT_THROW(opt::parse_platform_list(""), std::runtime_error);
  try {
    opt::parse_platform_list("nvcc,bogus");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos)
        << "error must name the unknown entry: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// scenario configurations
// ---------------------------------------------------------------------------

TEST(PlatformCompile, HipccFtzFlushesSubnormalResults) {
  // comp = x * y with a subnormal product: plain hipcc keeps the FP32
  // denormal, hipcc-ftz flushes it to zero at every level including O0.
  ir::ProgramBuilder b(ir::Precision::FP32);
  ir::Arena& A = b.arena();
  const int x = b.add_scalar_param();
  const int y = b.add_scalar_param();
  b.assign_comp(ir::AssignOp::Add,
                ir::make_bin(A, ir::BinOp::Mul, ir::make_param(A, x),
                             ir::make_param(A, y)));
  const ir::Program p = b.build();
  vgpu::KernelArgs args;
  args.fp = {0.0, 1e-30, 1e-15};  // product 1e-45: subnormal in binary32
  args.ints = {0, 0, 0};

  for (const auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
    const auto plain =
        vgpu::run_kernel(opt::compile(p, *opt::find_platform("hipcc"), level), args);
    const auto ftz = vgpu::run_kernel(
        opt::compile(p, *opt::find_platform("hipcc-ftz"), level), args);
    EXPECT_NE(plain.value, 0.0) << opt::to_string(level);
    EXPECT_EQ(ftz.value, 0.0) << opt::to_string(level);
  }
}

TEST(PlatformCompile, DazReadsSubnormalInputsAsSignedZero) {
  // comp *= 0x1p24f with comp = +-0x1p-130f, an FP32 subnormal.  The exact
  // product +-0x1p-106f is normal, so flushing results (FTZ) alone keeps
  // it; only treating the subnormal input as signed zero (DAZ) gives +-0.
  // hipcc keeps FP32 denormals; hipcc-ftz is -fgpu-flush-denormals-to-zero
  // (DAZ too); nvcc's -use_fast_math sets .ftz, which on PTX flushes
  // subnormal inputs and results of FP32 instructions.
  ir::ProgramBuilder b(ir::Precision::FP32);
  ir::Arena& A = b.arena();
  b.assign_comp(ir::AssignOp::Mul, ir::make_literal(A, 0x1p24));
  const ir::Program p = b.build();

  const auto bits = [](float f) -> std::uint64_t { return fp::to_bits(f); };
  for (const float sign : {1.0f, -1.0f}) {
    vgpu::KernelArgs args;
    args.fp = {static_cast<double>(sign * 0x1p-130f)};
    args.ints = {0};
    const std::uint64_t normal = bits(sign * 0x1p-106f);
    const std::uint64_t zero = bits(sign * 0.0f);
    for (const auto level : opt::kAllOptLevels) {
      const std::pair<const char*, std::uint64_t> expected[] = {
          {"hipcc", normal},
          {"hipcc-ftz", zero},
          {"nvcc", level == opt::OptLevel::O3_FastMath ? zero : normal}};
      for (const auto& [name, want] : expected) {
        const opt::Executable exe =
            opt::compile(p, *opt::find_platform(name), level);
        EXPECT_EQ(vgpu::run_kernel(exe, args).value_bits, want)
            << name << " " << opt::to_string(level) << " sign " << sign;
        EXPECT_EQ(vgpu::run_kernel_tree(exe, args).value_bits, want)
            << name << " " << opt::to_string(level) << " sign " << sign
            << " (tree oracle)";
      }
    }
  }
}

// Probes after Khattak & Mikaitis: hand-built kernels whose bits follow
// from what each toolchain does, run through registry platforms on the
// bytecode VM and the tree-walk oracle alike.

/// comp's bits after `p` runs on `args` under `platform` at `level`, the
/// same on both backends.
std::uint64_t probe_bits(const ir::Program& p, const vgpu::KernelArgs& args,
                         const std::string& platform, opt::OptLevel level) {
  const opt::Executable exe =
      opt::compile(p, *opt::find_platform(platform), level);
  const std::uint64_t bits = vgpu::run_kernel(exe, args).value_bits;
  EXPECT_EQ(vgpu::run_kernel_tree(exe, args).value_bits, bits)
      << platform << " " << opt::to_string(level) << " (tree oracle)";
  return bits;
}

/// A kernel of `precision` whose scalar params are var_1..var_`n` and
/// whose body is comp = build(params).
template <typename Build>
ir::Program comp_kernel(ir::Precision precision, int n, Build build) {
  ir::ProgramBuilder b(precision);
  ir::Arena& A = b.arena();
  std::vector<ir::ExprId> params;
  for (int i = 0; i < n; ++i)
    params.push_back(ir::make_param(A, b.add_scalar_param()));
  b.assign_comp(ir::AssignOp::Set, build(A, params));
  return b.build();
}

// x*y = 1 - 2^-54 exactly, which rounds to 1: a fused product keeps the
// -2^-54 that rounding the product drops.
constexpr double kFmaX = 1 + 0x1p-27;
constexpr double kFmaY = 1 - 0x1p-27;

TEST(PlatformCompile, FmaContractionFusesALoneProductWhenOptimized) {
  // comp = a*b - c with c = fl(x*y) = 1: +0 unfused, -2^-54 fused.  Both
  // toolchains contract at every optimized level and never at O0.
  const ir::Program p =
      comp_kernel(ir::Precision::FP64, 3, [](ir::Arena& A, const auto& v) {
        return ir::make_bin(A, ir::BinOp::Sub,
                            ir::make_bin(A, ir::BinOp::Mul, v[0], v[1]), v[2]);
      });
  vgpu::KernelArgs args;
  args.fp = {0.0, kFmaX, kFmaY, kFmaX * kFmaY};
  args.ints.assign(4, 0);
  for (const opt::PlatformSpec& spec : opt::platform_registry())
    for (const auto level : opt::kAllOptLevels)
      EXPECT_EQ(probe_bits(p, args, spec.name, level),
                fp::to_bits(level == opt::OptLevel::O0 ? 0.0 : -0x1p-54))
          << spec.name << " " << opt::to_string(level);
}

TEST(PlatformCompile, FmaContractionOfTwoProductsFusesTheToolchainsSide) {
  // comp = a*b + c*d with (a, b, c, d) = (x, y, 1, -1): nvcc fuses the left
  // product, fma(x, y, -1) = -2^-54; hipcc the right one,
  // fma(1, -1, fl(x*y)) = +0.  Unfused at O0, both round x*y: +0.
  const ir::Program p =
      comp_kernel(ir::Precision::FP64, 4, [](ir::Arena& A, const auto& v) {
        return ir::make_bin(A, ir::BinOp::Add,
                            ir::make_bin(A, ir::BinOp::Mul, v[0], v[1]),
                            ir::make_bin(A, ir::BinOp::Mul, v[2], v[3]));
      });
  vgpu::KernelArgs args;
  args.fp = {0.0, kFmaX, kFmaY, 1.0, -1.0};
  args.ints.assign(5, 0);
  const double left = -0x1p-54;
  const std::tuple<const char*, opt::OptLevel, double> expected[] = {
      {"nvcc", opt::OptLevel::O0, 0.0},
      {"nvcc", opt::OptLevel::O1, left},
      {"nvcc-fastmath", opt::OptLevel::O1, left},
      {"hipcc", opt::OptLevel::O0, 0.0},
      {"hipcc", opt::OptLevel::O1, 0.0},
      {"hipcc-ftz", opt::OptLevel::O1, 0.0}};
  for (const auto& [name, level, want] : expected)
    EXPECT_EQ(probe_bits(p, args, name, level), fp::to_bits(want))
        << name << " " << opt::to_string(level);
}

TEST(PlatformCompile, FastDivisionFlushesQuotientsOfHugeDivisors) {
  // FP32 comp = x / y with x = 2^100, y = 1.5 * 2^126.  __fdividef returns
  // 0 for 2^126 < |y| < 2^128, so nvcc's fast-math division gives +0;
  // IEEE division and AMD's v_rcp-based approximation both give the
  // correctly rounded 0x1.555556p-27.
  const ir::Program p =
      comp_kernel(ir::Precision::FP32, 2, [](ir::Arena& A, const auto& v) {
        return ir::make_bin(A, ir::BinOp::Div, v[0], v[1]);
      });
  vgpu::KernelArgs args;
  args.fp = {0.0, 0x1p100, 0x1.8p126};
  args.ints.assign(3, 0);
  const float quotient = 0x1.555556p-27f;
  const std::tuple<const char*, opt::OptLevel, float> expected[] = {
      {"nvcc", opt::OptLevel::O1, quotient},
      {"nvcc", opt::OptLevel::O3_FastMath, 0.0f},
      {"nvcc-fastmath", opt::OptLevel::O1, 0.0f},
      {"nvcc-fastmath", opt::OptLevel::O3_FastMath, 0.0f},
      {"hipcc", opt::OptLevel::O1, quotient},
      {"hipcc", opt::OptLevel::O3_FastMath, quotient}};
  for (const auto& [name, level, want] : expected)
    EXPECT_EQ(probe_bits(p, args, name, level), fp::to_bits(want))
        << name << " " << opt::to_string(level);
}

TEST(PlatformCompile, NvccFastmathTakesTheFastPipelineWhenOptimized) {
  // nvcc-fastmath at O2 behaves like plain nvcc at O3_FastMath (FTZ32 on,
  // approximate FP32 division), while plain nvcc at O2 stays IEEE.
  ir::ProgramBuilder b(ir::Precision::FP32);
  ir::Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(ir::AssignOp::Add, ir::make_param(A, x));
  const ir::Program p = b.build();

  const auto fast_o2 =
      opt::compile(p, *opt::find_platform("nvcc-fastmath"), opt::OptLevel::O2);
  EXPECT_TRUE(fast_o2.env.ftz32);
  EXPECT_EQ(fast_o2.env.div32, fp::Div32Mode::NvApprox);
  const auto plain_o2 =
      opt::compile(p, *opt::find_platform("nvcc"), opt::OptLevel::O2);
  EXPECT_FALSE(plain_o2.env.ftz32);
  EXPECT_EQ(plain_o2.env.div32, fp::Div32Mode::IEEE);
  // O0 is exempt: fast_math only redirects optimized levels.
  const auto fast_o0 =
      opt::compile(p, *opt::find_platform("nvcc-fastmath"), opt::OptLevel::O0);
  EXPECT_FALSE(fast_o0.env.ftz32);
}

// ---------------------------------------------------------------------------
// N-way comparison consistency
// ---------------------------------------------------------------------------

TEST(NWayCompare, LanesMatchIndependentPairRuns) {
  // An N-way ComparisonResult must agree lane-for-lane with separate
  // {baseline, platform} pair runs: same bits, same pair class.
  const auto specs = opt::parse_platform_list("nvcc,hipcc,hipcc-ftz,nvcc-fastmath");
  gen::GenConfig cfg;
  cfg.precision = ir::Precision::FP32;
  gen::Generator g(cfg, 9);
  gen::InputGenerator ig(9);
  for (std::uint64_t pi = 0; pi < 10; ++pi) {
    const ir::Program p = g.generate(pi);
    std::vector<vgpu::KernelArgs> inputs;
    for (int ii = 0; ii < 4; ++ii) inputs.push_back(ig.generate(p, pi, ii));
    for (const auto level : opt::kAllOptLevels) {
      const diff::CompiledSet set = diff::compile_set(p, specs, level);
      const auto& cmps = diff::compare_batch(set, inputs);
      for (std::size_t ii = 0; ii < inputs.size(); ++ii) {
        const diff::ComparisonResult& nway = cmps[ii];
        ASSERT_EQ(nway.count, specs.size());
        EXPECT_EQ(nway.pair_cls[0], diff::DiscrepancyClass::None);
        diff::DiscrepancyClass first = diff::DiscrepancyClass::None;
        for (std::size_t pl = 1; pl < specs.size(); ++pl) {
          const std::vector<opt::PlatformSpec> pair_specs{specs[0], specs[pl]};
          const auto pair_cmp = diff::compare_run(
              diff::compile_set(p, pair_specs, level), inputs[ii]);
          EXPECT_EQ(nway.platforms[0].bits, pair_cmp.platforms[0].bits);
          EXPECT_EQ(nway.platforms[pl].bits, pair_cmp.platforms[1].bits);
          EXPECT_EQ(nway.pair_cls[pl], pair_cmp.cls);
          if (first == diff::DiscrepancyClass::None) first = pair_cmp.cls;
        }
        EXPECT_EQ(nway.cls, first) << "representative class";
      }
    }
  }
}

TEST(NWayCompare, CompileSetValidatesPlatformCount) {
  ir::ProgramBuilder b(ir::Precision::FP64);
  b.assign_comp(ir::AssignOp::Add, ir::make_literal(b.arena(), 1.0));
  const ir::Program p = b.build();
  EXPECT_THROW(diff::compile_set(p, {}, opt::OptLevel::O0),
               std::invalid_argument);
  std::vector<opt::PlatformSpec> too_many(
      opt::kMaxPlatforms + 1, opt::platform_registry()[0]);
  EXPECT_THROW(diff::compile_set(p, too_many, opt::OptLevel::O0),
               std::invalid_argument);
}

}  // namespace
