// Tests for the differential-testing core: pair classification, the
// runner, campaign statistics, metadata protocol, report rendering.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "campaign/checkpoint.hpp"
#include "diff/campaign.hpp"
#include "diff/metadata.hpp"
#include "diff/report.hpp"
#include "diff/runner.hpp"
#include "fp/bits.hpp"
#include "ir/builder.hpp"

namespace {

using namespace gpudiff;
using namespace gpudiff::diff;
using fp::Outcome;
using fp::OutcomeClass;

std::uint64_t bits_of(double v) { return fp::to_bits(v); }

// ---------------------------------------------------------------------------
// classify_pair: the full 4x4 outcome matrix
// ---------------------------------------------------------------------------

struct PairCase {
  const char* name;
  double a, b;
  DiscrepancyClass expected;
};

class ClassifyPair : public ::testing::TestWithParam<PairCase> {};

TEST_P(ClassifyPair, Classifies) {
  const auto& c = GetParam();
  const auto cls = classify_pair(fp::outcome_of(c.a), bits_of(c.a),
                                 fp::outcome_of(c.b), bits_of(c.b));
  EXPECT_EQ(cls, c.expected) << c.name;
  // Classification is symmetric.
  EXPECT_EQ(classify_pair(fp::outcome_of(c.b), bits_of(c.b),
                          fp::outcome_of(c.a), bits_of(c.a)),
            c.expected);
}

const double kQNaN = std::numeric_limits<double>::quiet_NaN();
const double kPInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Matrix, ClassifyPair,
    ::testing::Values(
        PairCase{"nan vs inf", kQNaN, kPInf, DiscrepancyClass::NaN_Inf},
        PairCase{"nan vs neg inf", kQNaN, -kPInf, DiscrepancyClass::NaN_Inf},
        PairCase{"nan vs zero", kQNaN, 0.0, DiscrepancyClass::NaN_Zero},
        PairCase{"nan vs num", kQNaN, 3.5, DiscrepancyClass::NaN_Num},
        PairCase{"inf vs zero", kPInf, -0.0, DiscrepancyClass::Inf_Zero},
        PairCase{"inf vs num", -kPInf, 2.0, DiscrepancyClass::Inf_Num},
        PairCase{"num vs zero", 5.0, 0.0, DiscrepancyClass::Num_Zero},
        PairCase{"num vs num", 1.0, 1.0000000000000002, DiscrepancyClass::Num_Num},
        PairCase{"subnormal vs zero", 1e-310, 0.0, DiscrepancyClass::Num_Zero},
        PairCase{"same num", 2.5, 2.5, DiscrepancyClass::None},
        PairCase{"sign of zero excluded", 0.0, -0.0, DiscrepancyClass::None},
        PairCase{"sign of inf excluded", kPInf, -kPInf, DiscrepancyClass::None},
        PairCase{"sign of nan excluded", kQNaN, -kQNaN, DiscrepancyClass::None},
        PairCase{"pos vs neg num", 1.5, -1.5, DiscrepancyClass::Num_Num}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (auto& ch : n)
        if (ch == ' ') ch = '_';
      return n;
    });

TEST(ClassifyPair, NaNPayloadsAreNotDifferences) {
  const double qnan1 = fp::quiet_nan<double>();
  const double qnan2 = fp::from_bits<double>(fp::to_bits(qnan1) | 1);
  EXPECT_EQ(classify_pair(fp::outcome_of(qnan1), bits_of(qnan1),
                          fp::outcome_of(qnan2), bits_of(qnan2)),
            DiscrepancyClass::None);
}

TEST(ClassifyPair, IndexRoundTrip) {
  for (int i = 0; i < kDiscrepancyClassCount; ++i)
    EXPECT_EQ(class_index(class_from_index(i)), i);
}

// ---------------------------------------------------------------------------
// runner
// ---------------------------------------------------------------------------

TEST(Runner, CeilCaseStudyDivergesAtO0) {
  // Paper Fig. 5 in miniature: comp += tmp_1 / ceil(1.5955E-125).
  ir::ProgramBuilder b(ir::Precision::FP64);
  ir::Arena& A = b.arena();
  const int t = b.decl_temp(ir::make_literal(A, 1.1147e-307, "+1.1147E-307"));
  b.assign_comp(ir::AssignOp::Add,
                ir::make_bin(A, ir::BinOp::Div, ir::make_temp(A, t),
                             ir::make_call(A, ir::MathFn::Ceil,
                                           ir::make_literal(A, 1.5955e-125,
                                                            "+1.5955E-125"))));
  const ir::Program p = b.build();
  vgpu::KernelArgs args;
  args.fp = {1.2374e-306};
  args.ints = {0};
  const auto cmp = run_differential(p, args, opt::OptLevel::O0);
  EXPECT_EQ(cmp.cls, DiscrepancyClass::Inf_Num);
  EXPECT_EQ(cmp.platforms[0].printed(), "inf");
  EXPECT_EQ(cmp.platforms[1].outcome.cls, OutcomeClass::Number);
}

TEST(Runner, IdenticalProgramsAgreeOnBenignInputs) {
  ir::ProgramBuilder b(ir::Precision::FP64);
  ir::Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(ir::AssignOp::Add,
                ir::make_bin(A, ir::BinOp::Mul, ir::make_param(A, x), ir::make_param(A, x)));
  const ir::Program p = b.build();
  vgpu::KernelArgs args;
  args.fp = {1.0, 3.0};
  args.ints = {0, 0};
  for (auto level : opt::kAllOptLevels) {
    const auto cmp = run_differential(p, args, level);
    EXPECT_FALSE(cmp.discrepant()) << opt::to_string(level);
    EXPECT_EQ(cmp.platforms[0].printed(), "10");
  }
}

TEST(Runner, CompiledSetReusableAcrossInputs) {
  ir::ProgramBuilder b(ir::Precision::FP64);
  ir::Arena& A = b.arena();
  const int x = b.add_scalar_param();
  b.assign_comp(ir::AssignOp::Add, ir::make_param(A, x));
  const ir::Program p = b.build();
  const CompiledSet set = compile_pair(p, opt::OptLevel::O2);
  for (double v : {1.0, -2.5, 1e300}) {
    vgpu::KernelArgs args;
    args.fp = {0.0, v};
    args.ints = {0, 0};
    const auto cmp = compare_run(set, args);
    EXPECT_FALSE(cmp.discrepant());
  }
}

// ---------------------------------------------------------------------------
// campaign
// ---------------------------------------------------------------------------

CampaignConfig small_config(int programs = 60) {
  CampaignConfig c;
  c.num_programs = programs;
  c.inputs_per_program = 5;
  c.seed = 1234;
  return c;
}

TEST(Campaign, AccountingIsConsistent) {
  const auto r = run_campaign(small_config());
  EXPECT_EQ(r.levels.size(), 5u);
  EXPECT_EQ(r.per_level.size(), 5u);
  for (const auto& s : r.per_level)
    EXPECT_EQ(s.comparisons, 60u * 5u);
  EXPECT_EQ(r.comparisons_total(), 60u * 5u * 5u);
  EXPECT_EQ(r.runs_total(), 2 * r.comparisons_total());
  // Records match the per-level class counts.
  std::uint64_t recorded = r.records.size();
  EXPECT_EQ(recorded, r.discrepancies_total());
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  auto cfg = small_config();
  cfg.threads = 1;
  const auto r1 = run_campaign(cfg);
  cfg.threads = 4;
  const auto r2 = run_campaign(cfg);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].program_index, r2.records[i].program_index);
    EXPECT_EQ(r1.records[i].printed, r2.records[i].printed);
  }
  for (std::size_t li = 0; li < r1.per_level.size(); ++li)
    EXPECT_EQ(r1.per_level[li].pairs, r2.per_level[li].pairs);
}

TEST(Campaign, O1ThroughO3CountsIdentical) {
  const auto r = run_campaign(small_config(120));
  const auto& o1 = r.stats_for(opt::OptLevel::O1);
  const auto& o2 = r.stats_for(opt::OptLevel::O2);
  const auto& o3 = r.stats_for(opt::OptLevel::O3);
  EXPECT_EQ(o1.pairs[0].class_counts, o2.pairs[0].class_counts);
  EXPECT_EQ(o2.pairs[0].class_counts, o3.pairs[0].class_counts);
  EXPECT_EQ(o1.pairs[0].adjacency, o3.pairs[0].adjacency);
}

TEST(Campaign, AdjacencySumsMatchClassCounts) {
  const auto r = run_campaign(small_config(120));
  for (const auto& s : r.per_level) {
    for (const auto& pair : s.pairs) {
      std::uint64_t adj_total = 0;
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) adj_total += pair.adjacency[i][j];
      EXPECT_EQ(adj_total, pair.discrepancy_total());
    }
  }
}

TEST(Campaign, LevelSubsetsWork) {
  auto cfg = small_config();
  cfg.levels = {opt::OptLevel::O0, opt::OptLevel::O3_FastMath};
  const auto r = run_campaign(cfg);
  EXPECT_EQ(r.per_level.size(), 2u);
  EXPECT_THROW(r.stats_for(opt::OptLevel::O2), std::out_of_range);
  EXPECT_NO_THROW(r.stats_for(opt::OptLevel::O3_FastMath));
}

TEST(Campaign, PaperShapeHolds) {
  // Loose qualitative assertions mirroring the paper's findings; exact
  // counts are configuration-dependent, the *shape* is load-bearing.
  CampaignConfig cfg;
  cfg.num_programs = 400;
  cfg.inputs_per_program = 7;
  cfg.seed = 42;
  const auto fp64 = run_campaign(cfg);
  const auto& o0 = fp64.stats_for(opt::OptLevel::O0);
  const auto& o3 = fp64.stats_for(opt::OptLevel::O3);
  const auto& fm = fp64.stats_for(opt::OptLevel::O3_FastMath);
  // Optimization levels add discrepancies, never remove the O0 baseline.
  EXPECT_GE(o3.discrepancy_total(), o0.discrepancy_total());
  EXPECT_GE(fm.discrepancy_total(), o3.discrepancy_total());
  // Num-Num is the most frequent class at O0 (paper §IV-C.1: "The Number
  // vs. Number discrepancies were the most frequent").
  const auto nn = o0.pairs[0].class_counts[class_index(DiscrepancyClass::Num_Num)];
  for (int ci = 0; ci < kDiscrepancyClassCount; ++ci) {
    if (class_from_index(ci) == DiscrepancyClass::Num_Num) continue;
    EXPECT_GE(nn, o0.pairs[0].class_counts[ci]) << to_string(class_from_index(ci));
  }

  auto cfg32 = cfg;
  cfg32.gen.precision = ir::Precision::FP32;
  const auto fp32 = run_campaign(cfg32);
  // FP32 fast math explodes relative to FP32 O3 (paper: 90 -> 13,877).
  EXPECT_GT(fp32.stats_for(opt::OptLevel::O3_FastMath).discrepancy_total(),
            5 * fp32.stats_for(opt::OptLevel::O3).discrepancy_total());

  // HIPIFY conversion adds discrepancies relative to native HIP
  // (paper Table IV: 2,426 -> 2,716).
  auto cfg_h = cfg;
  cfg_h.hipify_converted = true;
  const auto hip = run_campaign(cfg_h);
  EXPECT_GE(hip.discrepancies_total(), fp64.discrepancies_total());
}

// ---------------------------------------------------------------------------
// metadata (between-platform protocol)
// ---------------------------------------------------------------------------

TEST(Metadata, TwoSystemFlowMatchesDirectCampaign) {
  // The paper pair (the legacy report layout) at the default record cap
  // and at one small enough to bind, and three FP32 platforms (the N-way
  // layout: every record carries its per-pair classes).
  struct Input {
    const char* platforms;
    ir::Precision precision;
    std::size_t max_records;
  };
  const Input inputs[] = {
      {"nvcc,hipcc", ir::Precision::FP64, CampaignConfig{}.max_records},
      {"nvcc,hipcc", ir::Precision::FP64, 3},
      {"nvcc,hipcc,hipcc-ftz", ir::Precision::FP32,
       CampaignConfig{}.max_records},
  };
  for (const Input& in : inputs) {
    auto cfg = small_config(40);
    cfg.platforms = opt::parse_platform_list(in.platforms);
    cfg.gen.precision = in.precision;
    cfg.max_records = in.max_records;
    const std::string what = std::string(in.platforms) + " " +
                             ir::to_string(in.precision) + " max_records " +
                             std::to_string(in.max_records);
    // System 1 creates the tests and runs the baseline; each later system
    // runs its own platform from the same file.
    Metadata md = Metadata::create(cfg);
    for (const opt::PlatformSpec& spec : cfg.platforms) {
      EXPECT_FALSE(md.has_platform(spec)) << what << ": " << spec.name;
      md.record_platform(spec);
      EXPECT_TRUE(md.has_platform(spec)) << what << ": " << spec.name;
    }
    const CampaignResults via_metadata = md.analyze();
    const CampaignResults direct = run_campaign(cfg);
    ASSERT_EQ(via_metadata.per_level.size(), direct.per_level.size()) << what;
    for (std::size_t li = 0; li < direct.per_level.size(); ++li) {
      EXPECT_EQ(via_metadata.per_level[li].pairs, direct.per_level[li].pairs)
          << what << ": level " << li;
    }
    EXPECT_FALSE(via_metadata.records.empty()) << what;
    if (in.max_records == 3) {
      EXPECT_EQ(via_metadata.records.size(), 3u) << "the cap must bind";
    }
    EXPECT_EQ(campaign::results_to_json(via_metadata).dump(1),
              campaign::results_to_json(direct).dump(1))
        << what;
  }
}

TEST(Metadata, SaveLoadRoundTrip) {
  const auto cfg = small_config(10);
  Metadata md = Metadata::create(cfg);
  md.record_platform(*opt::find_platform("nvcc"));
  const auto path = std::filesystem::temp_directory_path() / "gpudiff_md_test.json";
  md.save(path.string());
  Metadata loaded = Metadata::load(path.string());
  EXPECT_EQ(loaded.json(), md.json());
  // Second system continues from the file.
  loaded.record_platform(*opt::find_platform("hipcc"));
  EXPECT_NO_THROW(loaded.analyze());
  std::filesystem::remove(path);
}

TEST(Metadata, AnalyzeRequiresAllPlatforms) {
  Metadata md = Metadata::create(small_config(5));
  EXPECT_THROW(md.analyze(), std::runtime_error);
  md.record_platform(*opt::find_platform("nvcc"));
  EXPECT_THROW(md.analyze(), std::runtime_error);
}

TEST(Metadata, RefusesDocumentsItCannotAnalyze) {
  Metadata md = Metadata::create(small_config(3));
  for (const opt::PlatformSpec& spec : opt::default_platforms())
    md.record_platform(spec);
  const auto refused = [](const support::Json& doc, const std::string& name) {
    try {
      Metadata::from_json(doc).analyze();
      ADD_FAILURE() << "analyze accepted a document that should fail with '"
                    << name << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };

  // Nine platforms, every one recorded (names may repeat): more than one
  // comparison holds.
  support::Json nine = md.json();
  support::Json names = support::Json::array();
  for (std::size_t p = 0; p <= opt::kMaxPlatforms; ++p)
    names.push_back(p % 2 == 0 ? "nvcc" : "hipcc");
  nine["config"]["platforms"] = std::move(names);
  refused(nine,
          "more than " + std::to_string(opt::kMaxPlatforms) + " platforms");
  EXPECT_THROW(Metadata::from_json(nine).platform_names(), std::runtime_error);
  auto too_many = small_config(1);
  too_many.platforms.assign(opt::kMaxPlatforms + 1, opt::platform_registry()[0]);
  EXPECT_THROW(Metadata::create(too_many), std::runtime_error);

  // A stored result whose bits do not decode.
  support::Json bad_bits = md.json();
  bad_bits["tests"].as_array()[1]["results"]["hipcc-sim"]["O2"].as_array()[0]
          ["bits"] = "0xnot-bits";
  refused(bad_bits, "metadata: bad bits");

  // One platform's level with a run missing.
  support::Json short_level = md.json();
  short_level["tests"].as_array()[2]["results"]["nvcc-sim"]["O3"]
      .as_array()
      .pop_back();
  refused(short_level, "metadata: run count mismatch");

  EXPECT_NO_THROW(Metadata::from_json(md.json()).analyze());
}

TEST(Metadata, TestsRegenerateFromFile) {
  const auto cfg = small_config(8);
  Metadata md = Metadata::create(cfg);
  EXPECT_EQ(md.test_count(), 8u);
  gen::Generator g(cfg.gen, cfg.seed);
  for (std::size_t i = 0; i < md.test_count(); ++i) {
    EXPECT_EQ(md.test_program(i).dump(), g.generate(i).dump());
    EXPECT_EQ(md.test_inputs(i).size(), static_cast<std::size_t>(cfg.inputs_per_program));
  }
}

TEST(Metadata, RejectsForeignJson) {
  for (const char* doc : {R"({"format":"other"})",
                          R"({"format":"gpudiff-metadata","version":2})"})
    EXPECT_THROW(Metadata::from_json(support::Json::parse(doc)),
                 std::runtime_error)
        << doc;
}

// ---------------------------------------------------------------------------
// reports
// ---------------------------------------------------------------------------

TEST(Report, SummaryHasPaperRows) {
  const auto r64 = run_campaign(small_config(30));
  auto cfg_h = small_config(30);
  cfg_h.hipify_converted = true;
  const auto rh = run_campaign(cfg_h);
  auto cfg32 = small_config(30);
  cfg32.gen.precision = ir::Precision::FP32;
  const auto r32 = run_campaign(cfg32);
  const std::string s = render_summary(r64, rh, r32);
  EXPECT_NE(s.find("Total Programs"), std::string::npos);
  EXPECT_NE(s.find("Total Discrepancies (% of Total Runs)"), std::string::npos);
  EXPECT_NE(s.find("FP64 with HIPIFY"), std::string::npos);
  EXPECT_NE(s.find("Runs on HIPCC"), std::string::npos);
}

TEST(Report, PerLevelHasAllRowsAndTotals) {
  const auto r = run_campaign(small_config(30));
  const std::string s = render_per_level(r, "TEST TABLE");
  for (const char* row : {"O0", "O1", "O2", "O3", "O3_FM", "Total"})
    EXPECT_NE(s.find(row), std::string::npos) << row;
  for (const char* col : {"NaN, Inf", "Num, Zero", "Num, Num"})
    EXPECT_NE(s.find(col), std::string::npos) << col;
}

TEST(Report, AdjacencyRendersPerLevelMatrices) {
  const auto r = run_campaign(small_config(30));
  const std::string s = render_adjacency(r, "ADJ");
  EXPECT_NE(s.find("Opt: O0"), std::string::npos);
  EXPECT_NE(s.find("Opt: O3_FM"), std::string::npos);
  EXPECT_NE(s.find("NVCC \\ HIPCC"), std::string::npos);
  EXPECT_NE(s.find("(±) NaN"), std::string::npos);
}

TEST(Report, RecordsDrillDown) {
  const auto r = run_campaign(small_config(120));
  const std::string s = render_records(r, 5);
  EXPECT_NE(s.find("NVCC output"), std::string::npos);
}

}  // namespace
