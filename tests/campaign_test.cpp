// Tests for the campaign orchestration subsystem: the lease partition,
// the in-memory runner, lease-path equivalence, the merge stage and
// record-cap semantics.  The load-bearing property throughout is
// byte-identity: the canonical JSON of a merged lease directory (or of a
// stopped-and-re-run worker) must equal the single-process
// diff::run_campaign output exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/shard.hpp"
#include "diff/campaign.hpp"
#include "ir/builder.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "vgpu/bytecode.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using campaign::ShardProgress;
using campaign::ShardRunOptions;

diff::CampaignConfig small_config(int programs = 45) {
  diff::CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 5;
  cfg.seed = 1234;
  return cfg;
}

std::string canonical(const diff::CampaignResults& results) {
  return campaign::results_to_json(results).dump(1);
}

/// A scratch directory removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string str() const { return path.string(); }
};

/// Run `cfg` as one lease worker over a fresh directory and merge it.
diff::CampaignResults run_leased(const diff::CampaignConfig& cfg,
                                 int lease_size) {
  TempDir dir("gpudiff_leased");
  campaign::WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = lease_size;
  options.worker_id = "w0";
  EXPECT_TRUE(campaign::run_worker(cfg, options).campaign_complete);
  return campaign::merge_lease_dir(dir.str());
}

// ---------------------------------------------------------------------------
// lease partitioning
// ---------------------------------------------------------------------------

TEST(LeasePartition, CoversRangeDisjointly) {
  for (int n : {0, 1, 5, 45, 354, 3540}) {
    for (int count : {1, 2, 3, 7, 64}) {
      std::uint64_t expected_begin = 0;
      for (int i = 0; i < count; ++i) {
        const auto [begin, end] = campaign::lease_range(n, count, i);
        EXPECT_EQ(begin, expected_begin) << n << " " << count << " " << i;
        EXPECT_LE(begin, end);
        // Lease sizes are balanced to within one program.
        const auto size = end - begin;
        EXPECT_LE(size, static_cast<std::uint64_t>(n) / count + 1);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, static_cast<std::uint64_t>(n));
    }
  }
}

// Property test over randomized geometries: the lease partition must
// produce ranges that are pairwise disjoint, cover exactly [0, n), and
// differ in size by at most one — for any partition count, and for the
// count lease_count derives from a lease size.
TEST(LeasePartition, RandomizedPartitionsAreDisjointCoveringAndBalanced) {
  support::Rng rng(20260726);
  const auto check_partition = [](int n, int count,
                                  const auto& range_of) {
    std::uint64_t expected_begin = 0;
    std::uint64_t min_size = ~0ull, max_size = 0;
    for (int i = 0; i < count; ++i) {
      const auto [begin, end] = range_of(i);
      // begin == previous end: disjoint and gap-free in one check.
      ASSERT_EQ(begin, expected_begin) << "n=" << n << " count=" << count
                                       << " part=" << i;
      ASSERT_LE(begin, end);
      min_size = std::min(min_size, end - begin);
      max_size = std::max(max_size, end - begin);
      expected_begin = end;
    }
    ASSERT_EQ(expected_begin, static_cast<std::uint64_t>(n)) << "coverage";
    if (count > 0) {
      ASSERT_LE(max_size - min_size, 1u)
          << "n=" << n << " count=" << count << " is unbalanced";
    }
  };

  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.below(4000));
    // Any partition count, including more parts than programs.
    const int N = 1 + static_cast<int>(rng.below(48));
    check_partition(n, N, [&](int i) {
      return campaign::lease_range(n, N, i);
    });
    // Lease partitioner: K = ceil(n / L) balanced ranges, none above L.
    const int L = 1 + static_cast<int>(rng.below(130));
    const int K = campaign::lease_count(n, L);
    ASSERT_EQ(K, n == 0 ? 0 : (n + L - 1) / L) << "n=" << n << " L=" << L;
    check_partition(n, K, [&](int k) {
      const auto range = campaign::lease_range(n, K, k);
      EXPECT_LE(range.second - range.first, static_cast<std::uint64_t>(L))
          << "lease " << k << " exceeds the requested lease size";
      return range;
    });
  }

  EXPECT_THROW(campaign::lease_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(campaign::lease_range(10, 3, 3), std::invalid_argument);
  EXPECT_THROW(campaign::lease_range(10, 3, -1), std::invalid_argument);
  EXPECT_THROW(campaign::lease_range(-1, 3, 0), std::invalid_argument);
  EXPECT_THROW(campaign::lease_count(-1, 4), std::invalid_argument);
  EXPECT_EQ(campaign::lease_count(0, 4), 0);
  EXPECT_EQ(campaign::lease_count(45, 1000), 1);
  EXPECT_EQ(campaign::lease_count(45, 0), 45) << "lease size clamps to >= 1";
}

// ---------------------------------------------------------------------------
// lease equivalence: merged lease dir == single process, byte for byte
// ---------------------------------------------------------------------------

TEST(LeaseEquivalence, MergeMatchesSingleProcessForFp64Fp32AndHipify) {
  auto fp32_hipify = small_config(30);
  fp32_hipify.gen.precision = ir::Precision::FP32;
  fp32_hipify.hipify_converted = true;
  for (const diff::CampaignConfig& cfg : {small_config(), fp32_hipify}) {
    const std::string direct = canonical(diff::run_campaign(cfg));
    for (int lease_size : {1, 3, 7})
      EXPECT_EQ(canonical(run_leased(cfg, lease_size)), direct)
          << ir::to_string(cfg.gen.precision) << ", lease size "
          << lease_size;
  }
}

// ---------------------------------------------------------------------------
// the in-memory runner
// ---------------------------------------------------------------------------

TEST(InMemory, RunsInBlocksAndMergesOnlyCompleteRuns) {
  const auto cfg = small_config(70);
  ShardRunOptions options;
  std::vector<std::uint64_t> cursors;
  options.on_progress = [&](const ShardProgress& p) {
    cursors.push_back(p.cursor);
  };
  const ShardProgress full = campaign::run_shard(cfg, options);
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(cursors, (std::vector<std::uint64_t>{64, 70}))
      << "the runner folds fixed 64-program blocks";
  EXPECT_EQ(canonical(campaign::merge_shards({full})),
            canonical(diff::run_campaign(cfg)));

  // A stop after the first block leaves a partial run the merge refuses.
  options.stop_requested = [&] { return !cursors.empty(); };
  cursors.clear();
  const ShardProgress half = campaign::run_shard(cfg, options);
  EXPECT_FALSE(half.complete());
  EXPECT_EQ(half.cursor, 64u);
  EXPECT_THROW(campaign::merge_shards({half}), std::runtime_error);
  EXPECT_THROW(campaign::merge_shards({}), std::runtime_error);
}

// ---------------------------------------------------------------------------
// record-cap semantics under lease carving
// ---------------------------------------------------------------------------

TEST(RecordCap, AppliedDeterministicallyAtMergeTime) {
  auto cfg = small_config();
  const auto uncapped = diff::run_campaign(cfg);
  ASSERT_GT(uncapped.records.size(), 6u) << "config produces too few records";

  cfg.max_records = 6;
  const auto direct = diff::run_campaign(cfg);
  ASSERT_EQ(direct.records.size(), 6u);
  // The capped set is the lowest (program, input, level) records: the
  // uncapped run's canonical prefix.
  for (std::size_t i = 0; i < direct.records.size(); ++i) {
    EXPECT_EQ(direct.records[i].program_index, uncapped.records[i].program_index);
    EXPECT_EQ(direct.records[i].input_index, uncapped.records[i].input_index);
    EXPECT_EQ(direct.records[i].level, uncapped.records[i].level);
  }
  // And lease carving does not change it, whichever lease the records
  // fall into.
  for (int lease_size : {1, 3, 7})
    EXPECT_EQ(canonical(run_leased(cfg, lease_size)), canonical(direct))
        << "lease size " << lease_size;
}

TEST(RecordCap, CanonicalOrderIsProgramInputLevel) {
  const auto results = diff::run_campaign(small_config());
  const auto& levels = results.levels;
  const auto pos = [&](opt::OptLevel l) {
    for (std::size_t i = 0; i < levels.size(); ++i)
      if (levels[i] == l) return i;
    ADD_FAILURE() << "record level not in campaign";
    return std::size_t{0};
  };
  for (std::size_t i = 1; i < results.records.size(); ++i) {
    const auto& a = results.records[i - 1];
    const auto& b = results.records[i];
    const auto ka = std::tuple(a.program_index, a.input_index, pos(a.level));
    const auto kb = std::tuple(b.program_index, b.input_index, pos(b.level));
    EXPECT_LT(ka, kb) << "record " << i << " out of canonical order";
  }
}

// ---------------------------------------------------------------------------
// document serialization
// ---------------------------------------------------------------------------

TEST(Checkpoint, RejectsForeignAndVersionedDocuments) {
  using support::Json;
  for (const char* doc :
       {"{}", R"({"format":"x"})", R"({"format":"gpudiff-lease","version":2})",
        R"({"format":"gpudiff-lease"})",
        R"({"format":"gpudiff-campaign-manifest","version":1})"}) {
    EXPECT_THROW(campaign::block_from_json(Json::parse(doc), nullptr, nullptr),
                 std::runtime_error)
        << doc;
  }
  EXPECT_THROW(campaign::results_from_json(Json::parse(
                   R"({"format":"gpudiff-lease","version":1})")),
               std::runtime_error);

  // The manifest loader applies the same rule to campaign.json.
  TempDir dir("gpudiff_foreign_manifest");
  std::filesystem::create_directories(dir.path);
  const std::string manifest = campaign::manifest_path(dir.str());
  for (const char* doc :
       {"{}", R"({"format":"x"})",
        R"({"format":"gpudiff-campaign-manifest","version":2})",
        R"({"format":"gpudiff-campaign-manifest"})",
        R"({"format":"gpudiff-lease","version":1})"}) {
    support::write_file(manifest, doc);
    EXPECT_THROW(campaign::load_manifest(dir.str()),
                 std::runtime_error)
        << doc;
  }
}

TEST(Checkpoint, ResultsJsonRoundTrips) {
  const auto results = diff::run_campaign(small_config(20));
  const support::Json j = campaign::results_to_json(results);
  const auto reloaded =
      campaign::results_from_json(support::Json::parse(j.dump(1)));
  EXPECT_EQ(campaign::results_to_json(reloaded).dump(1), j.dump(1));
  EXPECT_EQ(reloaded.discrepancies_total(), results.discrepancies_total());
}

TEST(Checkpoint, AtomicWriteLeavesNoTempFile) {
  TempDir dir("gpudiff_atomic_write");
  std::filesystem::create_directories(dir.path);
  const std::string path = (dir.path / "out.json").string();
  support::write_file_atomic(path, "{\"x\": 1}\n");
  EXPECT_EQ(support::read_file(path), "{\"x\": 1}\n");
  for (const auto& entry : std::filesystem::directory_iterator(dir.path))
    EXPECT_EQ(entry.path().filename(), "out.json") << "temp file left behind";
}

// ---------------------------------------------------------------------------
// platform registry: golden byte-identity + N-way campaigns
// ---------------------------------------------------------------------------

// The platform-registry acceptance criterion: the default nvcc,hipcc
// selection must produce a canonical report byte-identical to the
// pre-refactor output.  tests/golden/*.json were generated by the
// two-slot-era binary (commit f1b9a23) from the exact configs below.
TEST(PlatformGolden, DefaultCampaignMatchesPreRegistryReport) {
  diff::CampaignConfig cfg;
  cfg.num_programs = 60;
  cfg.inputs_per_program = 5;
  cfg.seed = 1234;
  const std::string got =
      campaign::results_to_json(diff::run_campaign(cfg)).dump(1) + "\n";
  EXPECT_EQ(got, support::read_file(std::string(GPUDIFF_SOURCE_DIR) +
                                    "/tests/golden/campaign_p60_i5_s1234_fp64.json"));

  diff::CampaignConfig cfg32;
  cfg32.gen.precision = ir::Precision::FP32;
  cfg32.num_programs = 40;
  cfg32.inputs_per_program = 4;
  cfg32.seed = 77;
  const std::string got32 =
      campaign::results_to_json(diff::run_campaign(cfg32)).dump(1) + "\n";
  EXPECT_EQ(got32, support::read_file(std::string(GPUDIFF_SOURCE_DIR) +
                                      "/tests/golden/campaign_p40_i4_s77_fp32.json"));
}

diff::CampaignConfig three_platform_config(int programs = 30) {
  diff::CampaignConfig cfg = small_config(programs);
  cfg.platforms = opt::parse_platform_list("nvcc,hipcc,hipcc-ftz");
  return cfg;
}

TEST(PlatformCampaign, ThreeWayStopAndRerunMergeIsByteIdentical) {
  // An N=3 campaign through the lease path: a worker stopped after three
  // leases (as SIGTERM would stop it), re-run to completion, then merged —
  // byte identical to the direct three-platform run.
  const auto cfg = three_platform_config();
  const diff::CampaignResults direct = diff::run_campaign(cfg);
  EXPECT_EQ(direct.platforms,
            (std::vector<std::string>{"nvcc", "hipcc", "hipcc-ftz"}));
  EXPECT_EQ(direct.runs_total(), direct.comparisons_total() * 3);
  const std::string want = canonical(direct);

  TempDir dir("gpudiff_n3_rerun");
  int leases = 0;
  campaign::WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 4;
  options.worker_id = "w0";
  options.on_lease = [&](const campaign::WorkerOptions::LeaseEvent&) {
    ++leases;
  };
  options.stop_requested = [&] { return leases >= 3; };
  const campaign::WorkerOutcome stopped = campaign::run_worker(cfg, options);
  EXPECT_FALSE(stopped.campaign_complete);
  EXPECT_EQ(stopped.leases_completed, 3);

  // The re-run executes only the leases the stopped worker left.
  options.on_lease = nullptr;
  options.stop_requested = nullptr;
  const campaign::WorkerOutcome rerun = campaign::run_worker(cfg, options);
  EXPECT_TRUE(rerun.campaign_complete);
  EXPECT_EQ(rerun.leases_completed, campaign::lease_count(30, 4) - 3);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), want);
}

TEST(PlatformCampaign, ThreeWayWorkerFleetIsByteIdentical) {
  // The same N=3 campaign through the work-stealing scheduler.
  const auto cfg = three_platform_config();
  const std::string want = canonical(diff::run_campaign(cfg));
  TempDir dir("gpudiff_n3_fleet");
  for (const char* id : {"w0", "w1"}) {
    campaign::WorkerOptions wopts;
    wopts.dir = dir.str();
    wopts.lease_size = 4;
    wopts.worker_id = id;
    const auto outcome = campaign::run_worker(cfg, wopts);
    EXPECT_TRUE(outcome.campaign_complete);
  }
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), want);
}

TEST(PlatformCampaign, FingerprintCoversThePlatformSet) {
  // Same seed/counts, different platform selection: the manifest check
  // must refuse to mix the two in one lease directory, because a block is
  // only a pure function of (fingerprint, range) when the fingerprint pins
  // the platform set.
  const auto cfg2 = small_config(10);
  const auto cfg3 = [&] {
    auto c = three_platform_config(10);
    c.num_programs = 10;
    return c;
  }();
  EXPECT_NE(campaign::config_to_json(cfg2), campaign::config_to_json(cfg3));

  TempDir dir("gpudiff_platform_fingerprint");
  campaign::WorkerOptions options;
  options.dir = dir.str();
  options.worker_id = "w0";
  ASSERT_TRUE(campaign::run_worker(cfg2, options).campaign_complete);
  EXPECT_THROW(campaign::run_worker(cfg3, options), std::runtime_error);
}

TEST(PlatformCampaign, RegistrySpecsSerializeAsBefore) {
  // The fingerprint bytes of every registry platform, as written before
  // specs lost their FMA-side, FP32-division and math-library overrides:
  // manifests, store keys and reduce bundles embed them.
  const char* const want[] = {
      R"({"daz32":false,"div32":"auto","fast_math":false,"fma":"auto",)"
      R"("ftz32":false,"mathlib":"","name":"nvcc","toolchain":"nvcc-sim"})",
      R"({"daz32":false,"div32":"auto","fast_math":false,"fma":"auto",)"
      R"("ftz32":false,"mathlib":"","name":"hipcc","toolchain":"hipcc-sim"})",
      R"({"daz32":true,"div32":"auto","fast_math":false,"fma":"auto",)"
      R"("ftz32":true,"mathlib":"","name":"hipcc-ftz",)"
      R"("toolchain":"hipcc-sim"})",
      R"({"daz32":false,"div32":"auto","fast_math":true,"fma":"auto",)"
      R"("ftz32":false,"mathlib":"","name":"nvcc-fastmath",)"
      R"("toolchain":"nvcc-sim"})"};
  const auto& registry = opt::platform_registry();
  ASSERT_EQ(registry.size(), std::size(want));
  for (std::size_t i = 0; i < registry.size(); ++i)
    EXPECT_EQ(campaign::platform_to_json(registry[i]).dump(), want[i])
        << registry[i].name;
}

TEST(PlatformCampaign, FingerprintsNamingRetiredOverridesAreRefused) {
  // "fma", "div32" and "mathlib" keep one value each; a fingerprint naming
  // any other cannot be rebuilt, so the round trip refuses it.
  const support::Json echo = campaign::config_to_json(three_platform_config());
  ASSERT_EQ(campaign::config_to_json(campaign::config_from_json(echo)), echo);
  const std::pair<const char*, const char*> cases[] = {
      {"fma", "left"}, {"div32", "ieee"}, {"mathlib", "nv-fastmath-sim"}};
  for (const auto& [key, value] : cases) {
    support::Json doc = echo;
    doc["platforms"].as_array()[1][key] = value;
    try {
      (void)campaign::config_from_json(doc);
      ADD_FAILURE() << key << " " << value << " was decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("does not round-trip"),
                std::string::npos)
          << key << ": " << e.what();
    }
  }
}

TEST(PlatformCampaign, ThreeWayResultsJsonRoundTrips) {
  auto cfg = three_platform_config(15);
  const auto results = diff::run_campaign(cfg);
  const support::Json j = campaign::results_to_json(results);
  // The general layout names its platforms; every record carries one
  // payload per platform and a per-platform class array.
  ASSERT_TRUE(j.contains("platforms"));
  const auto reloaded =
      campaign::results_from_json(support::Json::parse(j.dump(1)));
  EXPECT_EQ(campaign::results_to_json(reloaded).dump(1), j.dump(1));
  EXPECT_EQ(reloaded.platforms, results.platforms);
  for (const auto& rec : reloaded.records) {
    EXPECT_EQ(rec.printed.size(), 3u);
    EXPECT_EQ(rec.pair_cls.size(), 3u);
    EXPECT_EQ(rec.pair_cls[0], diff::DiscrepancyClass::None);
  }
}

// ---------------------------------------------------------------------------
// VM regression: lazy array materialization must not leak state across a
// batch (a store in run i, then a store-free run i+1 over the same slot).
// ---------------------------------------------------------------------------

TEST(LazyArrays, NoCrossInputContaminationInBatch) {
  // if (gate > 0) arr[0] = 99; comp += arr[0];
  ir::ProgramBuilder b(ir::Precision::FP64);
  ir::Arena& A = b.arena();
  const int arr = b.add_array_param();
  const int gate = b.add_scalar_param();
  b.begin_if(ir::make_cmp(A, ir::CmpOp::Gt, ir::make_param(A, gate),
                          ir::make_literal(A, 0.0)));
  b.store_array(arr, ir::make_literal(A, 0.0), ir::make_literal(A, 99.0));
  b.end_block();
  b.assign_comp(ir::AssignOp::Add, ir::make_array(A, arr, ir::make_literal(A, 0.0)));
  const ir::Program p = b.build();
  const auto exe =
      opt::compile(p, *opt::find_platform("nvcc"), opt::OptLevel::O0);

  // Input 0 stores (comp = 99), input 1 must observe its own broadcast (7),
  // not the previous run's store; input 2 stores again.
  std::vector<vgpu::KernelArgs> inputs(3);
  inputs[0].fp = {0.0, 5.0, 1.0};
  inputs[1].fp = {0.0, 7.0, -1.0};
  inputs[2].fp = {0.0, 3.0, 2.0};
  for (auto& args : inputs) args.ints = {0, 0, 0};

  std::vector<vgpu::RunResult> out(inputs.size());
  vgpu::ExecContext ctx;
  exe.bytecode().run_batch(inputs, ctx, out.data());
  EXPECT_EQ(out[0].value, 99.0);
  EXPECT_EQ(out[1].value, 7.0);
  EXPECT_EQ(out[2].value, 99.0);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(out[i].value_bits, vgpu::run_kernel_tree(exe, inputs[i]).value_bits)
        << "input " << i;
}

}  // namespace
