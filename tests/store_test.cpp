// Results-store tests: ingest/query/diff determinism, on-disk format
// lock, corruption hardening, and the serve daemon under concurrency and
// process death.
//
// The load-bearing properties mirror the campaign invariants one layer
// up: equal store contents answer every query byte-identically regardless
// of ingest order, thread timing or server restarts — the SIGKILL drill
// drives the real gpudiff-serve binary (via GPUDIFF_SERVE_BIN, wired by
// CMake) so recovery runs the actual startup path.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.hpp"
#include "diff/campaign.hpp"
#include "diff/report.hpp"
#include "net/wire.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"
#include "support/json.hpp"

namespace {

using namespace gpudiff;
using support::Json;

const char* kGoldenReport =
    GPUDIFF_SOURCE_DIR "/tests/golden/campaign_p60_i5_s1234_fp64.json";
const char* kGoldenPopulation =
    GPUDIFF_SOURCE_DIR "/tests/golden/store_pop_p60_i5_s1234_fp64.json";

/// A scratch directory removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string str() const { return path.string(); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

Json golden_report() {
  return Json::parse(support::read_file(kGoldenReport));
}

void write_json(const std::string& path, const Json& j) {
  support::write_file(path, j.dump(1) + "\n");
}

/// A synthetic Google-Benchmark JSON file.
Json bench_file(const std::vector<std::pair<std::string, double>>& entries,
                const std::string& unit = "ns") {
  Json j = Json::object();
  j["context"] = Json::object();
  Json arr = Json::array();
  for (const auto& [name, t] : entries) {
    Json b = Json::object();
    b["name"] = name;
    b["run_type"] = "iteration";
    b["iterations"] = 100;
    b["real_time"] = t;
    b["cpu_time"] = t;
    b["time_unit"] = unit;
    arr.push_back(std::move(b));
  }
  // An aggregate row (mean over repetitions) that ingest must skip.
  Json agg = Json::object();
  agg["name"] = "BM_Agg_mean";
  agg["run_type"] = "aggregate";
  agg["iterations"] = 3;
  agg["real_time"] = 1.0;
  agg["cpu_time"] = 1.0;
  agg["time_unit"] = unit;
  arr.push_back(std::move(agg));
  j["benchmarks"] = std::move(arr);
  return j;
}

/// Every query answer a store can give, concatenated — the byte-identity
/// probe used by the order-invariance and restart tests.
std::string all_answers(const store::StoreIndex& index,
                        const std::string& from, const std::string& to) {
  std::string out = store::summary(index).dump(1);
  out += store::trend(index).dump(1);
  out += store::diff_commits(index, from, to).dump(1);
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprints and report versions.
// ---------------------------------------------------------------------------

TEST(StoreFingerprint, HeaderDerivedForV1CfgForV2) {
  const Json v1 = golden_report();
  const std::string hdr = store::decode_report(v1).fingerprint;
  EXPECT_EQ(hdr.rfind("hdr-", 0), 0u) << hdr;
  EXPECT_EQ(hdr.size(), 4u + 16u);

  diff::CampaignConfig cfg;
  cfg.num_programs = 4;
  cfg.inputs_per_program = 2;
  const Json echo = campaign::config_to_json(cfg);
  const auto results = diff::run_campaign(cfg);
  const Json v2 = campaign::results_to_json(results, &echo);
  EXPECT_EQ(v2.at("version").as_int(), 2);
  const std::string cfgfp = store::decode_report(v2).fingerprint;
  EXPECT_EQ(cfgfp.rfind("cfg-", 0), 0u) << cfgfp;
  EXPECT_EQ(cfgfp, campaign::fingerprint_digest(echo));

  // A lying embedded fingerprint is refused, not trusted.
  Json tampered = v2;
  tampered["fingerprint"] = "cfg-0000000000000000";
  EXPECT_THROW(store::decode_report(tampered), std::runtime_error);
  EXPECT_THROW(campaign::results_from_json(tampered), std::runtime_error);
}

TEST(StoreFingerprint, V2ReportRoundTripsToV1Bytes) {
  diff::CampaignConfig cfg;
  cfg.num_programs = 6;
  cfg.inputs_per_program = 2;
  cfg.seed = 7;
  const Json echo = campaign::config_to_json(cfg);
  const auto results = diff::run_campaign(cfg);
  const std::string v1_bytes = campaign::results_to_json(results).dump(1);

  const Json v2 = campaign::results_to_json(results, &echo);
  EXPECT_EQ(v2.at("fingerprint").as_string(),
            campaign::fingerprint_digest(v2.at("config")));
  // The v2 extras are pure annotation: decoding v2 and re-encoding v1
  // reproduces the locked v1 bytes exactly.
  const auto decoded = campaign::results_from_json(v2);
  EXPECT_EQ(campaign::results_to_json(decoded).dump(1), v1_bytes);
}

// ---------------------------------------------------------------------------
// Ingest: format lock, immutability, hardening.
// ---------------------------------------------------------------------------

TEST(StoreIngest, GoldenPopulationLocksOnDiskFormat) {
  TempDir dir("gpudiff_store_golden");
  const std::string db = dir.file("db");
  store::ingest(db, "golden", {kGoldenReport});
  const std::string fp = store::decode_report(golden_report()).fingerprint;
  const std::string pop_path = db + "/pop/golden/" + fp + ".json";
  ASSERT_TRUE(std::filesystem::exists(pop_path));
  // Byte-compare against the committed golden: any change to the
  // population document layout must be deliberate (new golden + version
  // bump), never drift.
  EXPECT_EQ(support::read_file(pop_path),
            support::read_file(kGoldenPopulation));
}

// Exemplar keys of a population must resolve against the report they were
// selected from; a key with no record (the report was re-merged under a
// tighter --max-records cap, one of the files is stale, or the key was
// edited into something no record has) is a named-file error, never a
// silent skip.
TEST(StoreIngest, DanglingExemplarKeyNamedNotSilentlySkipped) {
  TempDir dir("gpudiff_store_dangling");
  const std::string db = dir.file("db");
  store::ingest(db, "head", {kGoldenReport});
  const Json report_doc = golden_report();
  const store::Report report = store::decode_report(report_doc);
  const auto index = store::load_store(db);
  const Json& pop = store::population(index, "head", report.fingerprint);
  const std::string pop_name =
      db + "/pop/head/" + report.fingerprint + ".json";
  const auto expect_named = [&](const Json& p, const store::Report& r,
                                const std::string& report_name,
                                const std::string& key) {
    try {
      store::resolve_exemplars(p, r, pop_name, report_name);
      ADD_FAILURE() << "dangling exemplar key " << key
                    << " was silently accepted";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(key), std::string::npos) << message;
      EXPECT_NE(message.find(pop_name), std::string::npos) << message;
      EXPECT_NE(message.find(report_name), std::string::npos) << message;
    }
  };

  // Happy path: every exemplar key resolves to one record, in canonical
  // record order (program, input, level position).
  std::set<std::string> keys;
  for (const auto& [pair, per_class] : pop.at("exemplars").as_object())
    for (const auto& [cls, arr] : per_class.as_object())
      for (const auto& key : arr.as_array()) keys.insert(key.as_string());
  ASSERT_FALSE(keys.empty());
  const auto records =
      store::resolve_exemplars(pop, report, pop_name, kGoldenReport);
  const auto& levels = report.results.levels;
  const auto rank = [&](const diff::DiscrepancyRecord& r) {
    return std::make_tuple(
        r.program_index, r.input_index,
        std::find(levels.begin(), levels.end(), r.level) - levels.begin());
  };
  std::set<std::string> resolved;
  for (std::size_t i = 0; i < records.size(); ++i) {
    resolved.insert(store::record_key(records[i]));
    if (i > 0) {
      EXPECT_LT(rank(records[i - 1]), rank(records[i])) << i;
    }
  }
  EXPECT_EQ(records.size(), keys.size());
  EXPECT_EQ(resolved, keys);

  // Re-merge simulation: drop the record behind one exemplar key (the v1
  // fingerprint is header-derived, so it still matches).
  const std::string dropped = *keys.begin();
  Json capped = report_doc;
  auto& recs = capped["records"].as_array();
  const std::size_t before = recs.size();
  recs.erase(std::remove_if(
                 recs.begin(), recs.end(),
                 [&](const Json& r) {
                   return std::to_string(r.at("program").as_int()) + ":" +
                              std::to_string(r.at("input").as_int()) + ":" +
                              r.at("level").as_string() ==
                          dropped;
                 }),
             recs.end());
  ASSERT_LT(recs.size(), before);
  expect_named(pop, store::decode_report(capped), "capped.json", dropped);

  // A key edited into something no record spells is named the same way:
  // keys are matched against the records, never parsed.
  Json edited = pop;
  Json& cell =
      edited["exemplars"].as_object().begin()->second.as_object().begin()
          ->second;
  cell.as_array().at(0) = "x:1:O3";
  expect_named(edited, report, kGoldenReport, "x:1:O3");

  // A population checked against a foreign report is refused up front,
  // naming both documents.
  Json foreign = report_doc;
  foreign["seed"] = report_doc.at("seed").as_int() + 1;
  EXPECT_THROW(store::resolve_exemplars(pop, store::decode_report(foreign),
                                        pop_name, "foreign.json"),
               std::runtime_error);
}

TEST(StoreIngest, IdempotentReingestConflictRefused) {
  TempDir dir("gpudiff_store_idem");
  const std::string db = dir.file("db");
  const auto first = store::ingest(db, "c1", {kGoldenReport});
  EXPECT_EQ(first.reports, 1);
  // Identical bytes again: a no-op, not an error (at-least-once CI jobs).
  EXPECT_EQ(store::ingest(db, "c1", {kGoldenReport}).reports, 1);

  // Same key, different payload: refused — store files are immutable.
  Json patched = golden_report();
  auto& counts = patched["per_level"].as_array()[0]["class_counts"].as_array();
  counts[0] = counts[0].as_int() + 1;
  const std::string conflicting = dir.file("conflicting.json");
  write_json(conflicting, patched);
  EXPECT_THROW(store::ingest(db, "c1", {conflicting}), std::runtime_error);

  // Bench points accumulate across files but refuse conflicting overlap.
  const std::string b1 = dir.file("b1.json");
  const std::string b2 = dir.file("b2.json");
  const std::string b3 = dir.file("b3.json");
  write_json(b1, bench_file({{"BM_A", 100.0}}));
  write_json(b2, bench_file({{"BM_B", 5.0}}, "us"));
  write_json(b3, bench_file({{"BM_A", 250.0}}));
  EXPECT_EQ(store::ingest(db, "c1", {b1, b2}).bench_files, 2);
  EXPECT_THROW(store::ingest(db, "c1", {b3}), std::runtime_error);

  const auto index = store::load_store(db);
  const auto& benches = index.perf.at("c1").at("benchmarks");
  EXPECT_EQ(benches.as_object().size(), 2u);  // aggregate rows skipped
  EXPECT_EQ(benches.at("BM_B").at("real_time_ns").as_double(), 5000.0);
}

/// A Google-Benchmark file recorded with --benchmark_repetitions: one
/// iteration row per (name, repetition), then the aggregate rows the
/// library appends per name.
Json repetitions_file(
    const std::vector<std::pair<std::string, std::vector<double>>>& runs) {
  Json j = Json::object();
  j["context"] = Json::object();
  Json arr = Json::array();
  for (const auto& [name, times] : runs) {
    for (std::size_t r = 0; r < times.size(); ++r) {
      Json b = Json::object();
      b["name"] = name;
      b["run_type"] = "iteration";
      b["repetitions"] = static_cast<long long>(times.size());
      b["repetition_index"] = static_cast<long long>(r);
      b["iterations"] = 100;
      b["real_time"] = times[r];
      b["cpu_time"] = times[r] - 1.0;
      b["time_unit"] = "us";
      arr.push_back(std::move(b));
    }
    for (const char* aggregate : {"mean", "median", "stddev", "cv"}) {
      Json agg = Json::object();
      agg["name"] = name + "_" + aggregate;
      agg["run_type"] = "aggregate";
      agg["aggregate_name"] = aggregate;
      agg["iterations"] = static_cast<long long>(times.size());
      agg["real_time"] = 1.0;
      agg["cpu_time"] = 1.0;
      agg["time_unit"] = "us";
      arr.push_back(std::move(agg));
    }
  }
  j["benchmarks"] = std::move(arr);
  return j;
}

TEST(StoreIngest, RepeatedBenchmarksFoldToMedians) {
  TempDir dir("gpudiff_store_reps");
  const std::string db = dir.file("db");
  const std::string reps = dir.file("reps.json");
  write_json(reps, repetitions_file({{"BM_R", {100.0, 130.0, 110.0}},
                                     {"BM_E", {4.0, 2.0, 8.0, 6.0}},
                                     {"BM_One", {7.0}}}));
  EXPECT_EQ(store::ingest(db, "c1", {reps}).bench_files, 1);
  const std::string perf_doc = support::read_file(db + "/perf/c1.json");

  const auto index = store::load_store(db);
  const Json& benches = index.perf.at("c1").at("benchmarks");
  EXPECT_EQ(benches.as_object().size(), 3u);  // aggregate rows skipped
  const Json& r = benches.at("BM_R");
  EXPECT_EQ(r.at("real_time_ns").as_double(), 110e3);
  EXPECT_EQ(r.at("cpu_time_ns").as_double(), 109e3);
  EXPECT_EQ(r.at("repetitions").as_int(), 3);
  EXPECT_EQ(r.at("iterations").as_int(), 300);
  // mean 113.33 us, sample standard deviation sqrt(700 / 3) us.
  EXPECT_NEAR(r.at("real_time_cv").as_double(),
              std::sqrt(700.0 / 3.0) / (340.0 / 3.0), 1e-12);
  EXPECT_EQ(benches.at("BM_E").at("real_time_ns").as_double(), 5e3);  // even N
  // A one-row name keeps exactly today's entry.
  Json one = Json::object();
  one["real_time_ns"] = 7e3;
  one["cpu_time_ns"] = 6e3;
  one["iterations"] = 100;
  EXPECT_EQ(benches.at("BM_One"), one);

  // Re-ingesting the same file is a no-op.
  EXPECT_EQ(store::ingest(db, "c1", {reps}).bench_files, 1);
  EXPECT_EQ(support::read_file(db + "/perf/c1.json"), perf_doc);

  // A second file whose repetitions fold to other numbers is refused, and
  // adds none of its entries.
  const std::string other = dir.file("other.json");
  write_json(other, repetitions_file({{"BM_New", {1.0, 2.0}},
                                      {"BM_R", {100.0, 130.0, 111.0}}}));
  EXPECT_THROW(store::ingest(db, "c1", {other}), std::runtime_error);
  EXPECT_EQ(support::read_file(db + "/perf/c1.json"), perf_doc);
}

TEST(StoreIngest, CorruptInputsNamedAndQuarantined) {
  TempDir dir("gpudiff_store_corrupt");
  const std::string db = dir.file("db");
  const std::string truncated = dir.file("truncated.json");
  const std::string foreign = dir.file("foreign.json");
  const std::string tampered = dir.file("tampered.json");
  support::write_file(truncated, "{\"format\":\"gpudiff-campaign-resu");
  support::write_file(foreign, "{\"hello\":1}");
  // Well-formed JSON whose first record names a class past the seven.
  Json bad_class = golden_report();
  bad_class["records"].as_array().at(0)["class"] = 99;
  write_json(tampered, bad_class);

  // Without --quarantine the first bad file aborts, naming itself.
  for (const std::string& bad : {truncated, tampered}) {
    try {
      store::ingest(db, "c1", {bad, kGoldenReport});
      FAIL() << "corrupt ingest did not throw: " << bad;
    } catch (const std::runtime_error& e) {
      const std::string name = std::filesystem::path(bad).filename().string();
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }

  // With it, bad files are set aside and good ones still land.
  store::IngestOptions options;
  options.quarantine = true;
  const auto outcome = store::ingest(
      db, "c1", {truncated, foreign, tampered, kGoldenReport}, options);
  EXPECT_EQ(outcome.reports, 1);
  ASSERT_EQ(outcome.quarantined.size(), 3u);
  EXPECT_FALSE(std::filesystem::exists(truncated));
  EXPECT_TRUE(std::filesystem::exists(truncated + ".quarantined"));
  EXPECT_TRUE(std::filesystem::exists(foreign + ".quarantined"));
  EXPECT_TRUE(std::filesystem::exists(tampered + ".quarantined"));
  EXPECT_EQ(store::load_store(db).populations.at("c1").size(), 1u);

  // Commit labels that would escape the layout are refused outright.
  EXPECT_THROW(store::ingest(db, "../evil", {kGoldenReport}),
               std::runtime_error);
  EXPECT_THROW(store::ingest(db, ".hidden", {kGoldenReport}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Queries and diffs: determinism, regression gate.
// ---------------------------------------------------------------------------

/// Two commits sharing the golden fingerprint — c2 with one extra Num/Num
/// discrepancy and a slower BM_Slow — plus bench points for both.
std::string build_two_commit_store(const TempDir& dir, const std::string& db,
                                   bool reversed_order = false) {
  Json patched = golden_report();
  auto& counts = patched["per_level"].as_array()[0]["class_counts"].as_array();
  counts[0] = counts[0].as_int() + 1;
  const std::string patched_path = dir.file("patched.json");
  write_json(patched_path, patched);
  const std::string b1 = dir.file("bench1.json");
  const std::string b2 = dir.file("bench2.json");
  write_json(b1, bench_file({{"BM_Slow", 100.0}, {"BM_Fast", 50.0}}));
  write_json(b2, bench_file({{"BM_Slow", 150.0}, {"BM_Fast", 51.0}}));
  const std::vector<std::pair<std::string, std::vector<std::string>>> plan{
      {"c1", {std::string(kGoldenReport), b1}},
      {"c2", {patched_path, b2}},
  };
  if (reversed_order) {
    for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
      auto files = it->second;
      std::reverse(files.begin(), files.end());
      store::ingest(db, it->first, files);
    }
  } else {
    for (const auto& [commit, files] : plan)
      store::ingest(db, commit, files);
  }
  return store::decode_report(patched).fingerprint;
}

TEST(StoreDiff, DeterministicAcrossRunsAndIngestOrders) {
  TempDir dir("gpudiff_store_det");
  const std::string db_a = dir.file("db_a");
  const std::string db_b = dir.file("db_b");
  build_two_commit_store(dir, db_a, /*reversed_order=*/false);
  build_two_commit_store(dir, db_b, /*reversed_order=*/true);
  const auto index_a = store::load_store(db_a);
  const auto index_b = store::load_store(db_b);
  const std::string answers = all_answers(index_a, "c1", "c2");
  EXPECT_EQ(answers, all_answers(index_b, "c1", "c2"));
  // Repeated runs over one index are byte-stable too.
  EXPECT_EQ(answers, all_answers(index_a, "c1", "c2"));
}

TEST(StoreDiff, RegressionGateFlagsPopulationAndPerf) {
  TempDir dir("gpudiff_store_gate");
  const std::string db = dir.file("db");
  const std::string fp = build_two_commit_store(dir, db);
  const auto index = store::load_store(db);

  const Json d = store::diff_commits(index, "c1", "c2");
  EXPECT_FALSE(d.at("clean").as_bool());
  const auto& pop_reg = d.at("regressions").at("population").as_array();
  ASSERT_EQ(pop_reg.size(), 1u);
  EXPECT_EQ(pop_reg[0].as_string(), fp);
  const auto& perf_reg = d.at("regressions").at("perf").as_array();
  ASSERT_EQ(perf_reg.size(), 1u);  // +50% BM_Slow; +2% BM_Fast is in budget
  EXPECT_EQ(perf_reg[0].as_string(), "BM_Slow");
  const auto& entry = d.at("populations").at(fp);
  EXPECT_EQ(entry.at("status").as_string(), "matched");
  EXPECT_EQ(entry.at("discrepancies").at("delta").as_int(), 1);
  EXPECT_EQ(d.at("perf").at("BM_Slow").at("ratio").as_double(), 1.5);

  // The reverse direction is clean: the population shrank, nothing slowed.
  EXPECT_TRUE(store::diff_commits(index, "c2", "c1").at("clean").as_bool());
  // A looser threshold admits the +50%.
  store::DiffOptions loose;
  loose.max_perf_regress_pct = 60.0;
  const Json d2 = store::diff_commits(index, "c1", "c2", loose);
  EXPECT_EQ(d2.at("regressions").at("perf").as_array().size(), 0u);

  // The renderers consume both documents without throwing.
  EXPECT_NE(diff::render_store_summary(store::summary(index)).find("c1"),
            std::string::npos);
  EXPECT_NE(diff::render_store_diff(d).find("REGRESS"), std::string::npos);

  EXPECT_THROW(store::diff_commits(index, "c1", "nope"), std::runtime_error);
}

TEST(StoreQuery, PopulationAndDrilldownErrors) {
  TempDir dir("gpudiff_store_query");
  const std::string db = dir.file("db");
  store::ingest(db, "c1", {kGoldenReport});
  const auto index = store::load_store(db);
  const std::string fp = store::decode_report(golden_report()).fingerprint;

  // Empty fingerprint selects the only population.
  EXPECT_EQ(store::population(index, "c1", "").at("fingerprint").as_string(),
            fp);
  EXPECT_THROW(store::population(index, "c1", "hdr-bogus"),
               std::runtime_error);
  EXPECT_THROW(store::population(index, "nope", ""), std::runtime_error);

  const Json drill = store::pair_drilldown(index, "c1", "", "hipcc");
  EXPECT_EQ(drill.at("baseline").as_string(), "nvcc");
  EXPECT_EQ(drill.at("pair").as_string(), "hipcc");
  // Drill-down totals agree with the population totals.
  EXPECT_EQ(drill.at("discrepancies").as_int(),
            store::population(index, "c1", "").at("totals")
                .at("discrepancies").as_int());
  EXPECT_THROW(store::pair_drilldown(index, "c1", "", "nvcc"),
               std::runtime_error);  // the baseline is not a pair
}

TEST(StoreLoad, TempLitterSkippedMislabeledRefused) {
  TempDir dir("gpudiff_store_litter");
  const std::string db = dir.file("db");
  store::ingest(db, "c1", {kGoldenReport});
  // Crash litter from a killed atomic write must be invisible.
  support::write_file(db + "/pop/c1/zzz.json.tmp", "{\"torn");
  support::write_file(db + "/perf/c9.json.tmp.123", "{\"torn");
  EXPECT_EQ(store::load_store(db).populations.at("c1").size(), 1u);

  // A population copied under the wrong commit must not silently relabel.
  const std::string fp = store::decode_report(golden_report()).fingerprint;
  std::filesystem::create_directories(db + "/pop/c2");
  std::filesystem::copy_file(db + "/pop/c1/" + fp + ".json",
                             db + "/pop/c2/" + fp + ".json");
  EXPECT_THROW(store::load_store(db), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The serve daemon: wire protocol, concurrency, restart recovery.
// ---------------------------------------------------------------------------

Json client_query(int port, const Json& request) {
  net::Socket socket = net::connect_tcp("127.0.0.1", port, 5.0);
  if (!socket.valid()) throw std::runtime_error("connect failed");
  Json hello = Json::object();
  hello["op"] = "hello";
  hello["version"] = net::kWireVersion;
  hello["store_version"] = store::kStoreVersion;
  Json response;
  if (net::request_response(socket, std::move(hello), 1, &response, 5.0) !=
          net::IoStatus::Ok ||
      !response.get_or("ok", Json(false)).as_bool())
    throw std::runtime_error("hello refused");
  if (net::request_response(socket, request, 2, &response, 5.0) !=
      net::IoStatus::Ok)
    throw std::runtime_error("query failed");
  return response;
}

TEST(StoreServe, HelloRefusesVersionMismatchesFatally) {
  TempDir dir("gpudiff_store_hello");
  const std::string db = dir.file("db");
  store::ingest(db, "c1", {kGoldenReport});
  store::ServeOptions options;
  options.dir = db;
  store::StoreServer server(options);
  server.start();

  net::Socket socket = net::connect_tcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.valid());
  Json hello = Json::object();
  hello["op"] = "hello";
  hello["version"] = net::kWireVersion + 1;
  Json response;
  ASSERT_EQ(net::request_response(socket, std::move(hello), 1, &response, 5.0),
            net::IoStatus::Ok);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("fatal").as_bool());

  // Skipping the hello is refused just as fatally.
  net::Socket second = net::connect_tcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(second.valid());
  Json naked = Json::object();
  naked["op"] = "summary";
  ASSERT_EQ(net::request_response(second, std::move(naked), 1, &response, 5.0),
            net::IoStatus::Ok);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("fatal").as_bool());
  server.stop();
}

/// Lines of /proc/self/maps, one per mapping — so every thread stack the
/// process still holds is counted; -1 when /proc is unreadable.
int mapping_count() {
  std::ifstream maps("/proc/self/maps");
  if (!maps) return -1;
  int n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(StoreServe, FinishedConnectionsReleaseTheirThreads) {
  if (mapping_count() < 0) GTEST_SKIP() << "/proc/self/maps is unreadable";
  TempDir dir("gpudiff_store_reap");
  const std::string db = dir.file("db");
  store::ingest(db, "c1", {kGoldenReport});
  store::ServeOptions options;
  options.dir = db;
  store::StoreServer server(options);
  server.start();

  // Each cycle connects, says hello, queries and closes.  A daemon that
  // keeps every ended connection's thread until stop() holds a stack
  // (two mappings) per cycle, and runs out of threads after a few tens of
  // thousands; one that joins them holds a bounded few.
  Json ping = Json::object();
  ping["op"] = "ping";
  for (int i = 0; i < 50; ++i)  // warm the allocator and the stack cache
    ASSERT_TRUE(client_query(server.port(), ping).at("ok").as_bool());
  const int before = mapping_count();
  for (int i = 0; i < 500; ++i)
    ASSERT_TRUE(client_query(server.port(), ping).at("ok").as_bool());
  const int grown = mapping_count() - before;
  server.stop();
  EXPECT_LT(grown, 100) << "500 finished connections left " << grown
                        << " new mappings behind";
}

TEST(StoreServe, DeepNestingLineRefusedDaemonKeepsServing) {
  TempDir dir("gpudiff_store_deep");
  const std::string db = dir.file("db");
  store::ingest(db, "c1", {kGoldenReport});
  store::ServeOptions options;
  options.dir = db;
  store::StoreServer server(options);
  server.start();

  // One pre-hello line of 2,000,000 '[' used to overflow the parser's
  // stack and kill the daemon.  It is refused: the connection closes
  // without an answer.
  net::Socket socket = net::connect_tcp("127.0.0.1", server.port(), 5.0);
  ASSERT_TRUE(socket.valid());
  ASSERT_EQ(socket.send_all(std::string(2000000, '[') + "\n", 10.0),
            net::IoStatus::Ok);
  Json response;
  EXPECT_NE(net::recv_message(socket, &response, 10.0), net::IoStatus::Ok);

  // A fresh connection is still answered.
  Json ping = Json::object();
  ping["op"] = "ping";
  EXPECT_TRUE(client_query(server.port(), ping).at("ok").as_bool());
  server.stop();
}

TEST(StoreServe, ConcurrentClientsSeeIdenticalAnswers) {
  TempDir dir("gpudiff_store_conc");
  const std::string db = dir.file("db");
  build_two_commit_store(dir, db);
  store::ServeOptions options;
  options.dir = db;
  store::StoreServer server(options);
  server.start();
  const int port = server.port();

  Json summary_req = Json::object();
  summary_req["op"] = "summary";
  Json pair_req = Json::object();
  pair_req["op"] = "pair";
  pair_req["commit"] = "c2";
  pair_req["pair"] = "hipcc";
  Json diff_req = Json::object();
  diff_req["op"] = "diff";
  diff_req["from"] = "c1";
  diff_req["to"] = "c2";
  const std::vector<Json> requests{summary_req, pair_req, diff_req};

  // Three concurrent clients, each hammering all three query shapes; the
  // answers must be identical across clients and iterations (one mutexed
  // index, deterministic serialization).
  std::vector<std::string> transcripts(3);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int iter = 0; iter < 8; ++iter)
        for (const auto& req : requests)
          transcripts[static_cast<std::size_t>(c)] +=
              client_query(port, req).dump() + "\n";
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_FALSE(transcripts[0].empty());
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_EQ(transcripts[0], transcripts[2]);
  server.stop();

  // Restart on the same directory: the index rebuilds byte-identically
  // (the files are the journal), so the first answer matches the last.
  store::StoreServer revived(options);
  revived.start();
  std::string again;
  for (const auto& req : requests)
    again += client_query(revived.port(), req).dump() + "\n";
  revived.stop();
  EXPECT_EQ(transcripts[0].substr(0, again.size()), again);
}

TEST(StoreServe, RefreshPicksUpNewIngest) {
  TempDir dir("gpudiff_store_refresh");
  const std::string db = dir.file("db");
  store::ingest(db, "c1", {kGoldenReport});
  store::ServeOptions options;
  options.dir = db;
  store::StoreServer server(options);
  EXPECT_EQ(server.commit_count(), 1);

  store::ingest(db, "c2", {kGoldenReport});
  Json refresh = Json::object();
  refresh["op"] = "refresh";
  refresh["seq"] = 5;
  const Json response = server.handle(refresh);
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("seq").as_int(), 5);
  EXPECT_EQ(response.at("commits").as_int(), 2);
  EXPECT_EQ(server.commit_count(), 2);

  // Unknown keys are non-fatal errors through the wire path; unknown ops
  // are fatal (std::invalid_argument from handle).
  Json bad = Json::object();
  bad["op"] = "population";
  bad["commit"] = "nope";
  EXPECT_THROW(server.handle(bad), std::runtime_error);
  Json unknown = Json::object();
  unknown["op"] = "frobnicate";
  EXPECT_THROW(server.handle(unknown), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Process drill: SIGKILL the real serve binary mid-query; restart recovers
// the index byte-identically.
// ---------------------------------------------------------------------------

const char* serve_binary() { return std::getenv("GPUDIFF_SERVE_BIN"); }

pid_t spawn_child(const char* bin, const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    // Keep child chatter out of the gtest stream.
    std::freopen("/dev/null", "w", stdout);
    ::execv(bin, argv.data());
    std::_Exit(127);
  }
  return pid;
}

int pick_free_port() {
  net::Listener probe;
  probe.listen("127.0.0.1", 0);
  return probe.port();
}

bool wait_until(const std::function<bool()>& pred, double seconds = 30.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

bool server_answers(int port) {
  try {
    Json ping = Json::object();
    ping["op"] = "ping";
    return client_query(port, ping).at("ok").as_bool();
  } catch (const std::exception&) {
    return false;
  }
}

TEST(StoreServe, KillRestartDrillRecoversByteIdentical) {
  if (serve_binary() == nullptr)
    GTEST_SKIP() << "GPUDIFF_SERVE_BIN not set (run under CTest)";
  TempDir dir("gpudiff_store_drill");
  const std::string db = dir.file("db");
  build_two_commit_store(dir, db);
  const int port = pick_free_port();
  const auto spawn_server = [&] {
    return spawn_child(serve_binary(), {"--store", db, "--serve", "--port",
                                        std::to_string(port)});
  };

  pid_t server = spawn_server();
  ASSERT_GT(server, 0);
  ASSERT_TRUE(wait_until([&] { return server_answers(port); }))
      << "serve daemon never came up";

  Json diff_req = Json::object();
  diff_req["op"] = "diff";
  diff_req["from"] = "c1";
  diff_req["to"] = "c2";
  Json pair_req = Json::object();
  pair_req["op"] = "pair";
  pair_req["commit"] = "c1";
  pair_req["pair"] = "hipcc";
  const std::string before = client_query(port, diff_req).dump() +
                             client_query(port, pair_req).dump();

  // Clients mid-flight while the server dies: their failures are the
  // point (no graceful shutdown path exists to flush anything).
  std::thread hammer([&] {
    for (int i = 0; i < 1000; ++i) {
      try {
        client_query(port, diff_req);
      } catch (const std::exception&) {
        return;  // the kill landed
      }
    }
  });
  ASSERT_EQ(::kill(server, SIGKILL), 0);
  int status = 0;
  ::waitpid(server, &status, 0);
  hammer.join();

  // Restart on the same directory and port: the store files are the
  // journal, so every answer must come back byte-identical.
  server = spawn_server();
  ASSERT_GT(server, 0);
  ASSERT_TRUE(wait_until([&] { return server_answers(port); }))
      << "revived serve daemon never came up";
  const std::string after = client_query(port, diff_req).dump() +
                            client_query(port, pair_req).dump();
  EXPECT_EQ(before, after);

  ASSERT_EQ(::kill(server, SIGTERM), 0);
  ::waitpid(server, &status, 0);
  EXPECT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
