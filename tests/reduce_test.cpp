// Reducer tests: the triage-pipeline lock (ISSUE: discrepancy triage).
//
// The load-bearing properties, in the order the pipeline needs them:
//   * verdict preservation — every reproducer keeps the original record's
//     per-pair (pair, DiscrepancyClass) verdict exactly;
//   * 1-minimality — dropping any single statement of the reproducer
//     either kills the discrepancy or breaks the program;
//   * determinism — the same record reduces to byte-identical bundles
//     across repeated runs, VM backends, and batch vs single-record mode
//     (the reduce-drill CI job re-checks this across processes);
//   * the bundle byte layout is golden-locked, and a tampered bundle is
//     refused on reload.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.hpp"
#include "diff/campaign.hpp"
#include "diff/discrepancy.hpp"
#include "ir/mutate.hpp"
#include "opt/platform.hpp"
#include "reduce/bundle.hpp"
#include "reduce/reduce.hpp"
#include "store/store.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "vgpu/interp.hpp"

namespace {

using namespace gpudiff;
using support::Json;

const char* kGoldenBundle =
    GPUDIFF_SOURCE_DIR "/tests/golden/reduce_bundle_p60_i3_s1234_8-2-O3.json";

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

/// The corpus every test reduces from: a fixed-seed campaign big enough
/// to retain a statistically meaningful record set (>= 50 discrepancies,
/// every class family represented in practice).
diff::CampaignConfig corpus_config() {
  diff::CampaignConfig config;
  config.seed = 1234;
  config.num_programs = 240;
  config.inputs_per_program = 3;
  config.platforms = opt::parse_platform_list("nvcc,hipcc");
  return config;
}

/// The smaller configuration the golden bundle was generated from (the
/// gpudiff-reduce CLI with --programs 60 --inputs 3 --seed 1234).
diff::CampaignConfig golden_config() {
  diff::CampaignConfig config = corpus_config();
  config.num_programs = 60;
  return config;
}

const diff::CampaignResults& corpus() {
  static const diff::CampaignResults results =
      diff::run_campaign(corpus_config());
  return results;
}

reduce::RecordRef ref_of(const diff::DiscrepancyRecord& rec) {
  return {rec.program_index, rec.input_index, rec.level};
}

std::string bundle_bytes(const reduce::Reduction& reduction,
                         const diff::CampaignConfig& config) {
  return reduce::bundle_to_json(reduction, config).dump(1) + "\n";
}

TEST(RecordKey, RoundTripAndRejection) {
  reduce::RecordRef ref;
  ASSERT_TRUE(reduce::parse_record_key("41:2:O3", &ref));
  EXPECT_EQ(ref.program_index, 41u);
  EXPECT_EQ(ref.input_index, 2);
  EXPECT_EQ(ref.level, opt::OptLevel::O3);
  EXPECT_EQ(ref.key(), "41:2:O3");
  ASSERT_TRUE(reduce::parse_record_key("0:0:O3_FM", &ref));
  EXPECT_EQ(ref.key(), "0:0:O3_FM");

  for (const char* bad : {"", "41", "41:2", "41:2:O9", "41:x:O3", "x:2:O3",
                          "41:-1:O3", "41:2:O3:extra", "41 :2:O3", "41:2:"}) {
    EXPECT_FALSE(reduce::parse_record_key(bad, &ref)) << bad;
  }
}

TEST(Reduce, CorpusRetainsStatisticallyMeaningfulRecordSet) {
  ASSERT_GE(corpus().records.size(), 50u);
}

// The tentpole property pair, end to end over every record of the corpus:
// each reproducer preserves the original verdict, and is 1-minimal — no
// single statement can be removed without killing the discrepancy or
// dangling a temp reference.  The re-checks run against the reducer's own
// verdict_of, which the stress tier separately pins to the tree oracle.
TEST(Reduce, EveryRecordReducesToVerdictPreservingOneMinimalReproducer) {
  const diff::CampaignConfig config = corpus_config();
  const auto& records = corpus().records;
  std::vector<std::string> failures;
  std::mutex mu;
  support::parallel_for(records.size(), [&](std::size_t i) {
    const diff::DiscrepancyRecord& rec = records[i];
    const reduce::Reduction r = reduce::reduce_record(config, ref_of(rec));
    std::string fail;
    // Verdict preservation against the record itself.
    if (r.verdict.pair_cls != rec.pair_cls) {
      fail = "verdict vector differs from the record's";
    } else if (reduce::verdict_of(r.program, config, rec.level, r.args) !=
               r.verdict) {
      fail = "reproducer does not reproduce its own verdict";
    } else if (r.reduced_stmts > r.original_stmts) {
      fail = "reduction grew the statement count";
    } else {
      // 1-minimality: every single-statement drop is fatal.
      for (const ir::StmtId id : ir::preorder_statements(r.program)) {
        const std::optional<ir::Program> dropped =
            reduce::drop_statement(r.program, id);
        if (!dropped) continue;  // dangling temp: removal breaks the program
        reduce::Verdict v;
        try {
          v = reduce::verdict_of(*dropped, config, rec.level, r.args);
        } catch (const std::exception&) {
          continue;  // compile/run failure: equally fatal to the reproducer
        }
        if (v == r.verdict) {
          fail = "statement " + std::to_string(id.v) +
                 " can be dropped without changing the verdict";
          break;
        }
      }
    }
    if (!fail.empty()) {
      std::lock_guard<std::mutex> lock(mu);
      failures.push_back(ref_of(rec).key() + ": " + fail);
    }
  });
  EXPECT_TRUE(failures.empty()) << failures.size() << " record(s) failed, "
                                << "first: "
                                << (failures.empty() ? "" : failures.front());
}

// Determinism across everything that must not matter: repeated runs and
// VM backends all serialize to the same bundle bytes.
TEST(Reduce, BundleBytesInvariantAcrossRunsAndBackends) {
  const diff::CampaignConfig config = corpus_config();
  const auto& records = corpus().records;
  ASSERT_FALSE(records.empty());
  const vgpu::ExecBackend saved_backend = vgpu::exec_backend();

  const std::size_t n = std::min<std::size_t>(records.size(), 6);
  for (std::size_t i = 0; i < n; ++i) {
    const reduce::RecordRef ref = ref_of(records[i]);
    const std::string baseline =
        bundle_bytes(reduce::reduce_record(config, ref), config);
    EXPECT_EQ(baseline,
              bundle_bytes(reduce::reduce_record(config, ref), config))
        << ref.key() << ": repeated run";
    for (const vgpu::ExecBackend backend :
         {vgpu::ExecBackend::Bytecode, vgpu::ExecBackend::TreeWalk}) {
      vgpu::set_exec_backend(backend);
      EXPECT_EQ(baseline,
                bundle_bytes(reduce::reduce_record(config, ref), config))
          << ref.key() << ": backend " << static_cast<int>(backend);
    }
    vgpu::set_exec_backend(saved_backend);
  }
}

// Batch mode (reduce_records, what --from-report and --reduce-exemplars
// drive) writes byte-for-byte what single-record mode serializes.
TEST(Reduce, BatchModeMatchesSingleRecordModeByteForByte) {
  const diff::CampaignConfig config = corpus_config();
  const auto& records = corpus().records;
  const std::size_t n = std::min<std::size_t>(records.size(), 5);
  const std::vector<diff::DiscrepancyRecord> subset(records.begin(),
                                                    records.begin() + n);
  TempDir dir("gpudiff_reduce_batch_test");
  const std::vector<reduce::RecordRef> reduced =
      reduce::reduce_records(config, subset, dir.str());
  ASSERT_EQ(reduced.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const reduce::RecordRef ref = ref_of(subset[i]);
    EXPECT_EQ(reduced[i].key(), ref.key());
    const std::string batch =
        support::read_file(dir.file(reduce::bundle_filename(ref)));
    const std::string single =
        bundle_bytes(reduce::reduce_record(config, ref), config);
    EXPECT_EQ(batch, single) << ref.key();
  }
}

// reduce_exemplars selects exactly the records a store population of the
// same results would list as exemplar keys — the bundles line up with
// what gpudiff-serve reports.
TEST(Reduce, ExemplarSelectionMatchesStorePopulationRule) {
  const diff::CampaignConfig config = corpus_config();
  const auto& records = corpus().records;
  TempDir dir("gpudiff_reduce_exemplar_test");
  const std::vector<reduce::RecordRef> reduced =
      reduce::reduce_exemplars(config, records, dir.str(),
                               /*max_exemplars=*/2);
  ASSERT_FALSE(reduced.empty());
  const store::ExemplarKeys exemplars =
      store::select_exemplars(records, config.platforms.size(), 2);
  std::vector<std::string> expected;
  for (const auto& per_class : exemplars)
    for (const auto& cell : per_class)
      for (const auto& key : cell)
        if (std::find(expected.begin(), expected.end(), key) ==
            expected.end())
          expected.push_back(key);
  std::vector<std::string> got;
  for (const reduce::RecordRef& ref : reduced) got.push_back(ref.key());
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST(Reduce, NonDiscrepantRecordIsRefused) {
  const diff::CampaignConfig config = corpus_config();
  // Find a (program, input, level) triple the campaign did NOT retain.
  std::vector<std::string> retained;
  for (const auto& rec : corpus().records)
    retained.push_back(ref_of(rec).key());
  reduce::RecordRef ref{0, 0, opt::OptLevel::O0};
  while (std::find(retained.begin(), retained.end(), ref.key()) !=
         retained.end())
    ++ref.program_index;
  EXPECT_THROW(reduce::reduce_record(config, ref), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Bundle format: golden byte lock + tamper refusal.
// ---------------------------------------------------------------------------

TEST(ReduceBundle, GoldenByteLayoutIsStable) {
  const diff::CampaignConfig config = golden_config();
  reduce::RecordRef ref;
  ASSERT_TRUE(reduce::parse_record_key("8:2:O3", &ref));
  const std::string produced =
      bundle_bytes(reduce::reduce_record(config, ref), config);
  EXPECT_EQ(produced, support::read_file(kGoldenBundle))
      << "reduce bundle byte layout changed; if intentional, bump "
         "kBundleVersion and regenerate tests/golden/";
}

TEST(ReduceBundle, GoldenBundlePassesItsOwnDigestCheck) {
  const Json bundle = reduce::load_bundle(kGoldenBundle);  // throws on tamper
  EXPECT_EQ(bundle.at("record").as_string(), "8:2:O3");
  EXPECT_EQ(bundle.at("format").as_string(), reduce::kBundleFormat);
  const std::string label =
      bundle.at("sensitivity").at("label").as_string();
  EXPECT_TRUE(label == "platform-divergent" || label == "ill-conditioned");
}

TEST(ReduceBundle, TamperedBundleIsRefusedOnReload) {
  const std::string original = support::read_file(kGoldenBundle);
  TempDir dir("gpudiff_reduce_tamper_test");

  // Payload edit: a "fixed up" statement count with the old digest.
  Json tampered = Json::parse(original);
  tampered["checks"] =
      static_cast<long long>(tampered.at("checks").as_int() + 1);
  EXPECT_THROW(reduce::check_bundle(tampered), std::runtime_error);
  support::write_file(dir.file("tampered.json"), tampered.dump(1) + "\n");
  EXPECT_THROW(reduce::load_bundle(dir.file("tampered.json")),
               std::runtime_error);

  // Digest edit: valid JSON, wrong seal.
  Json reseal = Json::parse(original);
  reseal["digest"] = "0000000000000000";
  EXPECT_THROW(reduce::check_bundle(reseal), std::runtime_error);

  // Missing digest entirely.
  const Json parsed = Json::parse(original);
  Json unsealed = Json::object();
  for (const auto& [key, value] : parsed.as_object())
    if (key != "digest") unsealed[key] = value;
  EXPECT_THROW(reduce::check_bundle(unsealed), std::runtime_error);

  // The untouched original still loads.
  support::write_file(dir.file("ok.json"), original);
  EXPECT_NO_THROW(reduce::load_bundle(dir.file("ok.json")));
}

// ---------------------------------------------------------------------------
// The gpudiff-reduce CLI refuses, by name, inputs it cannot trust.
// ---------------------------------------------------------------------------

/// Run the gpudiff-reduce binary (its path wired in by CMake) with `args`
/// to completion; its exit code, with its stderr in `*err`.
int run_reduce(const std::vector<std::string>& args, const TempDir& dir,
               std::string* err) {
  const std::string err_path = dir.file("stderr.txt");
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(GPUDIFF_REDUCE_BIN));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    std::freopen("/dev/null", "w", stdout);
    std::freopen(err_path.c_str(), "w", stderr);
    ::execv(GPUDIFF_REDUCE_BIN, argv.data());
    std::_Exit(127);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  *err = support::read_file(err_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ReduceCli, RefusesNegativeInputsAndTamperedReportsByName) {
  TempDir dir("gpudiff_reduce_cli_refusals");
  const std::string out = dir.file("out");
  std::string err;

  EXPECT_EQ(run_reduce({"--record", "8:2:O3", "--seed", "1234", "--programs",
                        "60", "--inputs", "-1", "--out", out},
                       dir, &err),
            1);
  EXPECT_NE(err.find("--inputs must not be negative"), std::string::npos)
      << err;

  // A version-2 report whose embedded fingerprint no longer matches its
  // config: the config it carries is not trusted, and nothing is reduced.
  const diff::CampaignConfig config = golden_config();
  const Json echo = campaign::config_to_json(config);
  Json tampered =
      campaign::results_to_json(diff::run_campaign(config), &echo);
  tampered["fingerprint"] = "cfg-0000000000000000";
  const std::string report = dir.file("tampered.json");
  support::write_file(report, tampered.dump(1) + "\n");
  EXPECT_EQ(run_reduce({"--record", "8:2:O3", "--report", report, "--out",
                        out},
                       dir, &err),
            2);
  EXPECT_NE(err.find(report), std::string::npos) << err;
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(ReduceCli, MalformedExemplarKeyNamedWithBothFiles) {
  TempDir dir("gpudiff_reduce_cli_key");
  const std::string report = dir.file("report.json");
  support::write_file(
      report,
      campaign::results_to_json(diff::run_campaign(golden_config())).dump(1) +
          "\n");
  const std::string db = dir.file("db");
  store::ingest(db, "head", {report});
  const std::string fp =
      store::decode_report(Json::parse(support::read_file(report)))
          .fingerprint;
  const std::string pop_path = db + "/pop/head/" + fp + ".json";
  Json pop = Json::parse(support::read_file(pop_path));
  Json& cell =
      pop["exemplars"].as_object().begin()->second.as_object().begin()->second;
  cell.as_array().at(0) = "x:1:O3";
  support::write_file(pop_path, pop.dump(1) + "\n");

  std::string err;
  EXPECT_EQ(run_reduce({"--from-report", report, "--store", db, "--commit",
                        "head", "--out", dir.file("out")},
                       dir, &err),
            2);
  for (const std::string& named : {std::string("x:1:O3"), pop_path, report})
    EXPECT_NE(err.find(named), std::string::npos) << named << "\n" << err;
}

// ---------------------------------------------------------------------------
// Sensitivity probe: label determinism and structural sanity.
// ---------------------------------------------------------------------------

TEST(Sensitivity, ProbeCoversExactlyTheFloatingParams) {
  const diff::CampaignConfig config = corpus_config();
  const auto& records = corpus().records;
  ASSERT_FALSE(records.empty());
  const diff::DiscrepancyRecord& rec = records.front();
  const ir::Program program =
      reduce::regenerate_program(config, rec.program_index);
  const vgpu::KernelArgs args = reduce::regenerate_args(
      config, program, rec.program_index, rec.input_index);
  const reduce::SensitivityReport report =
      reduce::probe_sensitivity(program, config, rec.level, args);

  std::size_t fp_params = 0;
  for (const auto& param : program.params())
    if (param.kind != ir::ParamKind::Int) ++fp_params;
  EXPECT_EQ(report.params.size(), fp_params);
  for (const auto& probe : report.params) {
    EXPECT_GE(probe.step, 0.0);
    EXPECT_GE(probe.rel_condition, 0.0);
    EXPECT_LT(static_cast<std::size_t>(probe.param),
              program.params().size());
    EXPECT_NE(program.params()[probe.param].kind, ir::ParamKind::Int);
  }
  const bool ill = report.outcome_flip || report.condition > report.threshold;
  EXPECT_EQ(report.label == reduce::SensitivityLabel::IllConditioned, ill);
}

}  // namespace
