// gpudiff-campaign: differential-testing campaigns, in one process or as
// a fleet of lease workers.
//
// Without a directory a campaign runs in memory and reports when it
// finishes.  To survive crashes or spread across machines it runs as
// lease workers instead: each worker claims fine-grained leases from a
// shared directory (--worker DIR) or from a TCP coordinator
// (--coordinator HOST:PORT), and --merge DIR folds the finished leases
// into the exact results a single-process run produces, feeding the
// Table IV-X reporters.
//
//   # one machine, one process, in memory
//   gpudiff-campaign --programs 354 --report results.json
//
//   # one machine, durable: a kill costs at most the lease in flight, and
//   # re-running the same command skips every finished lease
//   gpudiff-campaign --worker lease-dir --programs 3540 --lease-size 64
//
//   # self-balancing fleet: any number of workers, heterogeneous machines
//   # — each claims leases from the shared dir, and a dead worker's lease
//   # is stolen once its heartbeat goes stale
//   for i in 0 1 2; do
//     gpudiff-campaign --worker lease-dir --programs 3540 &
//   done; wait
//   gpudiff-campaign --merge lease-dir --report results.json --tables
//
//   # the same fleet without a shared filesystem: a TCP coordinator owns
//   # the lease board (durable state dir, restartable after SIGKILL), and
//   # workers coordinate over host:port with retry/backoff — a worker that
//   # loses the coordinator finishes its lease, journals the result
//   # locally, and republishes when the connection returns
//   gpudiff-coordinator --dir coord-state --port 7070 &
//   for host in a b c; do
//     ssh $host gpudiff-campaign --coordinator head:7070 --programs 3540 &
//   done; wait
//   gpudiff-campaign --merge coord-state --report results.json
//
// SIGINT/SIGTERM stop the run gracefully: an in-memory run stops at the
// next 64-program block and keeps nothing; a worker finishes and
// publishes the in-flight lease and releases every claim it holds, so an
// interrupted worker never strands claimed work.

#include <algorithm>
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "campaign/checkpoint.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/shard.hpp"
#include "campaign_flags.hpp"
#include "diff/report.hpp"
#include "opt/platform.hpp"
#include "reduce/bundle.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using namespace gpudiff;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

bool stop_requested() { return g_stop.load(std::memory_order_relaxed); }

// Machine-readable registry dump: each platform as the config
// fingerprint spells it (campaign::platform_to_json), plus the blurb.
void list_platforms_json() {
  support::Json arr = support::Json::array();
  for (const opt::PlatformSpec& spec : opt::platform_registry()) {
    support::Json p = campaign::platform_to_json(spec);
    p["blurb"] = spec.blurb;
    arr.push_back(std::move(p));
  }
  std::printf("%s\n", arr.dump(1).c_str());
}

void list_platforms() {
  support::Table t("Platform registry (--platforms a,b,c; first = baseline)");
  t.set_header({"Name", "Toolchain", "Fast math", "FTZ32", "DAZ32", "FMA",
                "Div32", "Mathlib", "Description"},
               {support::Align::Left});
  for (const opt::PlatformSpec& spec : opt::platform_registry()) {
    t.add_row({spec.name, opt::to_string(spec.toolchain),
               spec.fast_math ? "yes" : "no", spec.force_ftz32 ? "on" : "-",
               spec.force_daz32 ? "on" : "-", opt::to_string(spec.fma),
               opt::to_string(spec.div32),
               spec.mathlib.empty() ? "(toolchain default)" : spec.mathlib,
               spec.blurb});
  }
  std::fputs(t.render().c_str(), stdout);
}

// Everything a finished campaign produces, on whichever path it finished
// (in-memory run, completing worker, --merge): the summary, the optional
// tables and report, and the optional exemplar reduction.  `echo` is the
// campaign's config fingerprint; `dir` is its lease directory, empty for
// an in-memory run.
void finish_campaign(const support::CliParser& cli,
                     const diff::CampaignResults& results,
                     const support::Json& echo, const std::string& dir) {
  std::printf("programs            %d\n", results.num_programs);
  std::printf("inputs per program  %d\n", results.inputs_per_program);
  std::printf("comparisons         %llu\n",
              static_cast<unsigned long long>(results.comparisons_total()));
  std::printf("runs                %llu\n",
              static_cast<unsigned long long>(results.runs_total()));
  std::printf("discrepancies       %llu (%.4f%% of runs)\n",
              static_cast<unsigned long long>(results.discrepancies_total()),
              results.discrepancy_percent());
  std::printf("records retained    %zu\n", results.records.size());
  if (cli.get_flag("tables")) {
    std::fputs(diff::render_per_level(results, "Discrepancies per level").c_str(),
               stdout);
    std::fputs(diff::render_adjacency(results, "Outcome adjacency").c_str(),
               stdout);
  }
  const std::string& report_path = cli.get_string("report");
  if (!report_path.empty()) {
    // Every worker that finishes a fleet's campaign writes the same
    // report path with byte-identical contents; each write has its own
    // temp file, so whichever rename lands last leaves a whole report.
    support::write_file_atomic(
        report_path,
        campaign::results_to_json(results,
                                  cli.get_flag("report-v2") ? &echo : nullptr)
                .dump(1) +
            "\n");
    std::printf("report written to %s\n", report_path.c_str());
  }
  if (!cli.get_flag("reduce-exemplars")) return;

  // Shrink the exemplar records to 1-minimal reproducer bundles (the same
  // selection rule as a store population, so the bundles line up with what
  // gpudiff-serve reports).  The reducer re-derives programs and inputs,
  // so it needs the full campaign definition: the fingerprint.
  diff::CampaignConfig config = campaign::config_from_json(echo);
  config.threads = static_cast<unsigned>(cli.get_int("threads"));
  std::string out_dir = cli.get_string("reduce-out");
  if (out_dir.empty()) out_dir = dir.empty() ? "reduced" : dir + "/reduced";
  const std::vector<reduce::RecordRef> reduced = reduce::reduce_exemplars(
      config, results.records, out_dir,
      static_cast<int>(cli.get_int("max-exemplars")),
      [](const reduce::Reduction& r) {
        std::printf("[reduce] %s: %llu -> %llu statements, %llu -> %llu "
                    "nodes (%llu checks), %s\n",
                    r.record.key().c_str(),
                    static_cast<unsigned long long>(r.original_stmts),
                    static_cast<unsigned long long>(r.reduced_stmts),
                    static_cast<unsigned long long>(r.original_nodes),
                    static_cast<unsigned long long>(r.reduced_nodes),
                    static_cast<unsigned long long>(r.checks),
                    reduce::to_string(r.sensitivity.label));
        std::fflush(stdout);
      });
  std::printf("%zu reproducer bundle(s) written to %s\n", reduced.size(),
              out_dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli(
      "gpudiff-campaign",
      "Differential-testing campaigns, in memory or as resumable lease "
      "workers");
  tools::add_campaign_flags(cli);
  cli.add_flag("list-platforms",
               "print the platform registry (name, toolchain, FP-env) and exit");
  cli.add_flag("json",
               "with --list-platforms: dump the registry as JSON (full "
               "PlatformSpec fields, fingerprint spelling)");
  cli.add_int("threads", 't', "worker threads (0 = hardware concurrency)", 0);
  cli.add_string("merge", 0,
                 "merge the finished leases of this lease or coordinator "
                 "state directory instead of running",
                 "");
  cli.add_string("worker", 'w',
                 "run as a self-balancing work-stealing worker against this "
                 "shared lease directory (re-running skips finished leases)",
                 "");
  const campaign::WorkerOptions worker_defaults;
  cli.add_int("lease-size", 'L',
              "programs per lease: the unit of stealing, of progress and of "
              "work lost to a kill; each lease also pays a fixed claim and "
              "publish cost",
              worker_defaults.lease_size);
  cli.add_double("heartbeat", 'H', "seconds between lease heartbeats",
                 worker_defaults.heartbeat_seconds);
  cli.add_double("stale-after", 'A',
                 "steal a lease whose heartbeat is older than this many "
                 "seconds, and reap temp files older than that (0 also reaps "
                 "live peers' in-flight temps)",
                 worker_defaults.stale_after_seconds);
  cli.add_string("worker-id", 'W', "unique worker name (default: host-pid)",
                 "");
  cli.add_string("coordinator", 'C',
                 "run as a worker against a gpudiff-coordinator at host:port "
                 "instead of a shared lease directory",
                 "");
  cli.add_string("journal-dir", 'J',
                 "local journal for results the coordinator could not be told "
                 "about (--coordinator mode; default: per-worker temp dir)",
                 "");
  cli.add_flag("quarantine",
               "--merge only: set corrupt or misplaced lease done files "
               "aside as *.quarantined instead of aborting on the first one");
  cli.add_flag("progress",
               "print progress after every 64-program block, or after every "
               "lease in worker mode");
  cli.add_string("report", 'r', "write canonical results JSON to this path", "");
  cli.add_flag("report-v2",
               "write the version-2 report superset (embedded config "
               "fingerprint + store key); default stays the byte-stable "
               "version-1 layout");
  cli.add_flag("tables", "print the per-level and adjacency tables");
  cli.add_flag("reduce-exemplars",
               "after the campaign (or merge) completes, delta-debug each "
               "exemplar record to a 1-minimal reproducer bundle (see "
               "gpudiff-reduce)");
  cli.add_string("reduce-out", 'O',
                 "bundle directory for --reduce-exemplars (default: "
                 "<lease dir>/reduced, or ./reduced)",
                 "");
  cli.add_int("max-exemplars", 'E',
              "exemplar records per (pair, class) for --reduce-exemplars "
              "(the store's population rule)",
              5);
  if (!cli.parse(argc, argv)) return 1;
  // Strict flag checks (an unknown or duplicate platform names the entry
  // and the registry) before any lease directory is touched.
  std::optional<diff::CampaignConfig> flags =
      tools::campaign_of_flags(cli, "gpudiff-campaign");
  if (!flags) return 1;
  // An unsigned count inside: refuse a negative one up front.
  if (cli.get_int("threads") < 0) {
    std::fprintf(stderr, "gpudiff-campaign: --threads must not be negative\n");
    return 1;
  }
  campaign::WorkerOptions wopts;
  wopts.lease_size = static_cast<int>(std::clamp<std::int64_t>(
      cli.get_int("lease-size"), INT_MIN, INT_MAX));
  wopts.heartbeat_seconds = cli.get_double("heartbeat");
  wopts.stale_after_seconds = cli.get_double("stale-after");
  try {
    campaign::check_worker_options(wopts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "gpudiff-campaign: %s\n", e.what());
    return 1;
  }

  try {
    if (cli.get_flag("list-platforms")) {
      if (cli.get_flag("json"))
        list_platforms_json();
      else
        list_platforms();
      return 0;
    }
    const std::string merge_dir = cli.get_string("merge");
    const std::string worker_dir = cli.get_string("worker");
    const std::string coordinator = cli.get_string("coordinator");
    if (!merge_dir.empty() + !worker_dir.empty() + !coordinator.empty() > 1) {
      std::fprintf(stderr,
                   "gpudiff-campaign: --merge, --worker and --coordinator are "
                   "separate modes; pass one of them\n");
      return 1;
    }
    // The outputs finish_campaign writes beyond the summary.
    const bool wants_outputs = !cli.get_string("report").empty() ||
                               cli.get_flag("tables") ||
                               cli.get_flag("reduce-exemplars");
    if (!coordinator.empty() && wants_outputs) {
      // A TCP worker never holds the done blocks (they live in the
      // coordinator's state directory), so refuse before any work runs
      // rather than silently dropping the outputs at the end.
      std::fprintf(stderr,
                   "gpudiff-campaign: --report, --tables and "
                   "--reduce-exemplars need the merged results; a "
                   "--coordinator worker has none, so run --merge against "
                   "the coordinator's state directory\n");
      return 1;
    }

    if (!merge_dir.empty()) {
      campaign::LeaseMergeOptions mopts;
      mopts.quarantine = cli.get_flag("quarantine");
      const diff::CampaignResults results =
          campaign::merge_lease_dir(merge_dir, mopts);
      // The merged results do not carry the fingerprint; the directory
      // that produced them does.
      finish_campaign(cli, results, campaign::config_echo_of_dir(merge_dir),
                      merge_dir);
      return 0;
    }

    diff::CampaignConfig config = std::move(*flags);
    config.threads = static_cast<unsigned>(cli.get_int("threads"));

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    if (!worker_dir.empty() || !coordinator.empty()) {
      wopts.dir = worker_dir;
      wopts.coordinator = coordinator;
      wopts.journal_dir = cli.get_string("journal-dir");
      wopts.worker_id = cli.get_string("worker-id");
      wopts.stop_requested = stop_requested;
      if (cli.get_flag("progress")) {
        wopts.on_lease = [](const campaign::WorkerOptions::LeaseEvent& ev) {
          std::printf("[worker] lease %d done (programs [%llu, %llu))%s\n",
                      ev.lease, static_cast<unsigned long long>(ev.begin),
                      static_cast<unsigned long long>(ev.end),
                      ev.stolen ? " [reclaimed from stale claim]" : "");
          std::fflush(stdout);
        };
      }
      const campaign::WorkerOutcome outcome =
          campaign::run_worker(config, wopts);
      std::printf("worker finished: %d leases (%llu programs), %d reclaimed "
                  "from stale claims\n",
                  outcome.leases_completed,
                  static_cast<unsigned long long>(outcome.programs_executed),
                  outcome.leases_stolen);
      if (!outcome.campaign_complete) {
        // Interrupted: the in-flight lease was still published and every
        // claim released, so any worker (re)started against the directory
        // picks up exactly where the fleet left off.
        std::printf("campaign incomplete; rerun workers against %s to "
                    "continue\n",
                    worker_dir.empty() ? coordinator.c_str()
                                       : worker_dir.c_str());
        return 3;
      }
      if (!coordinator.empty()) {
        // The done blocks live in the coordinator's state directory (same
        // layout as a lease directory): merge there.
        std::printf("campaign complete; merge on the coordinator host with "
                    "--merge <coordinator state dir>\n");
      } else if (wants_outputs) {
        // Deterministic outputs make this safe in a fleet: every worker
        // that gets here writes byte-identical reports and bundles.
        finish_campaign(cli, campaign::merge_lease_dir(worker_dir),
                        campaign::config_to_json(config), worker_dir);
      } else {
        std::printf("campaign complete; merge with --merge %s\n",
                    worker_dir.c_str());
      }
      return 0;
    }

    campaign::ShardRunOptions options;
    options.stop_requested = stop_requested;
    if (cli.get_flag("progress")) {
      options.on_progress = [](const campaign::ShardProgress& p) {
        std::uint64_t discrepancies = 0;
        for (const auto& stats : p.per_level)
          discrepancies += stats.discrepancy_total();
        std::printf("[campaign] programs %llu/%llu, discrepancies %llu\n",
                    static_cast<unsigned long long>(p.cursor),
                    static_cast<unsigned long long>(p.end),
                    static_cast<unsigned long long>(discrepancies));
        std::fflush(stdout);
      };
    }
    campaign::ShardProgress progress = campaign::run_shard(config, options);
    if (!progress.complete()) {
      std::printf("campaign interrupted at program %llu/%llu; an in-memory "
                  "run keeps nothing (run it as --worker DIR to make it "
                  "resumable)\n",
                  static_cast<unsigned long long>(progress.cursor),
                  static_cast<unsigned long long>(progress.end));
      return 3;
    }
    const support::Json echo = progress.config_echo;
    finish_campaign(cli, campaign::merge_shards({std::move(progress)}), echo,
                    "");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudiff-campaign: %s\n", e.what());
    return 2;
  }
}
