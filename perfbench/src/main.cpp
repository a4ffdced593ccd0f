// perfbench: end-to-end campaign benchmark (one workload per process).
//
//   perfbench --workload paper --seed 1 --seconds 10 --trace 0
//             --work-dir perfbench/work/paper
//
// Runs iterations of the workload (workloads.hpp) until --seconds of
// measured time have passed, checks every iteration's outputs off the
// clock, and prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics (evals_per_s, triage_s,
// peak_rss_mb; run.py adds setup_s, the median set-up time of several
// --setup-only processes), each timing as its slow quartile over the
// iterations.  --setup-only prints the set-up time and exits.
// --trace 1 alternates untraced and traced iterations of one campaign
// seed, requires their outputs to be byte-identical, and reports the
// per-layer metrics of the traced iteration with the median wall time; its
// spans go to a Chrome trace-event file.
//
// Host and build facts are printed on "# host" lines, never written into
// campaign reports.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/cli.hpp"
#include "support/cpu.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "vgpu/bytecode.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using gpudiff::support::Json;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Campaign seed of iteration k: the k-th SplitMix64 output of --seed.
std::uint64_t iteration_seed(std::uint64_t seed, int k) {
  gpudiff::support::SplitMix64 mix(seed);
  std::uint64_t s = mix.next();
  for (int i = 0; i < k; ++i) s = mix.next();
  return s;
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_host(const std::string& workload) {
  Json host = Json::object();
  host["workload"] = workload;
  host["build_type"] = PERFBENCH_BUILD_TYPE;
  host["simd_engine"] = gpudiff::vgpu::to_string(gpudiff::vgpu::simd_engine());
  host["cpu_features"] = gpudiff::support::cpu_features().to_string();
  host["nproc"] = std::thread::hardware_concurrency();
  double load[3] = {0.0, 0.0, 0.0};
  Json loadavg = Json::array();
  if (getloadavg(load, 3) == 3)
    for (const double l : load) loadavg.push_back(l);
  host["loadavg"] = std::move(loadavg);
  std::printf("# host %s\n", host.dump().c_str());
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
    std::fprintf(stderr,
                 "perfbench: WARNING: %s build; timings are only meaningful "
                 "from a Release build\n",
                 PERFBENCH_BUILD_TYPE);
}

/// Every span name recorded on the benchmark thread.  Each one's self time
/// is reported as "<name>_s", except the root "iteration", whose self time
/// is trace.untracked_s; together they add up to the iteration's wall time.
const char* const kMainThreadSpans[] = {
    "gen.generate",   "gen.inputs",         "opt.compile",    "vgpu.execute",
    "diff.classify",  "diff.record",        "campaign.merge", "campaign.serialize",
    "campaign.fleet", "store.ingest",       "store.load",     "store.query",
    "reduce.record",  "iteration",
};

/// Traced runs and short untraced runs still take this many iterations.
constexpr int kMinIterations = 3;

/// Largest untraced/traced speed ratio (either way) a single-process
/// traced run may show.
constexpr double kMaxTraceOverhead = 1.5;

std::vector<Metric> layer_metrics(const IterationResult& r,
                                  const std::vector<Span>& spans,
                                  double overhead, Tally& tally) {
  const SelfTimes st = self_times(spans, kMainTid);
  std::vector<Metric> m;
  const auto self = [&](const char* name) {
    const auto it = st.self_s.find(name);
    return it == st.self_s.end() ? 0.0 : it->second;
  };
  const auto durations = [&](const char* name) {
    const auto it = st.durations_s.find(name);
    return it == st.durations_s.end() ? std::vector<double>{} : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };

  // The accounting identity: layer self times + untracked = wall time.
  double accounted = 0.0;
  std::set<std::string> known;
  for (const char* span : kMainThreadSpans) {
    known.insert(span);
    accounted += self(span);
  }
  bool all_known = true;
  for (const auto& [name, s] : st.self_s) all_known = all_known && known.count(name);
  tally.check(st.nested && all_known &&
                  std::abs(accounted - st.root_s) <= 1e-6 * std::max(1.0, st.root_s),
              "per-layer self times do not add up to the traced wall time");

  const LayerCounts& c = r.counts;
  const TransportStats& t = r.transport;
  const Tail claim = tail_of(t.claim_ms);
  const Tail publish = tail_of(t.publish_ms);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  m.push_back({"gen.generate_s", self("gen.generate"), "s"});
  m.push_back({"gen.inputs_s", self("gen.inputs"), "s"});
  m.push_back({"gen.programs", count(c.programs), "count"});
  m.push_back({"gen.ir_nodes", count(c.ir_nodes), "count"});
  m.push_back({"opt.compile_s", self("opt.compile"), "s"});
  m.push_back({"opt.compiles", count(c.compiles), "count"});
  m.push_back({"opt.ir_nodes_out", count(c.ir_nodes_out), "count"});
  m.push_back({"vgpu.execute_s", self("vgpu.execute"), "s"});
  m.push_back({"vgpu.runs", count(c.runs), "count"});
  m.push_back({"vgpu.ops", count(c.ops), "count"});
  m.push_back({"diff.classify_s", self("diff.classify"), "s"});
  m.push_back({"diff.record_s", self("diff.record"), "s"});
  m.push_back({"diff.comparisons", count(c.comparisons), "count"});
  m.push_back({"diff.discrepancies", count(c.discrepancies), "count"});
  m.push_back({"campaign.merge_s", self("campaign.merge"), "s"});
  m.push_back({"campaign.serialize_s", self("campaign.serialize"), "s"});
  m.push_back({"campaign.report_bytes", count(c.report_bytes), "bytes"});
  m.push_back({"campaign.fleet_s", self("campaign.fleet"), "s"});
  m.push_back({"campaign.lease.exec_s", t.lease_s, "s"});
  m.push_back({"campaign.lease.count", static_cast<double>(r.lease_count), "count"});
  m.push_back({"campaign.lease.executed", count(t.leases_published), "count"});
  m.push_back({"campaign.lease.useful_ratio",
               ratio(r.lease_count, static_cast<double>(t.leases_published)),
               "ratio"});
  m.push_back({"campaign.transport.claim_ms_p50", quantile(t.claim_ms, 0.5), "ms"});
  m.push_back({"campaign.transport.claim_ms_tail", claim.value, "ms"});
  m.push_back({"campaign.transport.claim_tail_pct", claim.percentile, "%"});
  m.push_back({"campaign.transport.claim_samples", count(claim.samples), "count"});
  m.push_back({"campaign.transport.publish_ms_p50", quantile(t.publish_ms, 0.5), "ms"});
  m.push_back({"campaign.transport.publish_ms_tail", publish.value, "ms"});
  m.push_back({"campaign.transport.publish_tail_pct", publish.percentile, "%"});
  m.push_back({"campaign.transport.publish_samples", count(publish.samples), "count"});
  m.push_back({"campaign.transport.scan_s", t.scan_s, "s"});
  m.push_back({"campaign.transport.requests", count(t.requests), "count"});
  m.push_back({"campaign.transport.errors", count(t.errors), "count"});
  m.push_back({"campaign.worker.idle_s",
               r.worker_wall_s == 0.0
                   ? 0.0
                   : r.worker_wall_s - t.lease_s - t.outside_s,
               "s"});
  m.push_back({"store.ingest_s", self("store.ingest"), "s"});
  m.push_back({"store.load_s", self("store.load"), "s"});
  m.push_back({"store.query_s", self("store.query"), "s"});
  m.push_back({"store.query_ms_p50", quantile(durations("store.query"), 0.5) * 1e3, "ms"});
  m.push_back({"store.queries", count(c.store_queries), "count"});
  m.push_back({"reduce.record_s", self("reduce.record"), "s"});
  m.push_back({"reduce.records", count(c.reductions), "count"});
  m.push_back({"reduce.checks", count(c.reduce_checks), "count"});
  m.push_back({"reduce.accept_ratio",
               ratio(static_cast<double>(c.reduce_steps),
                     static_cast<double>(c.reduce_checks)),
               "ratio"});
  m.push_back({"reduce.stmt_ratio",
               ratio(static_cast<double>(c.stmts_after),
                     static_cast<double>(c.stmts_before)),
               "ratio"});
  m.push_back({"trace.untracked_s", self("iteration"), "s"});
  m.push_back({"trace.wall_s", st.root_s, "s"});
  m.push_back({"trace.overhead", overhead, "ratio"});
  m.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  return m;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("# %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  Json out = Json::object();
  out["correct"] = tally.failed == 0 && tally.attempted > 0;
  out["attempted"] = tally.attempted;
  out["failed"] = tally.failed;
  Json values = Json::object();
  for (const Metric& m : metrics) {
    Json v = Json::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    values[m.name] = std::move(v);
  }
  out["metrics"] = std::move(values);
  std::printf("%s\n", out.dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  gpudiff::support::CliParser cli("perfbench",
                                  "End-to-end campaign benchmark");
  cli.add_string("workload", 'w', "paper, diverse or pipeline", "paper");
  cli.add_int("seed", 's', "benchmark seed (campaign seeds derive from it)", 1);
  cli.add_double("seconds", 'S', "measured seconds per run", 10.0);
  cli.add_int("trace", 'T', "0: end-to-end metrics; 1: per-layer metrics", 0);
  cli.add_string("work-dir", 'd', "scratch directory (wiped)", "perfbench/work");
  cli.add_flag("tiny", "self-test sizes");
  cli.add_flag("setup-only", "set up, print the set-up time, exit");
  cli.add_double("spawn-time", 'P',
                 "CLOCK_MONOTONIC seconds at which this process was spawned; "
                 "set-up is timed from it (default: from main)",
                 0.0);
  if (!cli.parse(argc, argv)) return 2;

  const std::string name = cli.get_string("workload");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double seconds = cli.get_double("seconds");
  const bool traced = cli.get_int("trace") != 0;
  const std::string work_dir = cli.get_string("work-dir");
  const bool tiny = cli.get_flag("tiny");

  Tally tally;
  std::vector<Metric> metrics;
  try {
    // Set-up is what must happen before the first program runs: process
    // start, campaign configs, engine resolution and, for the fleet, a
    // coordinator start plus a worker's first connect.  Steady clock is
    // CLOCK_MONOTONIC, the clock --spawn-time is read from.
    const double spawn_time = cli.get_double("spawn-time");
    const Clock::time_point main_start = Clock::now();
    std::filesystem::remove_all(work_dir);
    std::filesystem::create_directories(work_dir);
    const double wipe_s = seconds_between(main_start, Clock::now());
    const Clock::time_point setup_start =
        spawn_time > 0.0
            ? Clock::time_point(std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spawn_time)))
            : main_start;
    const Workload first = make_workload(name, iteration_seed(seed, 0), tiny);
    gpudiff::vgpu::simd_engine();
    std::unique_ptr<gpudiff::campaign::Coordinator> fleet;
    if (first.fleet) fleet = start_fleet(first, work_dir + "/setup");
    const double setup_s = seconds_between(setup_start, Clock::now()) - wipe_s;
    if (fleet) fleet->stop();
    if (cli.get_flag("setup-only")) {
      std::printf("setup_s %.17g\n", setup_s);
      return 0;
    }
    warm_up(first);
    print_host(name);

    const std::string iter_dir = work_dir + "/iteration";
    const Clock::time_point start = Clock::now();
    if (!traced) {
      std::vector<double> rates, triage;
      double measured = 0.0;
      for (int k = 0; k < kMinIterations || measured < seconds; ++k) {
        const Workload w = make_workload(name, iteration_seed(seed, k), tiny);
        const IterationResult r =
            run_iteration(w, iter_dir, nullptr, seed * 7919 + k, k == 0, tally);
        tally.check(r.evals > 0, "iteration evaluated nothing");
        rates.push_back(static_cast<double>(r.evals) / r.campaign_s);
        triage.push_back(r.triage_s);
        measured += r.wall_s;
        std::fprintf(stderr, "perfbench: %s iteration %d: %.0f evals/s, triage %.4f s\n",
                     name.c_str(), k, rates.back(), triage.back());
      }
      // The slow quartile: 3 of 4 iterations did at least this well.  A
      // median would flip between the fleet's two end-of-campaign modes
      // (README, "Steadiness").
      metrics.push_back({"evals_per_s", quantile(rates, 0.25), "1/s"});
      metrics.push_back({"triage_s", quantile(triage, 0.75), "s"});
      metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    } else {
      bind_thread(kMainTid, -1);
      std::vector<double> plain_rates, traced_rates;
      std::vector<IterationResult> results;
      std::vector<std::unique_ptr<Trace>> traces;
      for (int k = 0; k < kMinIterations ||
                      seconds_between(start, Clock::now()) < seconds;
           ++k) {
        const IterationResult plain =
            run_iteration(first, iter_dir, nullptr, seed * 7919, k == 0, tally);
        traces.push_back(std::make_unique<Trace>());
        IterationResult r = run_iteration(first, iter_dir, traces.back().get(),
                                          seed * 7919, false, tally);
        tally.check(r.digest == plain.digest,
                    "traced iteration's reports and bundles differ from the "
                    "untraced iteration's");
        plain_rates.push_back(static_cast<double>(plain.evals) / plain.campaign_s);
        traced_rates.push_back(static_cast<double>(r.evals) / r.campaign_s);
        results.push_back(std::move(r));
      }
      // The traced iteration with the median wall time speaks for the run.
      std::vector<std::size_t> order(results.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return results[a].wall_s < results[b].wall_s;
      });
      const std::size_t pick = order[(order.size() - 1) / 2];
      const std::vector<Span> spans = traces[pick]->spans();
      const double overhead = median(plain_rates) / median(traced_rates);
      // paper and diverse trace a copy of the library's campaign loop; if
      // the two loops stop doing the same work, their speeds part.
      if (!first.fleet)
        tally.check(overhead >= 1.0 / kMaxTraceOverhead &&
                        overhead <= kMaxTraceOverhead,
                    "trace.overhead " + std::to_string(overhead) +
                        " is out of bounds: the traced campaign loop no "
                        "longer matches diff::run_campaign_range");
      metrics = layer_metrics(results[pick], spans, overhead, tally);
      const std::string trace_out = work_dir + "/trace.json";
      write_chrome_trace(trace_out, spans,
                         {{kMainTid, "benchmark"},
                          {1, "worker-0"}, {2, "worker-1"}, {3, "worker-2"},
                          {101, "worker-0 heartbeat"}, {102, "worker-1 heartbeat"},
                          {103, "worker-2 heartbeat"}});
      std::printf("# trace written to %s\n", trace_out.c_str());
    }
  } catch (const std::exception& e) {
    tally.check(false, std::string("run aborted: ") + e.what());
  }
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}
