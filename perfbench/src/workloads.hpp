#pragma once
// The benchmark's three workloads and the off-clock checks of their output.
//
//   paper    — one process, threads = 1: the paper's campaign shape, an
//              FP64 campaign (3540 programs) then an FP32 one (2840), 7
//              inputs, 5 levels, nvcc vs hipcc, v1 reports; the path
//              gpudiff-campaign's single-process mode takes.
//   diverse  — one process, threads = 1: 3540 FP64 programs, one input
//              each, four platforms (nvcc, hipcc, hipcc-ftz,
//              nvcc-fastmath); compile-bound.
//   pipeline — a TCP Coordinator plus three worker threads running
//              run_worker over TcpLeaseTransport (default WorkerOptions) on
//              the paper's FP64 shape, then merge -> v2 report.
//
// Every workload ends with triage: its reports are ingested into a results
// store and queried (summary, trend, every pair drill-down).  pipeline also
// reduces its exemplar records (5 per (pair, class) cell) to reproducer
// bundles.
//
// An iteration is one pass of a workload.  Untraced iterations call the
// library exactly as the tools do; traced iterations run the same work
// with spans around each layer call (traced_campaign re-drives the
// campaign loop from the public gen/opt/vgpu/diff calls so the layers can
// be told apart), and must produce byte-identical reports and bundles.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/coordinator.hpp"
#include "diff/campaign.hpp"
#include "timed_transport.hpp"
#include "trace.hpp"

namespace perfbench {

struct Workload {
  std::vector<gpudiff::diff::CampaignConfig> campaigns;
  bool fleet = false;  ///< run through the TCP coordinator + 3 workers
};

/// The workload's campaigns for `seed`.  `tiny` shrinks program counts for
/// the self-test.  Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

/// Counts observed at layer boundaries of a traced iteration.
struct LayerCounts {
  std::uint64_t programs = 0;
  std::uint64_t ir_nodes = 0;
  std::uint64_t compiles = 0;
  std::uint64_t ir_nodes_out = 0;
  std::uint64_t runs = 0;
  std::uint64_t ops = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t discrepancies = 0;
  std::uint64_t report_bytes = 0;
  std::uint64_t reductions = 0;
  std::uint64_t reduce_checks = 0;
  std::uint64_t reduce_steps = 0;
  std::uint64_t stmts_before = 0;
  std::uint64_t stmts_after = 0;
  std::uint64_t store_queries = 0;
};

/// Operations attempted and failed (the result's "attempted"/"failed").
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Count one operation; a failure is reported on stderr with `what`.
  void check(bool ok, const std::string& what);
};

struct IterationResult {
  std::uint64_t evals = 0;  ///< CampaignResults::runs_total() summed
  double campaign_s = 0.0;  ///< first program -> last merged report on disk
  double triage_s = 0.0;    ///< last lease published / report -> last bundle
  double wall_s = 0.0;      ///< the whole iteration (root span)
  std::string digest;       ///< fnv1a64 over report and bundle bytes
  LayerCounts counts;
  // Fleet only.
  TransportStats transport;
  double worker_wall_s = 0.0;  ///< summed worker thread wall time
  int lease_count = 0;
};

/// Run one iteration in a fresh `dir`, then check its outputs off the
/// clock into `tally`.  `trace` null = untraced.  `compare_fleet` adds the
/// costliest check, a fleet report against a single-process run_campaign.
IterationResult run_iteration(const Workload& workload, const std::string& dir,
                              Trace* trace, std::uint64_t check_seed,
                              bool compare_fleet, Tally& tally);

/// Fleet set-up: start a coordinator under `dir` and connect one worker to
/// it (the hello that publishes the campaign manifest), as run_worker's
/// first call does.  Returns the running coordinator; its stop() waits up
/// to the coordinator's I/O timeout, so callers stop it off the clock.
std::unique_ptr<gpudiff::campaign::Coordinator> start_fleet(
    const Workload& workload, const std::string& dir);

/// Off-clock warm-up: a few programs of every campaign shape (fixed seed),
/// so lazy initialization is not charged to the first measured iteration.
void warm_up(const Workload& workload);

}  // namespace perfbench
