// Equivalence and fault-injection tests for the work-stealing lease
// scheduler (campaign/scheduler.hpp).  The load-bearing property: however
// a fleet of workers carves, steals, duplicates, dies or is interrupted,
// the merged CampaignResults must be byte-identical to the single-process
// diff::run_campaign output.
//
// The fault-injection half drives the real gpudiff-campaign binary as a
// child process (located via the GPUDIFF_CAMPAIGN_BIN environment
// variable, wired up by CMake) so SIGKILL/SIGINT exercise the actual
// signal-handler and process-death paths, not in-process simulations, and
// the command line's mode checks are tested where users meet them.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.hpp"
#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "diff/campaign.hpp"
#include "support/json.hpp"
#include "support/lockfile.hpp"

namespace {

using namespace gpudiff;
using campaign::LeaseBoard;
using campaign::WorkerOptions;
using campaign::WorkerOutcome;

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

int count_files_with_suffix(const std::string& dir, const std::string& suffix) {
  int n = 0;
  if (!std::filesystem::is_directory(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      ++n;
  }
  return n;
}

/// The ResultBlock a lease worker would publish for [begin, end).
campaign::ResultBlock make_block(const diff::CampaignConfig& cfg,
                                 std::uint64_t begin, std::uint64_t end) {
  diff::RangeOutcome out = diff::run_campaign_range(cfg, begin, end);
  campaign::ResultBlock block;
  block.config_echo = campaign::config_to_json(cfg);
  block.begin = begin;
  block.end = end;
  block.per_level = std::move(out.per_level);
  block.records = std::move(out.records);
  return block;
}

bool wait_until(const std::function<bool()>& pred, double seconds = 30.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// ---------------------------------------------------------------------------
// scheduler equivalence: merged lease dir == single process, byte for byte
// ---------------------------------------------------------------------------

TEST(Scheduler, SingleWorkerMatchesSingleProcessByteForByte) {
  const auto cfg = small_config();
  TempDir dir("gpudiff_sched_single");
  WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 4;
  options.worker_id = "w0";
  const WorkerOutcome outcome = campaign::run_worker(cfg, options);
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, campaign::lease_count(45, 4));
  EXPECT_EQ(outcome.leases_stolen, 0);
  EXPECT_EQ(outcome.programs_executed, 45u);
  EXPECT_TRUE(campaign::campaign_complete(dir.str()));
  EXPECT_EQ(count_files_with_suffix(dir.str(), ".claim"), 0)
      << "completed worker left claim files behind";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Scheduler, ThreeWorkerFleetSelfBalancesByteForByte) {
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir dir("gpudiff_sched_fleet");
  std::vector<WorkerOutcome> outcomes(3);
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      WorkerOptions options;
      options.dir = dir.str();
      options.lease_size = 2;
      // Effectively disable staleness: a CI box descheduling a worker
      // thread for a minute must not turn into a legitimate steal that
      // breaks the exactly-once assertion below.
      options.stale_after_seconds = 1e9;
      options.worker_id = "fleet-" + std::to_string(i);
      outcomes[static_cast<std::size_t>(i)] = campaign::run_worker(cfg, options);
    });
  }
  for (auto& w : workers) w.join();

  int total_leases = 0;
  std::uint64_t total_programs = 0;
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.campaign_complete);
    total_leases += o.leases_completed;
    total_programs += o.programs_executed;
  }
  // Nothing is stale in a live fleet, claims are exclusive, and a claim
  // won after a peer's release is re-checked against the peer's done file
  // before executing — so every lease runs exactly once.
  EXPECT_EQ(total_leases, campaign::lease_count(45, 2));
  EXPECT_EQ(total_programs, 45u);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), direct);
}

TEST(Scheduler, OversizedLeaseAndZeroProgramEdges) {
  // lease_size > campaign: one lease holds everything.
  const auto cfg = small_config(5);
  TempDir dir("gpudiff_sched_oversized");
  WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 1000;
  options.worker_id = "w0";
  const WorkerOutcome outcome = campaign::run_worker(cfg, options);
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, 1);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));

  // Zero programs: zero leases, trivially complete, still mergeable.
  const auto empty_cfg = small_config(0);
  TempDir empty_dir("gpudiff_sched_empty");
  WorkerOptions empty_options;
  empty_options.dir = empty_dir.str();
  empty_options.worker_id = "w0";
  const WorkerOutcome empty_outcome =
      campaign::run_worker(empty_cfg, empty_options);
  EXPECT_TRUE(empty_outcome.campaign_complete);
  EXPECT_EQ(empty_outcome.leases_completed, 0);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(empty_dir.str())),
            canonical(diff::run_campaign(empty_cfg)));
}

TEST(Scheduler, DoneFilesAreByteIdenticalAcrossIndependentFleets) {
  // A lease's result block is a pure function of (config, range): two
  // fleets that execute the same campaign in different orders publish
  // byte-identical done files.  This is the invariant that makes
  // at-least-once execution (steals, duplicated leases) safe.
  const auto cfg = small_config(20);
  TempDir dir_a("gpudiff_sched_pure_a");
  TempDir dir_b("gpudiff_sched_pure_b");
  for (const auto& [dir, worker] :
       {std::pair{dir_a.str(), "alpha"}, std::pair{dir_b.str(), "beta"}}) {
    WorkerOptions options;
    options.dir = dir;
    options.lease_size = 3;
    options.worker_id = worker;
    ASSERT_TRUE(campaign::run_worker(cfg, options).campaign_complete);
  }
  const int count = campaign::lease_count(20, 3);
  for (int k = 0; k < count; ++k) {
    const std::string name = "/lease-" + std::to_string(k) + ".done.json";
    EXPECT_EQ(support::read_file(dir_a.str() + name),
              support::read_file(dir_b.str() + name))
        << "lease " << k;
  }
}

// ---------------------------------------------------------------------------
// stale-lease reclamation (work stealing)
// ---------------------------------------------------------------------------

TEST(Scheduler, StaleClaimIsStolenAndMergeStaysByteIdentical) {
  const auto cfg = small_config();
  TempDir dir("gpudiff_sched_stale");
  // A "dead" worker claimed lease 0 an hour ago and never heartbeat again.
  LeaseBoard dead(dir.str(), "dead");
  dead.publish_or_verify_manifest(campaign::config_to_json(cfg), 4,
                                  campaign::lease_count(45, 4));
  ASSERT_TRUE(dead.try_claim(0));
  ASSERT_TRUE(support::age_file(dead.claim_path(0), 3600.0));

  WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 4;
  options.stale_after_seconds = 60.0;  // 1h-old claim is way past stale
  options.worker_id = "rescuer";
  const WorkerOutcome outcome = campaign::run_worker(cfg, options);
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_stolen, 1);
  EXPECT_EQ(count_files_with_suffix(dir.str(), ".claim"), 0);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Scheduler, FreshClaimIsRespected) {
  const auto cfg = small_config(20);
  TempDir dir("gpudiff_sched_fresh");
  const int count = campaign::lease_count(20, 4);
  LeaseBoard peer(dir.str(), "live-peer");
  peer.publish_or_verify_manifest(campaign::config_to_json(cfg), 4, count);
  ASSERT_TRUE(peer.try_claim(0));

  // The worker must finish every other lease, refuse to steal the fresh
  // claim, and wait — the stop hook fires once only lease 0 remains.
  WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 4;
  options.stale_after_seconds = 1e6;
  options.worker_id = "patient";
  options.stop_requested = [&] {
    return count_files_with_suffix(dir.str(), ".done.json") >= count - 1;
  };
  const WorkerOutcome outcome = campaign::run_worker(cfg, options);
  EXPECT_FALSE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, count - 1);
  EXPECT_EQ(outcome.leases_stolen, 0);
  EXPECT_TRUE(std::filesystem::exists(peer.claim_path(0)))
      << "a live peer's fresh claim was disturbed";

  // Once the peer releases, any worker finishes the campaign.
  peer.release(0);
  WorkerOptions finish = options;
  finish.stop_requested = nullptr;
  finish.worker_id = "finisher";
  EXPECT_TRUE(campaign::run_worker(cfg, finish).campaign_complete);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Scheduler, ClaimProtocolIsExclusiveAndOwnershipAware) {
  const auto cfg = small_config(10);
  TempDir dir("gpudiff_sched_protocol");
  const int count = campaign::lease_count(10, 2);
  LeaseBoard a(dir.str(), "a");
  LeaseBoard b(dir.str(), "b");
  a.publish_or_verify_manifest(campaign::config_to_json(cfg), 2, count);
  b.publish_or_verify_manifest(campaign::config_to_json(cfg), 2, count);

  EXPECT_TRUE(a.try_claim(3));
  EXPECT_FALSE(b.try_claim(3)) << "claims must be exclusive";
  EXPECT_GE(a.claim_age_seconds(3), 0.0);
  EXPECT_TRUE(a.heartbeat(3));
  EXPECT_FALSE(b.heartbeat(3)) << "heartbeat must verify ownership";

  // release is ownership-aware: b abandoning does not clear a's claim.
  b.release(3);
  EXPECT_TRUE(std::filesystem::exists(a.claim_path(3)));

  // A steal transfers ownership atomically; the old owner's heartbeat and
  // release become no-ops on the new claim.
  EXPECT_TRUE(b.try_steal(3));
  EXPECT_FALSE(a.heartbeat(3));
  a.release(3);
  EXPECT_TRUE(std::filesystem::exists(b.claim_path(3)));
  b.release(3);
  EXPECT_FALSE(std::filesystem::exists(b.claim_path(3)));

  // Stealing a nonexistent claim loses the race cleanly.
  EXPECT_FALSE(a.try_steal(4));
  EXPECT_EQ(a.claim_age_seconds(4), -1.0);
}

TEST(Scheduler, ReapsTempFilesStrandedByKilledPublishers) {
  // A SIGKILL between a temp write and its link/rename strands the temp
  // in the shared directory; workers reap temps older than the staleness
  // window at startup, and leave fresh ones (a live publisher mid-write)
  // alone.
  const auto cfg = small_config(20);
  TempDir dir("gpudiff_sched_reap");
  std::filesystem::create_directories(dir.path);
  const auto plant = [&](const std::string& name, double age) {
    const std::string path = dir.str() + "/" + name;
    support::write_file(path, "{}");
    ASSERT_TRUE(support::age_file(path, age));
  };
  plant("lease-0.claim.deadworker", 3600.0);        // claim temp
  plant("lease-1.claim.stale.deadworker", 3600.0);  // steal tombstone
  plant("lease-2.done.json.tmp.deadworker", 3600.0);
  plant("campaign.json.deadworker", 3600.0);
  plant("lease-3.claim.liveworker", 0.0);  // fresh: must survive

  WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 4;
  options.stale_after_seconds = 60.0;
  options.worker_id = "w0";
  const WorkerOutcome outcome = campaign::run_worker(cfg, options);
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_FALSE(std::filesystem::exists(dir.str() + "/lease-0.claim.deadworker"));
  EXPECT_FALSE(
      std::filesystem::exists(dir.str() + "/lease-1.claim.stale.deadworker"));
  EXPECT_FALSE(
      std::filesystem::exists(dir.str() + "/lease-2.done.json.tmp.deadworker"));
  EXPECT_FALSE(std::filesystem::exists(dir.str() + "/campaign.json.deadworker"));
  EXPECT_TRUE(std::filesystem::exists(dir.str() + "/lease-3.claim.liveworker"));
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Scheduler, RejectsMismatchedManifest) {
  auto cfg = small_config(10);
  TempDir dir("gpudiff_sched_mismatch");
  WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 4;
  options.worker_id = "w0";
  ASSERT_TRUE(campaign::run_worker(cfg, options).campaign_complete);

  // Different campaign configuration, same dir: refused.
  auto other = cfg;
  other.seed = 99;
  EXPECT_THROW(campaign::run_worker(other, options), std::runtime_error);
  // Same campaign, different lease geometry: also refused.
  WorkerOptions regeared = options;
  regeared.lease_size = 5;
  EXPECT_THROW(campaign::run_worker(cfg, regeared), std::runtime_error);
}

TEST(Scheduler, MergeRejectsUnfinishedLeaseDir) {
  const auto cfg = small_config(20);
  TempDir dir("gpudiff_sched_unfinished");
  WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 4;
  options.worker_id = "w0";
  int leases_done = 0;
  options.on_lease = [&](const WorkerOptions::LeaseEvent&) { ++leases_done; };
  options.stop_requested = [&] { return leases_done >= 2; };
  const WorkerOutcome outcome = campaign::run_worker(cfg, options);
  EXPECT_FALSE(outcome.campaign_complete);
  EXPECT_THROW(campaign::merge_lease_dir(dir.str()), std::runtime_error);
  EXPECT_FALSE(campaign::campaign_complete(dir.str()));
}

TEST(Scheduler, StopFlushesInFlightLeaseAndReleasesEveryClaim) {
  // The graceful-interrupt contract (the SIGINT fix, in-process form):
  // a stop request mid-campaign still publishes the lease being executed
  // and releases all claims, so nothing the worker touched is stranded.
  const auto cfg = small_config();
  TempDir dir("gpudiff_sched_stop");
  WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 4;
  options.worker_id = "interrupted";
  int leases_done = 0;
  options.on_lease = [&](const WorkerOptions::LeaseEvent&) { ++leases_done; };
  options.stop_requested = [&] { return leases_done >= 3; };
  const WorkerOutcome outcome = campaign::run_worker(cfg, options);
  EXPECT_FALSE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, 3);
  EXPECT_EQ(count_files_with_suffix(dir.str(), ".done.json"), 3)
      << "every completed lease must be published before exiting";
  EXPECT_EQ(count_files_with_suffix(dir.str(), ".claim"), 0)
      << "an interrupted worker must not strand claimed work";

  WorkerOptions finish;
  finish.dir = dir.str();
  finish.lease_size = 4;
  finish.worker_id = "finisher";
  const WorkerOutcome finished = campaign::run_worker(cfg, finish);
  EXPECT_TRUE(finished.campaign_complete);
  EXPECT_EQ(finished.leases_stolen, 0) << "released claims need no stealing";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

// ---------------------------------------------------------------------------
// merge generalization: variable-size blocks
// ---------------------------------------------------------------------------

TEST(MergeBlocks, VariableSizedBlocksMatchUnsharded) {
  const auto cfg = small_config();
  const support::Json echo = campaign::config_to_json(cfg);
  // Deliberately irregular carve, including an empty block.
  std::vector<campaign::ResultBlock> blocks;
  blocks.push_back(make_block(cfg, 8, 30));
  blocks.push_back(make_block(cfg, 0, 7));
  blocks.push_back(make_block(cfg, 30, 30));
  blocks.push_back(make_block(cfg, 7, 8));
  blocks.push_back(make_block(cfg, 30, 45));
  EXPECT_EQ(canonical(campaign::merge_blocks(echo, std::move(blocks))),
            canonical(diff::run_campaign(cfg)));

  // More leases than programs: the empty ranges still merge.
  const auto tiny = small_config(3);
  std::vector<campaign::ResultBlock> tiny_blocks;
  for (int k = 0; k < 7; ++k) {
    const auto [begin, end] = campaign::lease_range(3, 7, k);
    tiny_blocks.push_back(make_block(tiny, begin, end));
  }
  EXPECT_EQ(canonical(campaign::merge_blocks(campaign::config_to_json(tiny),
                                             std::move(tiny_blocks))),
            canonical(diff::run_campaign(tiny)));
}

TEST(MergeBlocks, RejectsGapsOverlapsAndForeignConfigs) {
  const auto cfg = small_config(10);
  const support::Json echo = campaign::config_to_json(cfg);
  const auto block = [&](std::uint64_t begin, std::uint64_t end) {
    return make_block(cfg, begin, end);
  };
  const auto merge_two = [&](campaign::ResultBlock a, campaign::ResultBlock b) {
    std::vector<campaign::ResultBlock> blocks;
    blocks.push_back(std::move(a));
    blocks.push_back(std::move(b));
    return campaign::merge_blocks(echo, std::move(blocks));
  };
  // Gap: [0,4) + [6,10).
  EXPECT_THROW(merge_two(block(0, 4), block(6, 10)), std::runtime_error);
  // Overlap: [0,6) + [4,10).
  EXPECT_THROW(merge_two(block(0, 6), block(4, 10)), std::runtime_error);
  // The same block twice.
  EXPECT_THROW(merge_two(block(0, 10), block(0, 10)), std::runtime_error);
  // Incomplete cover: [0,4) + [4,8).
  EXPECT_THROW(merge_two(block(0, 4), block(4, 8)), std::runtime_error);
  // Foreign configuration fingerprints: an empty one, and a real block of
  // the same range under another seed.
  auto foreign = block(4, 10);
  foreign.config_echo = support::Json::object();
  EXPECT_THROW(merge_two(block(0, 4), std::move(foreign)), std::runtime_error);
  auto reseeded = small_config(10);
  reseeded.seed = 4321;
  EXPECT_THROW(merge_two(block(0, 4), make_block(reseeded, 4, 10)),
               std::runtime_error);
  // Empty block list is valid only for a 0-program campaign.
  EXPECT_THROW(campaign::merge_blocks(echo, {}), std::runtime_error);
  EXPECT_NO_THROW(campaign::merge_blocks(
      campaign::config_to_json(small_config(0)), {}));
  // The valid carve still works, in either order.
  EXPECT_EQ(canonical(merge_two(block(4, 10), block(0, 4))),
            canonical(diff::run_campaign(cfg)));
}

// ---------------------------------------------------------------------------
// fault injection against the real binary (SIGKILL / SIGINT)
// ---------------------------------------------------------------------------

/// Path to the gpudiff-campaign binary, wired through CMake; null when the
/// test binary runs outside CTest.
const char* campaign_binary() { return std::getenv("GPUDIFF_CAMPAIGN_BIN"); }

pid_t spawn_campaign(const std::vector<std::string>& args) {
  const char* bin = campaign_binary();
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

int wait_for_exit(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

/// Shared flags matching small_config(45): both sides of every byte
/// comparison must describe the same campaign.
std::vector<std::string> worker_args(const std::string& dir) {
  return {"--worker",     dir,    "--programs", "45",   "--inputs",
          "5",            "--seed", "1234",     "--lease-size", "2",
          "--heartbeat",  "0.05"};
}

TEST(FaultInjection, SigkilledWorkerIsReclaimedByteForByte) {
  if (campaign_binary() == nullptr)
    GTEST_SKIP() << "GPUDIFF_CAMPAIGN_BIN not set (run under CTest)";
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir dir("gpudiff_sched_sigkill");

  // Stale-after is huge for the victim so the orphaned claim is
  // unambiguously the kill's doing, not a timeout.
  auto args = worker_args(dir.str());
  args.insert(args.end(), {"--stale-after", "100000", "--worker-id", "victim"});
  const pid_t victim = spawn_campaign(args);
  ASSERT_GT(victim, 0);
  // SIGKILL the instant the victim is inside the campaign (it has claimed
  // or even finished a lease) — no grace, no handler, no cleanup.
  ASSERT_TRUE(wait_until([&] {
    return count_files_with_suffix(dir.str(), ".claim") > 0 ||
           count_files_with_suffix(dir.str(), ".done.json") > 0;
  })) << "victim never started claiming leases";
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  const int status = wait_for_exit(victim);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  // A claim is stranded — and must be stolen — only if its lease has no
  // done file.  (A kill between publish_done and release leaves a claim
  // on an already-done lease, which the rescuer rightly skips.)
  bool orphaned_claim = false;
  std::string snapshot;
  for (const auto& entry : std::filesystem::directory_iterator(dir.str())) {
    const std::string path = entry.path().string();
    snapshot += entry.path().filename().string() + "\n";
    if (path.size() < 6 || path.compare(path.size() - 6, 6, ".claim") != 0)
      continue;
    const std::string done =
        path.substr(0, path.size() - 6) + ".done.json";
    if (!std::filesystem::exists(done)) orphaned_claim = true;
  }

  // A rescuer with an aggressive staleness window reclaims the orphan and
  // finishes the campaign.
  WorkerOptions rescue;
  rescue.dir = dir.str();
  rescue.lease_size = 2;
  rescue.stale_after_seconds = 0.0;
  rescue.worker_id = "rescuer";
  const WorkerOutcome outcome = campaign::run_worker(cfg, rescue);
  EXPECT_TRUE(outcome.campaign_complete);
  if (orphaned_claim)
    EXPECT_GE(outcome.leases_stolen, 1)
        << "post-kill snapshot was:\n" << snapshot;
  // Whatever the kill window hit — mid-lease (stolen) or between publish
  // and release (reaped) — the rescuer leaves no claim behind.
  EXPECT_EQ(count_files_with_suffix(dir.str(), ".claim"), 0);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), direct);
}

TEST(FaultInjection, SigintWorkerFlushesLeaseAndStrandsNothing) {
  // Regression test for the SIGINT fix: an interrupted --worker must
  // publish the lease it is executing and release every claim before
  // exiting, so the rest of the fleet continues at full speed (no
  // stale-after wait) and the merge stays byte-identical.
  if (campaign_binary() == nullptr)
    GTEST_SKIP() << "GPUDIFF_CAMPAIGN_BIN not set (run under CTest)";
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir dir("gpudiff_sched_sigint");

  auto args = worker_args(dir.str());
  args.insert(args.end(),
              {"--stale-after", "100000", "--worker-id", "interrupted"});
  const pid_t pid = spawn_campaign(args);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_until([&] {
    return count_files_with_suffix(dir.str(), ".done.json") > 0;
  })) << "worker never completed a lease";
  ASSERT_EQ(::kill(pid, SIGINT), 0);
  const int status = wait_for_exit(pid);
  ASSERT_TRUE(WIFEXITED(status));
  // 3 = interrupted before campaign completion; 0 = the signal raced a
  // fast campaign to the finish line.  Both are graceful exits.
  EXPECT_TRUE(WEXITSTATUS(status) == 3 || WEXITSTATUS(status) == 0)
      << "unexpected exit code " << WEXITSTATUS(status);
  EXPECT_EQ(count_files_with_suffix(dir.str(), ".claim"), 0)
      << "SIGINT stranded a claimed lease";
  // Every published done file is whole (atomic write-then-rename).
  for (const auto& entry : std::filesystem::directory_iterator(dir.str())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("lease-", 0) == 0 && name.find(".done.json") != std::string::npos)
      EXPECT_NO_THROW(campaign::block_from_json(
          support::Json::parse(support::read_file(entry.path().string())),
          nullptr, nullptr))
          << name;
  }

  // With every claim released, a finisher needs no staleness window at all.
  WorkerOptions finish;
  finish.dir = dir.str();
  finish.lease_size = 2;
  finish.stale_after_seconds = 1e6;
  finish.worker_id = "finisher";
  const WorkerOutcome outcome = campaign::run_worker(cfg, finish);
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_stolen, 0);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), direct);
}

/// Like wait_for_exit, but a child still running after `seconds` is
/// SIGKILLed and reported as -1.
int wait_for_exit_within(pid_t pid, double seconds) {
  int status = 0;
  const bool exited = wait_until(
      [&] { return ::waitpid(pid, &status, WNOHANG) == pid; }, seconds);
  if (exited) return status;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return -1;
}

TEST(FaultInjection, ConflictingModesAreRefusedBeforeAnyWork) {
  // A --coordinator worker never holds the merged results, so asking it
  // for a report, tables or reductions must fail up front with exit 1 —
  // not after the whole campaign has run, with the outputs dropped.  The
  // three modes are exclusive the same way.  No coordinator listens on
  // the address: a binary that started work would retry it until killed.
  if (campaign_binary() == nullptr)
    GTEST_SKIP() << "GPUDIFF_CAMPAIGN_BIN not set (run under CTest)";
  TempDir dir("gpudiff_sched_modes");
  const std::string report = dir.str() + "-report.json";
  std::filesystem::remove(report);
  const std::string coordinator = "127.0.0.1:1";
  const std::vector<std::vector<std::string>> refused = {
      {"--coordinator", coordinator, "--report", report},
      {"--coordinator", coordinator, "--tables"},
      {"--coordinator", coordinator, "--reduce-exemplars"},
      {"--coordinator", coordinator, "--worker", dir.str()},
      {"--merge", dir.str(), "--worker", dir.str()},
      {"--merge", dir.str(), "--coordinator", coordinator},
  };
  for (auto args : refused) {
    std::string line;
    for (const auto& a : args) line += a + " ";
    args.insert(args.end(), {"--programs", "45"});
    const pid_t pid = spawn_campaign(args);
    ASSERT_GT(pid, 0);
    const int status = wait_for_exit_within(pid, 10.0);
    ASSERT_NE(status, -1) << line << ": still running after 10 s";
    ASSERT_TRUE(WIFEXITED(status)) << line;
    EXPECT_EQ(WEXITSTATUS(status), 1) << line;
    EXPECT_FALSE(std::filesystem::exists(dir.str())) << line;
    EXPECT_FALSE(std::filesystem::exists(report)) << line;
  }
}

}  // namespace
