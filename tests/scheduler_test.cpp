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

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.hpp"
#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/transport.hpp"
#include "diff/campaign.hpp"
#include "support/json.hpp"
#include "support/lockfile.hpp"

namespace {

using namespace gpudiff;
using campaign::FsLeaseTransport;
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
  // freed by a peer's publish is refused once the peer's done file exists
  // — so every lease runs exactly once.
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
  FsLeaseTransport dead(dir.str(), "dead");
  dead.publish_or_verify_manifest(campaign::config_to_json(cfg), 4,
                                  campaign::lease_count(45, 4));
  ASSERT_TRUE(dead.try_claim(0));
  ASSERT_TRUE(support::age_file(campaign::claim_path(dir.str(), 0), 3600.0));

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
  FsLeaseTransport peer(dir.str(), "live-peer");
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
  EXPECT_TRUE(std::filesystem::exists(campaign::claim_path(dir.str(), 0)))
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
  FsLeaseTransport a(dir.str(), "a");
  FsLeaseTransport b(dir.str(), "b");
  a.publish_or_verify_manifest(campaign::config_to_json(cfg), 2, count);
  b.publish_or_verify_manifest(campaign::config_to_json(cfg), 2, count);

  EXPECT_TRUE(a.try_claim(3));
  EXPECT_FALSE(b.try_claim(3)) << "claims must be exclusive";
  EXPECT_TRUE(a.try_claim(3))
      << "a claim retried by its owner must not read as a lost race";
  EXPECT_GE(a.claim_age_seconds(3), 0.0);
  EXPECT_TRUE(a.heartbeat(3));
  EXPECT_FALSE(b.heartbeat(3)) << "heartbeat must verify ownership";

  // release is ownership-aware: b abandoning does not clear a's claim.
  b.release(3);
  EXPECT_TRUE(std::filesystem::exists(campaign::claim_path(dir.str(), 3)));

  // A steal transfers ownership atomically; the old owner's heartbeat and
  // release become no-ops on the new claim.
  EXPECT_TRUE(b.try_steal(3));
  EXPECT_FALSE(a.heartbeat(3));
  a.release(3);
  EXPECT_TRUE(std::filesystem::exists(campaign::claim_path(dir.str(), 3)));
  b.release(3);
  EXPECT_FALSE(std::filesystem::exists(campaign::claim_path(dir.str(), 3)));

  // Stealing a nonexistent claim loses the race cleanly.
  EXPECT_FALSE(a.try_steal(4));
  EXPECT_EQ(a.claim_age_seconds(4), -1.0);
}

TEST(Scheduler, ClaimsRefuseFinishedLeasesAndPublishEndsTheClaim) {
  const auto cfg = small_config(10);
  TempDir dir("gpudiff_sched_finished");
  const int count = campaign::lease_count(10, 2);
  FsLeaseTransport a(dir.str(), "a");
  FsLeaseTransport b(dir.str(), "b");
  a.publish_or_verify_manifest(campaign::config_to_json(cfg), 2, count);
  b.publish_or_verify_manifest(campaign::config_to_json(cfg), 2, count);
  const auto block_of = [&](int k) {
    const auto [begin, end] = campaign::lease_range(10, count, k);
    return make_block(cfg, begin, end);
  };
  const auto claimed = [&](int k) {
    return std::filesystem::exists(campaign::claim_path(dir.str(), k));
  };

  // The publish ends the publisher's claim ...
  ASSERT_TRUE(a.try_claim(0));
  a.publish_done(0, count, block_of(0));
  EXPECT_TRUE(a.is_done(0));
  EXPECT_FALSE(claimed(0)) << "publish_done left its own claim behind";
  // ... and a claim on the finished lease, even by the publisher, is
  // refused with no claim file left.
  EXPECT_FALSE(b.try_claim(0)) << "a finished lease was claimed";
  EXPECT_FALSE(a.try_claim(0)) << "a finished lease was claimed";
  EXPECT_FALSE(claimed(0));

  // A stale claim on a finished lease (an owner killed between its done
  // file and the end of its claim) is reaped by the steal, not stolen.
  support::write_file(campaign::claim_path(dir.str(), 0),
                      campaign::claim_document(0, "dead"));
  ASSERT_TRUE(support::age_file(campaign::claim_path(dir.str(), 0), 3600.0));
  EXPECT_FALSE(b.try_steal(0)) << "a finished lease was stolen";
  EXPECT_FALSE(claimed(0));

  // Another worker's claim survives a publish: here a paused owner
  // publishes after its lease was stolen.
  ASSERT_TRUE(a.try_claim(1));
  ASSERT_TRUE(b.try_steal(1));
  a.publish_done(1, count, block_of(1));
  EXPECT_EQ(campaign::claim_owner(campaign::claim_path(dir.str(), 1)), "b")
      << "a publish removed another worker's claim";

  // A duplicate publish writes nothing: the done file keeps its bytes and
  // its mtime.
  const std::string done = campaign::done_path(dir.str(), 1);
  ASSERT_TRUE(support::age_file(done, 100.0));
  const std::string bytes = support::read_file(done);
  const auto mtime = std::filesystem::last_write_time(done);
  b.publish_done(1, count, block_of(1));
  EXPECT_EQ(support::read_file(done), bytes);
  EXPECT_EQ(std::filesystem::last_write_time(done), mtime)
      << "a duplicate publish rewrote the done file";
  EXPECT_FALSE(claimed(1)) << "the duplicate publish kept its claim";
}

TEST(Scheduler, ListDoneReadsOnlyDoneFilesOfThisPartition) {
  const auto cfg = small_config(20);
  TempDir dir("gpudiff_sched_list_done");
  const int count = campaign::lease_count(20, 2);  // 10 leases
  FsLeaseTransport board(dir.str(), "w");
  board.publish_or_verify_manifest(campaign::config_to_json(cfg), 2, count);
  for (const int k : {0, 2, 9})
    support::write_file(campaign::done_path(dir.str(), k), "{}");
  // Litter a crash, a quarantine, a claim or a hand may leave beside them.
  for (const std::string name :
       {"lease-3.done.json.tmp.w", "lease-4.done.json.quarantined",
        "lease-5.claim", "lease-5.claim.stale.w", "campaign.json.w",
        "lease-07.done.json", "lease-12.done.json", "lease-+1.done.json"})
    support::write_file(dir.str() + "/" + name, "{}");

  std::vector<int> one_by_one;
  for (int k = 0; k < count; ++k)
    if (board.is_done(k)) one_by_one.push_back(k);
  EXPECT_EQ(board.list_done(), one_by_one);
  EXPECT_EQ(board.list_done(), (std::vector<int>{0, 2, 9}));
  EXPECT_EQ(campaign::done_lease_of("lease-12.done.json"), 12);
  EXPECT_EQ(campaign::done_lease_of("lease-07.done.json"), -1);
  EXPECT_EQ(campaign::done_lease_of("lease-99999999999.done.json"), -1);
  // Claim names parse the same way (the board's housekeeping reaps the
  // claims it finds beside done files).
  EXPECT_EQ(campaign::claim_lease_of("lease-12.claim"), 12);
  for (const char* name : {"lease-07.claim", "lease-5.claim.stale.w",
                           "lease-5.claim.tmp.1", "lease-.claim",
                           "lease-5.done.json"})
    EXPECT_EQ(campaign::claim_lease_of(name), -1) << name;
}

/// Counts the calls a worker makes into the board it forwards them to.
class CountingTransport final : public campaign::LeaseTransport {
 public:
  explicit CountingTransport(campaign::LeaseTransport& inner)
      : inner_(inner) {}

  // Atomic: heartbeats arrive from the lease's timer thread.
  std::atomic<int> is_done_calls{0}, list_done_calls{0}, claim_calls{0},
      age_calls{0}, steal_calls{0}, reap_calls{0}, publish_calls{0},
      release_calls{0}, maintain_calls{0};
  /// The lease of every age check, in order (the worker's own thread).
  std::vector<int> aged;

  const std::string& worker_id() const noexcept override {
    return inner_.worker_id();
  }
  void publish_or_verify_manifest(const support::Json& config_echo,
                                  int lease_size, int count) override {
    inner_.publish_or_verify_manifest(config_echo, lease_size, count);
  }
  bool is_done(int lease) override {
    ++is_done_calls;
    return inner_.is_done(lease);
  }
  std::vector<int> list_done() override {
    ++list_done_calls;
    return inner_.list_done();
  }
  bool try_claim(int lease) override {
    ++claim_calls;
    return inner_.try_claim(lease);
  }
  double claim_age_seconds(int lease) override {
    ++age_calls;
    aged.push_back(lease);
    return inner_.claim_age_seconds(lease);
  }
  bool try_steal(int lease) override {
    ++steal_calls;
    return inner_.try_steal(lease);
  }
  void reap_claim(int lease) override {
    ++reap_calls;
    inner_.reap_claim(lease);
  }
  bool heartbeat(int lease) override { return inner_.heartbeat(lease); }
  void publish_done(int lease, int count,
                    const campaign::ResultBlock& block) override {
    ++publish_calls;
    inner_.publish_done(lease, count, block);
  }
  void release(int lease) override {
    ++release_calls;
    inner_.release(lease);
  }
  void maintain(double stale_after_seconds) override {
    ++maintain_calls;
    inner_.maintain(stale_after_seconds);
  }
  bool drain() override { return inner_.drain(); }

 private:
  campaign::LeaseTransport& inner_;
};

TEST(Scheduler, LoneWorkerClaimsAndPublishesEachLeaseOnce) {
  // The request budget of a worker with no peer: one claim and one
  // publish per lease, at most one age check per lease, the done set
  // listed at most twice, housekeeping once at the start and once at the
  // end, and nothing asked of one lease at a time.
  const auto cfg = small_config(24);
  TempDir dir("gpudiff_sched_budget");
  FsLeaseTransport board(dir.str(), "solo");
  CountingTransport counted(board);
  WorkerOptions options;
  options.lease_size = 2;
  const WorkerOutcome outcome = campaign::run_worker(cfg, options, counted);
  const int n = campaign::lease_count(24, 2);
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, n);
  EXPECT_EQ(counted.claim_calls, n);
  EXPECT_EQ(counted.publish_calls, n);
  EXPECT_LE(counted.age_calls, n);
  EXPECT_LE(counted.list_done_calls, 2);
  EXPECT_EQ(counted.is_done_calls, 0);
  EXPECT_EQ(counted.release_calls, 0);
  EXPECT_EQ(counted.steal_calls, 0);
  EXPECT_EQ(counted.reap_calls, 0);
  EXPECT_EQ(counted.maintain_calls, 2);
  EXPECT_EQ(count_files_with_suffix(dir.str(), ".claim"), 0);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Scheduler, EndOfCampaignReapIsOneMaintain) {
  // A worker that joins after a peer published some leases never asks
  // about those leases one at a time: not while it works, and not at the
  // end, where one maintain reaps the claims killed peers left on
  // finished leases.  The claim here is planted once the worker is past
  // its start-up housekeeping, so only the end-of-campaign call can
  // reap it.
  const auto cfg = small_config(24);
  const int lease_size = 2;
  const int count = campaign::lease_count(24, lease_size);
  const int published = 5;
  TempDir dir("gpudiff_sched_end_reap");
  FsLeaseTransport peer(dir.str(), "peer");
  peer.publish_or_verify_manifest(campaign::config_to_json(cfg), lease_size,
                                  count);
  for (int k = 0; k < published; ++k) {
    const auto [begin, end] = campaign::lease_range(24, count, k);
    peer.publish_done(k, count, make_block(cfg, begin, end));
  }
  const std::string planted = campaign::claim_path(dir.str(), 2);

  FsLeaseTransport board(dir.str(), "late");
  CountingTransport counted(board);
  WorkerOptions options;
  options.lease_size = lease_size;
  options.on_lease = [&](const WorkerOptions::LeaseEvent&) {
    if (!std::filesystem::exists(planted))
      support::write_file(planted, campaign::claim_document(2, "killed"));
  };
  const WorkerOutcome outcome = campaign::run_worker(cfg, options, counted);
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, count - published);
  for (const int k : counted.aged)
    EXPECT_GE(k, published) << "age check on lease " << k
                            << ", which the peer published";
  EXPECT_EQ(counted.maintain_calls, 2);
  EXPECT_EQ(counted.reap_calls, 0);
  EXPECT_FALSE(std::filesystem::exists(planted))
      << "the claim on a finished lease survived the worker";
  EXPECT_EQ(count_files_with_suffix(dir.str(), ".claim"), 0);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Scheduler, DefaultLeaseIsThirtyTwoPrograms) {
  // A worker with default options carves 100 programs into 4 leases.
  auto cfg = small_config(100);
  cfg.inputs_per_program = 2;
  TempDir dir("gpudiff_sched_default_lease");
  WorkerOptions options;
  options.dir = dir.str();
  options.worker_id = "w0";
  const WorkerOutcome outcome = campaign::run_worker(cfg, options);
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, 4);
  EXPECT_EQ(count_files_with_suffix(dir.str(), ".done.json"), 4);
  EXPECT_EQ(campaign::load_manifest(dir.str()).at("lease_size").as_int(), 32);
}

TEST(Scheduler, RefusesOptionsThatBreakTheLeaseProtocol) {
  // Each refusal names the option as gpudiff-campaign spells it, and comes
  // before the lease directory exists.  A lease size below 1 used to run
  // as 1; a negative stale-after let workers reap each other's in-flight
  // done-file temps.
  const auto cfg = small_config(4);
  TempDir dir("gpudiff_sched_bad_options");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::function<void(WorkerOptions&)>>>
      refused = {
          {"--lease-size", [](WorkerOptions& o) { o.lease_size = 0; }},
          {"--lease-size", [](WorkerOptions& o) { o.lease_size = -7; }},
          {"--heartbeat", [](WorkerOptions& o) { o.heartbeat_seconds = 0.0; }},
          {"--heartbeat", [](WorkerOptions& o) { o.heartbeat_seconds = -1.0; }},
          {"--heartbeat", [&](WorkerOptions& o) { o.heartbeat_seconds = inf; }},
          {"--stale-after",
           [](WorkerOptions& o) { o.stale_after_seconds = -1.0; }},
          {"--stale-after",
           [&](WorkerOptions& o) { o.stale_after_seconds = inf; }},
      };
  for (const auto& [flag, spoil] : refused) {
    WorkerOptions options;
    options.dir = dir.str();
    options.worker_id = "w0";
    spoil(options);
    try {
      campaign::run_worker(cfg, options);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(std::filesystem::exists(dir.str())) << flag;
    FsLeaseTransport board(dir.str() + "-board", "w0");
    EXPECT_THROW(campaign::run_worker(cfg, options, board),
                 std::invalid_argument)
        << flag;
    std::filesystem::remove_all(dir.str() + "-board");
  }
  // A zero window stays legal: a lone rescuer reaps at once.
  WorkerOptions rescuer;
  rescuer.stale_after_seconds = 0.0;
  EXPECT_NO_THROW(campaign::check_worker_options(rescuer));
}

TEST(Scheduler, WorkerIdsMustEndFileNames) {
  // The board appends the id to a steal's tombstone name; an id that cannot
  // be a name suffix would fail every steal with a retryable I/O error,
  // forever.  The longest tombstone, "lease-2147483647.claim.stale.<id>",
  // leaves NAME_MAX - 29 = 226 bytes.
  TempDir dir("gpudiff_sched_ids");
  for (const std::string& id :
       {std::string(), std::string("a/b"), std::string("a\0b", 3),
        std::string(227, 'w')})
    EXPECT_THROW(FsLeaseTransport(dir.str(), id), std::invalid_argument)
        << "id of " << id.size() << " bytes";
  EXPECT_NO_THROW(FsLeaseTransport(dir.str(), std::string(226, 'w')));
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

TEST(Scheduler, IdleWorkerWakesSoonAfterLastPublish) {
  // A worker whose only unfinished lease is held by a live peer waits and
  // re-scans.  At the default stale_after that wait was a flat half
  // second, so a fleet ended up to 0.5 s after its last publish; the wait
  // now backs off from 2 ms and starts over after every scan that made
  // progress.
  using Clock = std::chrono::steady_clock;
  const auto cfg = small_config(16);
  TempDir dir("gpudiff_sched_idle_wake");
  const int lease_size = 4;
  const int count = campaign::lease_count(16, lease_size);
  FsLeaseTransport holder(dir.str(), "holder");
  holder.publish_or_verify_manifest(campaign::config_to_json(cfg), lease_size,
                                    count);
  ASSERT_TRUE(holder.try_claim(0));
  const auto [begin, end] = campaign::lease_range(16, count, 0);
  const campaign::ResultBlock held = make_block(cfg, begin, end);

  std::atomic<int> leases_done{0};
  std::atomic<Clock::rep> last_lease{0};
  WorkerOptions options;  // the default stale_after
  options.dir = dir.str();
  options.lease_size = lease_size;
  options.worker_id = "idler";
  options.on_lease = [&](const WorkerOptions::LeaseEvent&) {
    last_lease = Clock::now().time_since_epoch().count();
    ++leases_done;
  };
  WorkerOutcome outcome;
  Clock::time_point returned;
  std::thread worker([&] {
    outcome = campaign::run_worker(cfg, options);
    returned = Clock::now();
  });
  EXPECT_TRUE(wait_until([&] { return leases_done == count - 1; }))
      << "the worker never finished the leases nobody held";
  std::this_thread::sleep_until(Clock::time_point(Clock::duration(last_lease)) +
                                std::chrono::milliseconds(60));
  holder.publish_done(0, count, held);  // ends the holder's claim
  const Clock::time_point published = Clock::now();
  worker.join();

  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, count - 1);
  const double wake_ms =
      std::chrono::duration<double, std::milli>(returned - published).count();
  EXPECT_LT(wake_ms, 250.0)
      << "the idle worker slept through the last publish";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Merge, QuarantineSetsAsideWrongRangeDoneFiles) {
  // A done file that parses but holds another lease's block (a hand edit,
  // or a coordinator from before its state dir was the board) is named by
  // the merge; under quarantine it is set aside like a corrupt one, so a
  // worker re-run regenerates the lease instead of the merge failing for
  // good.
  const auto cfg = small_config(20);
  TempDir dir("gpudiff_merge_wrong_range");
  WorkerOptions options;
  options.dir = dir.str();
  options.lease_size = 4;
  options.worker_id = "w0";
  ASSERT_TRUE(campaign::run_worker(cfg, options).campaign_complete);
  const std::string victim = campaign::done_path(dir.str(), 1);
  support::write_file(victim,
                      support::read_file(campaign::done_path(dir.str(), 2)));

  try {
    campaign::merge_lease_dir(dir.str());
    FAIL() << "another lease's block must not merge";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(victim), std::string::npos)
        << "diagnostic must name the file, got: " << e.what();
  }
  EXPECT_TRUE(std::filesystem::exists(victim))
      << "without quarantine the merge must leave the file alone";

  campaign::LeaseMergeOptions mopts;
  mopts.quarantine = true;
  try {
    campaign::merge_lease_dir(dir.str(), mopts);
    FAIL() << "quarantine still fails the merge (the lease is missing)";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(victim), std::string::npos);
  }
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_TRUE(std::filesystem::exists(victim + ".quarantined"));

  options.worker_id = "w1";
  ASSERT_TRUE(campaign::run_worker(cfg, options).campaign_complete);
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

/// Start the binary with `args`; its stderr goes to `stderr_path` when
/// one is given.
pid_t spawn_campaign(const std::vector<std::string>& args,
                     const std::string& stderr_path = "") {
  const char* bin = campaign_binary();
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    // Keep child chatter out of the gtest stream.
    std::freopen("/dev/null", "w", stdout);
    if (!stderr_path.empty()) std::freopen(stderr_path.c_str(), "w", stderr);
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
  if (orphaned_claim) {
    EXPECT_GE(outcome.leases_stolen, 1)
        << "post-kill snapshot was:\n" << snapshot;
  }
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
    if (name.rfind("lease-", 0) == 0 && name.find(".done.json") != std::string::npos) {
      EXPECT_NO_THROW(campaign::block_from_json(
          support::Json::parse(support::read_file(entry.path().string())),
          nullptr, nullptr))
          << name;
    }
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

TEST(FaultInjection, WorkerOptionsThatBreakTheLeaseProtocolAreRefused) {
  // The command line runs the library's check right after parsing, in
  // every mode: each bad value exits 1 naming its flag before a lease
  // directory or report exists.
  if (campaign_binary() == nullptr)
    GTEST_SKIP() << "GPUDIFF_CAMPAIGN_BIN not set (run under CTest)";
  TempDir dir("gpudiff_sched_bad_flags");
  const std::string report = dir.str() + "-report.json";
  const std::string err = dir.str() + "-stderr.txt";
  const std::vector<std::pair<std::string, std::string>> refused = {
      {"--lease-size", "0"}, {"--lease-size", "-7"},
      {"--heartbeat", "0"},  {"--heartbeat", "-1"},
      {"--stale-after", "-1"},
  };
  const std::vector<std::vector<std::string>> modes = {
      {"--worker", dir.str()},
      {"--report", report},
      {"--merge", dir.str()},
  };
  for (const auto& [flag, value] : refused) {
    for (auto args : modes) {
      const std::string line = args[0] + " " + flag + " " + value;
      args.insert(args.end(), {"--programs", "1", flag, value});
      const pid_t pid = spawn_campaign(args, err);
      ASSERT_GT(pid, 0);
      const int status = wait_for_exit_within(pid, 30.0);
      ASSERT_NE(status, -1) << line << ": still running after 30 s";
      ASSERT_TRUE(WIFEXITED(status)) << line;
      EXPECT_EQ(WEXITSTATUS(status), 1) << line;
      EXPECT_NE(support::read_file(err).find(flag), std::string::npos)
          << line << ": " << support::read_file(err);
      EXPECT_FALSE(std::filesystem::exists(dir.str())) << line;
      EXPECT_FALSE(std::filesystem::exists(report)) << line;
    }
  }
  // A zero stale-after window runs.
  const pid_t pid = spawn_campaign(
      {"--worker", dir.str(), "--programs", "1", "--stale-after", "0"}, err);
  ASSERT_GT(pid, 0);
  const int status = wait_for_exit_within(pid, 30.0);
  ASSERT_TRUE(status != -1 && WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << support::read_file(err);
  std::filesystem::remove(err);
  std::filesystem::remove(report);
}

TEST(FaultInjection, NegativeThreadsAndInputsAreRefusedBeforeAnyWork) {
  // Both flags become unsigned counts inside (a thread count, a vector
  // reservation), where -1 reads as 2^32 - 1.  Each must be refused by
  // name, exit 1, before the lease directory exists.  One program keeps
  // the campaign on one thread whatever --threads says, so a binary that
  // lacks the check still cannot start more.
  if (campaign_binary() == nullptr)
    GTEST_SKIP() << "GPUDIFF_CAMPAIGN_BIN not set (run under CTest)";
  TempDir dir("gpudiff_sched_negative");
  const std::string err = dir.str() + "-stderr.txt";
  for (const std::string flag : {"--threads", "--inputs"}) {
    const pid_t pid = spawn_campaign(
        {"--worker", dir.str(), "--programs", "1", flag, "-1"}, err);
    ASSERT_GT(pid, 0);
    const int status = wait_for_exit_within(pid, 30.0);
    ASSERT_NE(status, -1) << flag << ": still running after 30 s";
    ASSERT_TRUE(WIFEXITED(status)) << flag;
    EXPECT_EQ(WEXITSTATUS(status), 1) << flag;
    EXPECT_NE(support::read_file(err).find(flag), std::string::npos)
        << flag << ": " << support::read_file(err);
    EXPECT_FALSE(std::filesystem::exists(dir.str())) << flag;
  }
  std::filesystem::remove(err);
}

}  // namespace
