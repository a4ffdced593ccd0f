// Network-elastic coordination tests: the TCP lease transport against the
// in-process coordinator, under fault injection.  The load-bearing
// property is the same byte-identity the scheduler tests lock down, with
// the network allowed to misbehave: however the coordinator restarts,
// connections sever, frames drop, duplicate or reorder, and workers die,
// the merged CampaignResults must be byte-identical to the single-process
// diff::run_campaign output — and the filesystem transport's output.
//
// Process-death drills (SIGKILLed coordinator, SIGKILLed worker) drive
// the real gpudiff-coordinator / gpudiff-campaign binaries as children
// (via GPUDIFF_COORDINATOR_BIN / GPUDIFF_CAMPAIGN_BIN, wired by CMake) so
// recovery runs the actual startup paths, not in-process simulations.

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/transport.hpp"
#include "diff/campaign.hpp"
#include "net/wire.hpp"
#include "support/json.hpp"
#include "support/lockfile.hpp"
#include "support/rng.hpp"

#include "fault_proxy.hpp"

namespace {

using namespace gpudiff;
using campaign::Coordinator;
using campaign::CoordinatorOptions;
using campaign::TcpLeaseTransport;
using campaign::TcpTransportOptions;
using campaign::TransportError;
using campaign::WorkerOptions;
using campaign::WorkerOutcome;
using gpudiff::testing::Direction;
using gpudiff::testing::Fault;
using gpudiff::testing::FaultKind;
using gpudiff::testing::FaultProxy;

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

/// Fast-cadence retry policy so fault tests converge in milliseconds, not
/// the production default's seconds.
support::RetryPolicy test_retry() {
  support::RetryPolicy p;
  p.max_attempts = 6;
  p.initial_backoff_seconds = 0.005;
  p.max_backoff_seconds = 0.05;
  return p;
}

TcpTransportOptions transport_options(int port, const std::string& worker,
                                      const std::string& journal_dir) {
  TcpTransportOptions topts;
  topts.host = "127.0.0.1";
  topts.port = port;
  topts.worker_id = worker;
  topts.journal_dir = journal_dir;
  topts.retry = test_retry();
  // Short enough that a dropped frame costs a quarter second, not the
  // production default's patient five — fault tests drop a lot of frames.
  topts.request_timeout_seconds = 0.25;
  topts.connect_timeout_seconds = 0.25;
  return topts;
}

/// Run one TCP worker to completion in this thread.
WorkerOutcome run_tcp_worker(
    const diff::CampaignConfig& cfg, int port, const std::string& worker,
    const std::string& journal_dir, double stale_after = 1e9,
    std::function<void(const WorkerOptions::LeaseEvent&)> on_lease = {}) {
  WorkerOptions wopts;
  wopts.on_lease = std::move(on_lease);
  wopts.coordinator = "127.0.0.1:" + std::to_string(port);
  wopts.journal_dir = journal_dir;
  wopts.lease_size = 4;
  wopts.stale_after_seconds = stale_after;
  wopts.worker_id = worker;
  wopts.retry = test_retry();
  wopts.request_timeout_seconds = 0.25;
  return campaign::run_worker(cfg, wopts);
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

// ---------------------------------------------------------------------------
// Transport equivalence: the TCP coordinator path produces byte-identical
// results to the single process and to the filesystem board.
// ---------------------------------------------------------------------------

TEST(Coordinator, TcpWorkerMatchesSingleProcessByteForByte) {
  const auto cfg = small_config();
  TempDir state("gpudiff_coord_single");
  TempDir journal("gpudiff_coord_single_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  const WorkerOutcome outcome =
      run_tcp_worker(cfg, coordinator.port(), "tcp-w0", journal.str());
  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_EQ(outcome.leases_completed, campaign::lease_count(45, 4));
  EXPECT_EQ(outcome.programs_executed, 45u);
  coordinator.stop();

  // The coordinator's state directory IS a lease directory: the ordinary
  // merge consumes it with no TCP-specific code path.
  EXPECT_TRUE(campaign::campaign_complete(state.str()));
  EXPECT_EQ(count_files_with_suffix(state.str(), ".claim"), 0)
      << "completed worker left claims on the coordinator";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Coordinator, TcpAndFilesystemTransportsAreByteIdentical) {
  const auto cfg = small_config();
  // Filesystem board.
  TempDir fs_dir("gpudiff_coord_fs_equiv");
  WorkerOptions fs_opts;
  fs_opts.dir = fs_dir.str();
  fs_opts.lease_size = 4;
  fs_opts.worker_id = "fs-w0";
  ASSERT_TRUE(campaign::run_worker(cfg, fs_opts).campaign_complete);
  // TCP coordinator.
  TempDir state("gpudiff_coord_tcp_equiv");
  TempDir journal("gpudiff_coord_tcp_equiv_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();
  ASSERT_TRUE(run_tcp_worker(cfg, coordinator.port(), "tcp-w0", journal.str())
                  .campaign_complete);
  coordinator.stop();

  // Same manifest bytes, same per-lease done-file bytes, same merge.
  EXPECT_EQ(support::read_file(campaign::manifest_path(fs_dir.str())),
            support::read_file(campaign::manifest_path(state.str())));
  for (int k = 0; k < campaign::lease_count(45, 4); ++k)
    EXPECT_EQ(
        support::read_file(campaign::done_path(fs_dir.str(), k)),
        support::read_file(campaign::done_path(state.str(), k)))
        << "lease " << k;
  EXPECT_EQ(canonical(campaign::merge_lease_dir(fs_dir.str())),
            canonical(campaign::merge_lease_dir(state.str())));
}

TEST(Coordinator, ThreeTcpWorkerFleetByteForByte) {
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir state("gpudiff_coord_fleet");
  TempDir journal("gpudiff_coord_fleet_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  const int count = campaign::lease_count(45, 4);
  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(count));
  std::vector<WorkerOutcome> outcomes(3);
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      outcomes[static_cast<std::size_t>(i)] = run_tcp_worker(
          cfg, coordinator.port(), "fleet-" + std::to_string(i),
          journal.str() + "-" + std::to_string(i), 1e9,
          [&](const WorkerOptions::LeaseEvent& e) {
            ++runs[static_cast<std::size_t>(e.lease)];
          });
    });
  }
  for (auto& w : workers) w.join();
  coordinator.stop();

  int total_leases = 0;
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.campaign_complete);
    total_leases += o.leases_completed;
  }
  // Claims are exclusive and refuse finished leases, so a live fleet runs
  // every lease exactly once, and each publish ends its claim.
  EXPECT_EQ(total_leases, count);
  for (int k = 0; k < count; ++k)
    EXPECT_EQ(runs[static_cast<std::size_t>(k)], 1) << "lease " << k;
  EXPECT_EQ(count_files_with_suffix(state.str(), ".claim"), 0)
      << "the fleet left claims on the coordinator";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())), direct);
}

// ---------------------------------------------------------------------------
// Hello discipline: version and config mismatches are refused at connect.
// ---------------------------------------------------------------------------

TEST(Coordinator, RefusesConfigMismatchFatally) {
  TempDir state("gpudiff_coord_mismatch");
  TempDir journal("gpudiff_coord_mismatch_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  const auto cfg_a = small_config(45);
  TcpLeaseTransport first(
      transport_options(coordinator.port(), "w-a", journal.str() + "-a"));
  first.publish_or_verify_manifest(campaign::config_to_json(cfg_a),
                                   4, campaign::lease_count(45, 4));

  const auto cfg_b = small_config(46);  // a different campaign
  TcpLeaseTransport second(
      transport_options(coordinator.port(), "w-b", journal.str() + "-b"));
  try {
    second.publish_or_verify_manifest(campaign::config_to_json(cfg_b),
                                      4, campaign::lease_count(46, 4));
    FAIL() << "mismatched campaign must be refused";
  } catch (const TransportError&) {
    FAIL() << "a config mismatch is a permanent refusal, not a transient "
              "failure to retry";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refused"), std::string::npos)
        << e.what();
  }
  coordinator.stop();
}

TEST(Coordinator, RefusesWireVersionMismatchFatally) {
  TempDir state("gpudiff_coord_version");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  net::Socket s = net::connect_tcp("127.0.0.1", coordinator.port(), 2.0);
  ASSERT_TRUE(s.valid());
  support::Json hello = support::Json::object();
  hello["op"] = "hello";
  hello["version"] = net::kWireVersion + 99;
  hello["worker"] = "time-traveler";
  hello["config"] = support::Json::object();
  hello["lease_size"] = 4;
  hello["lease_count"] = 1;
  hello["seq"] = 1;
  ASSERT_EQ(net::send_message(s, hello, 2.0), net::IoStatus::Ok);
  support::Json resp;
  ASSERT_EQ(net::recv_message(s, &resp, 5.0), net::IoStatus::Ok);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_TRUE(resp.at("fatal").as_bool())
      << "version skew must not be retried";

  // Skipping the hello is refused just as fatally, and the connection is
  // closed behind the refusal.
  net::Socket naked = net::connect_tcp("127.0.0.1", coordinator.port(), 2.0);
  ASSERT_TRUE(naked.valid());
  support::Json claim = support::Json::object();
  claim["op"] = "claim";
  claim["lease"] = 0;
  ASSERT_EQ(net::request_response(naked, std::move(claim), 1, &resp, 5.0),
            net::IoStatus::Ok);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_TRUE(resp.at("fatal").as_bool())
      << "a request before hello must not be retried";
  EXPECT_NE(net::recv_message(naked, &resp, 5.0), net::IoStatus::Ok);
  coordinator.stop();
}

TEST(Coordinator, DeepNestingLineRefusedCoordinatorKeepsServing) {
  TempDir state("gpudiff_coord_deep");
  TempDir journal("gpudiff_coord_deep_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  // One pre-hello line of 2,000,000 '[' used to overflow the parser's
  // stack and kill the coordinator.  It is refused: the connection closes
  // without an answer.
  net::Socket s = net::connect_tcp("127.0.0.1", coordinator.port(), 2.0);
  ASSERT_TRUE(s.valid());
  ASSERT_EQ(s.send_all(std::string(2000000, '[') + "\n", 10.0),
            net::IoStatus::Ok);
  support::Json resp;
  EXPECT_NE(net::recv_message(s, &resp, 10.0), net::IoStatus::Ok);

  // A request whose seq is not a number used to kill the coordinator too:
  // its error response re-read the seq and threw out of the connection
  // thread.  It is answered, with the seq echoed as sent.
  net::Socket odd = net::connect_tcp("127.0.0.1", coordinator.port(), 2.0);
  ASSERT_TRUE(odd.valid());
  ASSERT_EQ(odd.send_all("{\"op\":\"hello\",\"seq\":\"x\"}\n", 2.0),
            net::IoStatus::Ok);
  ASSERT_EQ(net::recv_message(odd, &resp, 5.0), net::IoStatus::Ok);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("seq"), support::Json("x"));

  // A fresh worker connection still gets its hello and manifest answered.
  const auto cfg = small_config(45);
  TcpLeaseTransport worker(
      transport_options(coordinator.port(), "w-after", journal.str()));
  EXPECT_NO_THROW(worker.publish_or_verify_manifest(
      campaign::config_to_json(cfg), 4, campaign::lease_count(45, 4)));
  coordinator.stop();
}

/// A raw hello for `config` with the given geometry.
support::Json raw_hello(const support::Json& config, int lease_size,
                        int lease_count, const std::string& worker = "raw") {
  support::Json hello = support::Json::object();
  hello["op"] = "hello";
  hello["version"] = net::kWireVersion;
  hello["worker"] = worker;
  hello["config"] = config;
  hello["lease_size"] = lease_size;
  hello["lease_count"] = lease_count;
  return hello;
}

/// Send `hello` on a fresh connection, then `request` unless it is null or
/// the hello was refused; returns the last response.
support::Json raw_exchange(int port, support::Json hello,
                           support::Json request = support::Json()) {
  net::Socket s = net::connect_tcp("127.0.0.1", port, 2.0);
  support::Json resp;
  EXPECT_EQ(net::request_response(s, std::move(hello), 1, &resp, 5.0),
            net::IoStatus::Ok);
  if (request.is_null() || !resp.get_or("ok", false).as_bool()) return resp;
  EXPECT_EQ(net::request_response(s, std::move(request), 2, &resp, 5.0),
            net::IoStatus::Ok);
  return resp;
}

/// Lease `k`'s real block under `cfg`.
campaign::ResultBlock lease_block(const diff::CampaignConfig& cfg, int count,
                                  int k) {
  const auto [b, e] = campaign::lease_range(cfg.num_programs, count, k);
  auto out = diff::run_campaign_range(cfg, b, e);
  campaign::ResultBlock block;
  block.config_echo = campaign::config_to_json(cfg);
  block.begin = b;
  block.end = e;
  block.per_level = std::move(out.per_level);
  block.records = std::move(out.records);
  return block;
}

/// Lease `k`'s real block under `cfg`, serialized as lease `index` of
/// `count`.
support::Json block_doc(const diff::CampaignConfig& cfg, int count, int k,
                        int index) {
  return campaign::block_to_json(lease_block(cfg, count, k), index, count);
}

TEST(Coordinator, RefusesHellosAndBlocksThatCouldNeverMerge) {
  const auto cfg = small_config();
  const int count = campaign::lease_count(45, 4);
  const support::Json echo = campaign::config_to_json(cfg);
  TempDir state("gpudiff_coord_unmergeable");
  TempDir journal("gpudiff_coord_unmergeable_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();
  const auto expect_fatal = [](const support::Json& resp,
                               const std::string& what) {
    EXPECT_FALSE(resp.get_or("ok", true).as_bool()) << what;
    EXPECT_TRUE(resp.get_or("fatal", false).as_bool()) << what;
  };

  // Hellos that would seed a manifest no worker or merge can use.
  expect_fatal(raw_exchange(coordinator.port(),
                            raw_hello(support::Json::object(), 4, count)),
               "empty config");
  expect_fatal(raw_exchange(coordinator.port(), raw_hello(echo, 4, 19)),
               "lease count the config does not give");
  expect_fatal(
      raw_exchange(coordinator.port(), raw_hello(echo, 4, count, "a/b")),
      "worker id that cannot end a file name");
  EXPECT_FALSE(std::filesystem::exists(campaign::manifest_path(state.str())))
      << "a refused hello seeded the manifest";

  // Publishes that would become done files the merge refuses.
  auto other = cfg;
  other.seed = 99;
  support::Json junk = support::Json::object();
  junk["lease"] = support::Json::object();
  junk["lease"]["index"] = 2;
  junk["lease"]["count"] = count;
  junk["hello"] = "world";
  // The first lease block with a record, its first record naming a
  // discrepancy class past the seven.
  support::Json bad_class;
  for (int k = 0; k < count && bad_class.is_null(); ++k) {
    support::Json doc = block_doc(cfg, count, k, k);
    if (!doc.at("records").as_array().empty()) bad_class = std::move(doc);
  }
  ASSERT_FALSE(bad_class.is_null()) << "no lease block holds a record";
  bad_class["records"].as_array()[0]["class"] = 99;
  const std::vector<std::pair<std::string, support::Json>> blocks = {
      {"another seed's block", block_doc(other, count, 1, 1)},
      {"lease 2's range as index 1", block_doc(cfg, count, 2, 1)},
      {"not a block", junk},
      {"a record of class 99", bad_class},
  };
  for (const auto& [what, block] : blocks) {
    support::Json publish = support::Json::object();
    publish["op"] = "publish";
    publish["block"] = block;
    expect_fatal(raw_exchange(coordinator.port(), raw_hello(echo, 4, count),
                              std::move(publish)),
                 what);
  }
  EXPECT_EQ(count_files_with_suffix(state.str(), ".done.json"), 0)
      << "a refused publish wrote a done file";

  // Nothing was poisoned: a real worker finishes and the directory merges.
  ASSERT_TRUE(run_tcp_worker(cfg, coordinator.port(), "real", journal.str())
                  .campaign_complete);
  coordinator.stop();
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())),
            canonical(diff::run_campaign(cfg)));
}

TEST(Coordinator, ClaimsOnFinishedLeasesAreRefusedOverTcp) {
  const auto cfg = small_config();
  const int count = campaign::lease_count(45, 4);
  TempDir state("gpudiff_coord_finished");
  TempDir journal("gpudiff_coord_finished_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();
  TcpLeaseTransport a(
      transport_options(coordinator.port(), "a", journal.str() + "-a"));
  TcpLeaseTransport b(
      transport_options(coordinator.port(), "b", journal.str() + "-b"));
  a.publish_or_verify_manifest(campaign::config_to_json(cfg), 4, count);
  b.publish_or_verify_manifest(campaign::config_to_json(cfg), 4, count);

  ASSERT_TRUE(a.try_claim(2));
  const campaign::ResultBlock block = lease_block(cfg, count, 2);
  a.publish_done(2, count, block);
  EXPECT_EQ(a.list_done(), std::vector<int>{2});
  EXPECT_LT(a.claim_age_seconds(2), 0.0) << "the publish kept its claim";
  EXPECT_FALSE(b.try_claim(2)) << "a finished lease was claimed";
  EXPECT_FALSE(a.try_claim(2)) << "a finished lease was claimed";
  // A second publish of the same block is acknowledged and writes nothing.
  const std::string done = campaign::done_path(state.str(), 2);
  ASSERT_TRUE(support::age_file(done, 100.0));
  const auto mtime = std::filesystem::last_write_time(done);
  b.publish_done(2, count, block);
  EXPECT_EQ(std::filesystem::last_write_time(done), mtime);
  coordinator.stop();
  EXPECT_EQ(count_files_with_suffix(state.str(), ".claim"), 0);
}

TEST(Coordinator, MaintainRunsTheBoardsHousekeepingOverTcp) {
  // One maintain request reaps, in the state directory, a claim left on a
  // finished lease and a temp older than the window; it keeps a fresh
  // temp and the claim of an unfinished lease.  A maintain without a
  // usable window is refused fatally and touches nothing.
  const auto cfg = small_config();
  const int count = campaign::lease_count(45, 4);
  const support::Json echo = campaign::config_to_json(cfg);
  TempDir state("gpudiff_coord_maintain");
  TempDir journal("gpudiff_coord_maintain_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();
  TcpLeaseTransport a(
      transport_options(coordinator.port(), "a", journal.str()));
  a.publish_or_verify_manifest(echo, 4, count);
  ASSERT_TRUE(a.try_claim(2));
  a.publish_done(2, count, lease_block(cfg, count, 2));

  const std::string finished_claim = campaign::claim_path(state.str(), 2);
  const std::string open_claim = campaign::claim_path(state.str(), 3);
  const std::string aged_temp = state.str() + "/lease-5.done.json.tmp.dead";
  const std::string fresh_temp = state.str() + "/lease-6.done.json.tmp.live";
  support::write_file(finished_claim, campaign::claim_document(2, "killed"));
  support::write_file(open_claim, campaign::claim_document(3, "live"));
  support::write_file(aged_temp, "{");
  support::write_file(fresh_temp, "{");
  ASSERT_TRUE(support::age_file(aged_temp, 3600.0));
  ASSERT_TRUE(support::age_file(open_claim, 3600.0));

  // Refusals first: none of them may reap anything.
  const auto expect_fatal = [&](support::Json maintain,
                                const std::string& what) {
    maintain["op"] = "maintain";
    const support::Json resp = raw_exchange(
        coordinator.port(), raw_hello(echo, 4, count), std::move(maintain));
    EXPECT_FALSE(resp.get_or("ok", true).as_bool()) << what;
    EXPECT_TRUE(resp.get_or("fatal", false).as_bool()) << what;
  };
  support::Json missing = support::Json::object();
  support::Json text = support::Json::object();
  text["stale_after"] = "60";
  support::Json negative = support::Json::object();
  negative["stale_after"] = -1.0;
  expect_fatal(missing, "no stale_after");
  expect_fatal(text, "stale_after not a number");
  expect_fatal(negative, "negative stale_after");
  EXPECT_TRUE(std::filesystem::exists(finished_claim));
  EXPECT_TRUE(std::filesystem::exists(aged_temp));

  a.maintain(60.0);
  EXPECT_FALSE(std::filesystem::exists(finished_claim))
      << "the claim on a finished lease survived";
  EXPECT_FALSE(std::filesystem::exists(aged_temp))
      << "a temp past the window survived";
  EXPECT_TRUE(std::filesystem::exists(fresh_temp))
      << "a fresh temp was reaped";
  EXPECT_EQ(campaign::claim_owner(open_claim), "live")
      << "the claim of an unfinished lease was reaped";
  coordinator.stop();
}

TEST(Coordinator, ConnectionsWithoutHelloAreClosedAtTheDeadline) {
  // Every connection holds a server thread; one that never says hello is
  // closed after net::kHelloDeadlineTicks I/O timeouts, while a greeted
  // one may stay idle as long as it likes.
  const auto cfg = small_config();
  TempDir state("gpudiff_coord_hello_deadline");
  CoordinatorOptions copts;
  copts.dir = state.str();
  copts.io_timeout_seconds = 0.01;
  Coordinator coordinator(copts);
  coordinator.start();
  const double deadline = net::kHelloDeadlineTicks * copts.io_timeout_seconds;

  net::Socket silent = net::connect_tcp("127.0.0.1", coordinator.port(), 2.0);
  net::Socket greeted = net::connect_tcp("127.0.0.1", coordinator.port(), 2.0);
  ASSERT_TRUE(silent.valid());
  ASSERT_TRUE(greeted.valid());
  support::Json resp;
  ASSERT_EQ(net::request_response(
                greeted,
                raw_hello(campaign::config_to_json(cfg), 4,
                          campaign::lease_count(45, 4)),
                1, &resp, 5.0),
            net::IoStatus::Ok);
  ASSERT_TRUE(resp.at("ok").as_bool());

  EXPECT_EQ(net::recv_message(silent, &resp, deadline + 10.0),
            net::IoStatus::Closed)
      << "a connection that never said hello was kept open";
  std::this_thread::sleep_for(
      std::chrono::duration<double>(2.0 * deadline));
  support::Json list = support::Json::object();
  list["op"] = "list_done";
  ASSERT_EQ(net::request_response(greeted, std::move(list), 2, &resp, 5.0),
            net::IoStatus::Ok)
      << "a greeted connection was closed for idling";
  EXPECT_TRUE(resp.at("ok").as_bool());
  coordinator.stop();
}

TEST(Coordinator, DirectoryAndTcpWorkersShareOneBoard) {
  // A --worker on the coordinator's state directory and two TCP workers
  // are one fleet: every lease runs once, and the merge is the single
  // process's bytes.
  const auto cfg = small_config(90);
  const int count = campaign::lease_count(90, 4);
  TempDir state("gpudiff_coord_mixed");
  TempDir journal("gpudiff_coord_mixed_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  std::vector<WorkerOutcome> outcomes(3);
  std::vector<std::thread> workers;
  workers.emplace_back([&] {
    WorkerOptions wopts;
    wopts.dir = state.str();
    wopts.lease_size = 4;
    wopts.worker_id = "dir-w";
    outcomes[0] = campaign::run_worker(cfg, wopts);
  });
  for (int i = 1; i < 3; ++i) {
    workers.emplace_back([&, i] {
      outcomes[static_cast<std::size_t>(i)] = run_tcp_worker(
          cfg, coordinator.port(), "tcp-w" + std::to_string(i),
          journal.str() + "-" + std::to_string(i));
    });
  }
  for (auto& w : workers) w.join();
  coordinator.stop();

  int total_leases = 0;
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.campaign_complete);
    total_leases += o.leases_completed;
  }
  EXPECT_EQ(total_leases, count) << "a lease ran on both sides of the board";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())),
            canonical(diff::run_campaign(cfg)));
}

// ---------------------------------------------------------------------------
// Durability: a coordinator restarted on its state directory recovers
// every claim and every done block.
// ---------------------------------------------------------------------------

TEST(Coordinator, RecoversClaimsAndDoneBlocksAcrossRestart) {
  const auto cfg = small_config();
  const int count = campaign::lease_count(45, 4);
  const support::Json echo = campaign::config_to_json(cfg);
  TempDir state("gpudiff_coord_restart");
  TempDir journal("gpudiff_coord_restart_journal");

  {
    CoordinatorOptions copts;
    copts.dir = state.str();
    Coordinator coordinator(copts);
    coordinator.start();
    TcpLeaseTransport t(
        transport_options(coordinator.port(), "w0", journal.str()));
    t.publish_or_verify_manifest(echo, 4, count);
    ASSERT_TRUE(t.try_claim(0));
    // Publish lease 1 the long way so the done file carries real bytes.
    ASSERT_TRUE(t.try_claim(1));
    t.publish_done(1, count, lease_block(cfg, count, 1));
    coordinator.stop();
  }  // SIGKILL stand-in: no graceful shutdown protocol exists to miss

  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator revived(copts);
  revived.start();
  TcpLeaseTransport t(
      transport_options(revived.port(), "w1", journal.str() + "-b"));
  t.publish_or_verify_manifest(echo, 4, count);
  // The done block survived.
  EXPECT_TRUE(t.is_done(1));
  EXPECT_EQ(t.list_done(), std::vector<int>{1});
  // w0's claim on lease 0 survived, restarted fresh: another worker cannot
  // claim it, its age is live (>= 0), and stealing still works.
  EXPECT_FALSE(t.try_claim(0));
  EXPECT_GE(t.claim_age_seconds(0), 0.0);
  EXPECT_TRUE(t.try_steal(0));
  // A wrong-campaign hello is refused even though the manifest was seeded
  // before the restart.
  TcpLeaseTransport wrong(
      transport_options(revived.port(), "w2", journal.str() + "-c"));
  EXPECT_THROW(wrong.publish_or_verify_manifest(
                   campaign::config_to_json(small_config(46)), 4,
                   campaign::lease_count(46, 4)),
               std::runtime_error);
  revived.stop();
}

// ---------------------------------------------------------------------------
// Graceful degradation: a worker that loses the coordinator journals its
// publishes locally and republishes on reconnect.
// ---------------------------------------------------------------------------

TEST(Coordinator, StartupRefusesAManifestThatCouldNeverMerge) {
  // A state dir of 2 leases whose campaign.json says 3: the coordinator
  // must refuse it by name rather than trust the count (it touches one
  // claim path per listed lease at startup), and the merge names it too.
  const auto cfg = small_config(8);
  TempDir state("gpudiff_coord_bad_manifest");
  WorkerOptions wopts;
  wopts.dir = state.str();
  wopts.lease_size = 4;
  wopts.worker_id = "w0";
  ASSERT_TRUE(campaign::run_worker(cfg, wopts).campaign_complete);
  const std::string path = campaign::manifest_path(state.str());
  support::Json manifest = support::Json::parse(support::read_file(path));
  ASSERT_EQ(manifest.at("lease_count").as_int(), 2);
  manifest["lease_count"] = 3;
  support::write_file(path, manifest.dump(1));

  const auto expect_refused = [](const std::function<void()>& load,
                                 const char* what) {
    try {
      load();
      ADD_FAILURE() << what << " accepted a 2-lease directory listing 3";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("campaign.json"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_refused(
      [&] {
        CoordinatorOptions copts;
        copts.dir = state.str();
        Coordinator coordinator(copts);
      },
      "Coordinator");
  expect_refused([&] { (void)campaign::merge_lease_dir(state.str()); },
                 "merge_lease_dir");
}

TEST(Coordinator, DisconnectedWorkerJournalsAndRepublishes) {
  const auto cfg = small_config();
  const int count = campaign::lease_count(45, 4);
  const support::Json echo = campaign::config_to_json(cfg);
  TempDir state("gpudiff_coord_journal");
  TempDir journal("gpudiff_coord_journal_journal");

  int port = 0;
  {
    CoordinatorOptions copts;
    copts.dir = state.str();
    Coordinator coordinator(copts);
    coordinator.start();
    port = coordinator.port();
    TcpLeaseTransport t(transport_options(port, "w0", journal.str()));
    t.publish_or_verify_manifest(echo, 4, count);
    ASSERT_TRUE(t.try_claim(0));
    coordinator.stop();

    // Coordinator is gone.  The publish must not be lost — and must not
    // throw: it degrades to the local journal.
    t.publish_done(0, count, lease_block(cfg, count, 0));
    EXPECT_EQ(t.journaled_blocks(), 1);
    EXPECT_FALSE(t.drain()) << "drain must not report clean while a block "
                               "is stranded locally";

    // Coordinator returns (same state dir, same port).  The reconnect
    // flushes the journal before anything else.
    CoordinatorOptions ropts;
    ropts.dir = state.str();
    ropts.port = port;
    Coordinator revived(ropts);
    revived.start();
    EXPECT_TRUE(t.drain());
    EXPECT_EQ(t.journaled_blocks(), 0);
    EXPECT_TRUE(t.is_done(0));
    EXPECT_LT(t.claim_age_seconds(0), 0.0)
        << "the republished block did not end its claim";
    revived.stop();
  }
  // The republished block landed in the durable directory with the exact
  // bytes a connected publish would have written.
  EXPECT_TRUE(std::filesystem::exists(
      campaign::done_path(state.str(), 0)));
}

// ---------------------------------------------------------------------------
// Fault injection: randomized drop/duplicate/reorder/delay through the
// proxy; the campaign must converge byte-identically, no range lost.
// ---------------------------------------------------------------------------

TEST(Coordinator, RandomizedFaultyNetworkConvergesByteForByte) {
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir state("gpudiff_coord_chaos");
  TempDir journal("gpudiff_coord_chaos_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  // Deterministically seeded fault schedule: ~72% forward, 10% drop, 10%
  // duplicate, 5% reorder, 3% delayed forward, in both directions.  The
  // hello exchange (line 0 of each direction) is spared only of reorder —
  // nothing meaningful precedes it to reorder behind.
  auto rng = std::make_shared<support::SplitMix64>(0xfa017deadbeefULL);
  auto decide_mu = std::make_shared<std::mutex>();
  FaultProxy proxy(
      "127.0.0.1", coordinator.port(),
      [rng, decide_mu](Direction, int) {
        std::lock_guard<std::mutex> lock(*decide_mu);
        const std::uint64_t roll = rng->next() % 100;
        Fault f;
        if (roll < 10) f.kind = FaultKind::Drop;
        else if (roll < 20) f.kind = FaultKind::Duplicate;
        else if (roll < 25) f.kind = FaultKind::Reorder;
        else if (roll < 28) f.delay_seconds = 0.01;
        return f;
      });

  std::vector<WorkerOutcome> outcomes(2);
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&, i] {
      outcomes[static_cast<std::size_t>(i)] = run_tcp_worker(
          cfg, proxy.port(), "chaos-" + std::to_string(i),
          journal.str() + "-" + std::to_string(i),
          /*stale_after=*/5.0);
    });
  }
  for (auto& w : workers) w.join();
  proxy.stop();
  coordinator.stop();

  for (const auto& o : outcomes) EXPECT_TRUE(o.campaign_complete);
  // merge_lease_dir validates the blocks cover [0, 45) contiguously — a
  // lost range cannot merge, let alone merge clean.
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())), direct);
}

TEST(Coordinator, SeveredConnectionsReconnectAndConverge) {
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir state("gpudiff_coord_sever");
  TempDir journal("gpudiff_coord_sever_journal");
  CoordinatorOptions copts;
  copts.dir = state.str();
  Coordinator coordinator(copts);
  coordinator.start();

  // Cut the connection on every 13th server response: workers ride the
  // sever with a reconnect (fresh hello) and a retried request.
  std::atomic<int> severs{0};
  FaultProxy proxy("127.0.0.1", coordinator.port(),
                   [&severs](Direction dir, int line) {
                     Fault f;
                     if (dir == Direction::ServerToClient && line > 0 &&
                         line % 13 == 0) {
                       f.kind = FaultKind::Sever;
                       severs.fetch_add(1);
                     }
                     return f;
                   });

  const WorkerOutcome outcome = run_tcp_worker(
      cfg, proxy.port(), "sever-w0", journal.str(), /*stale_after=*/5.0);
  proxy.stop();
  coordinator.stop();

  EXPECT_TRUE(outcome.campaign_complete);
  EXPECT_GT(severs.load(), 0) << "the drill never actually severed";
  EXPECT_GT(proxy.connections_accepted(), 1)
      << "a sever must force a real reconnect";
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())), direct);
}

// ---------------------------------------------------------------------------
// Merge hardening: crash litter and corrupt done files.
// ---------------------------------------------------------------------------

TEST(Coordinator, MergeNamesCorruptDoneFileAndQuarantineSetsItAside) {
  const auto cfg = small_config();
  TempDir dir("gpudiff_coord_corrupt");
  WorkerOptions wopts;
  wopts.dir = dir.str();
  wopts.lease_size = 4;
  wopts.worker_id = "w0";
  ASSERT_TRUE(campaign::run_worker(cfg, wopts).campaign_complete);
  const std::string direct = canonical(diff::run_campaign(cfg));

  // Truncate lease 3's done file mid-JSON — the torn write the atomic
  // rename discipline prevents, injected here as if a disk had failed.
  const std::string victim = campaign::done_path(dir.str(), 3);
  const std::string whole = support::read_file(victim);
  support::write_file(victim, whole.substr(0, whole.size() / 2));

  // Default merge: abort, naming the corrupt file.
  try {
    campaign::merge_lease_dir(dir.str());
    FAIL() << "corrupt done file must not merge";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(victim), std::string::npos)
        << "diagnostic must name the corrupt file, got: " << e.what();
  }

  // Quarantine merge: the corrupt file is set aside and the diagnostic
  // says what to do next.
  campaign::LeaseMergeOptions mopts;
  mopts.quarantine = true;
  try {
    campaign::merge_lease_dir(dir.str(), mopts);
    FAIL() << "quarantine still fails the merge (the lease is missing)";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(victim), std::string::npos);
  }
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_TRUE(std::filesystem::exists(victim + ".quarantined"));

  // A worker re-run regenerates the quarantined lease; the merge then
  // produces the exact single-process bytes.
  wopts.worker_id = "w1";
  ASSERT_TRUE(campaign::run_worker(cfg, wopts).campaign_complete);
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())), direct);
}

TEST(Coordinator, LeaseMergeSkipsTempAndClaimLitter) {
  const auto cfg = small_config();
  TempDir dir("gpudiff_coord_tmplitter");
  campaign::WorkerOptions wopts;
  wopts.dir = dir.str();
  wopts.lease_size = 8;
  wopts.worker_id = "w0";
  ASSERT_TRUE(campaign::run_worker(cfg, wopts).campaign_complete);
  // Crash litter beside the done files: a killed publisher's half-written
  // temp, a junk temp, a stale claim on a finished lease, a steal
  // tombstone and a claim temp.  None of it may reach the merge.
  support::write_file(dir.str() + "/lease-0.done.json.tmp.999", "{\"trunc");
  support::write_file(dir.str() + "/lease-junk.tmp.json", "not json at all");
  support::write_file(dir.str() + "/lease-1.claim", "{\"trunc");
  support::write_file(dir.str() + "/lease-2.claim.stale.dead", "");
  support::write_file(dir.str() + "/lease-3.claim.dead", "{}");
  EXPECT_EQ(canonical(campaign::merge_lease_dir(dir.str())),
            canonical(diff::run_campaign(cfg)));
}

// ---------------------------------------------------------------------------
// Process-death drills: SIGKILL the real coordinator binary mid-campaign,
// restart it, SIGKILL a worker — the fleet still converges byte-for-byte.
// ---------------------------------------------------------------------------

const char* coordinator_binary() {
  return std::getenv("GPUDIFF_COORDINATOR_BIN");
}
const char* campaign_binary() { return std::getenv("GPUDIFF_CAMPAIGN_BIN"); }

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

int wait_for_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Reserve an ephemeral port for a child coordinator: bind, read, close.
/// (Racy in principle; in practice the child rebinds within milliseconds
/// and SO_REUSEADDR covers the TIME_WAIT case.)
int pick_free_port() {
  net::Listener probe;
  probe.listen("127.0.0.1", 0);
  return probe.port();
}

TEST(Coordinator, KillRestartDrillMergesByteIdentical) {
  if (coordinator_binary() == nullptr || campaign_binary() == nullptr)
    GTEST_SKIP() << "GPUDIFF_COORDINATOR_BIN / GPUDIFF_CAMPAIGN_BIN not set "
                    "(run under CTest)";
  const auto cfg = small_config();
  const std::string direct = canonical(diff::run_campaign(cfg));
  TempDir state("gpudiff_coord_drill");
  TempDir journal("gpudiff_coord_drill_journal");
  const int port = pick_free_port();
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);

  const auto spawn_coordinator = [&] {
    return spawn_child(coordinator_binary(),
                       {"--dir", state.str(), "--port", std::to_string(port)});
  };
  const auto spawn_worker = [&](int i) {
    return spawn_child(
        campaign_binary(),
        {"--coordinator", endpoint, "--journal-dir",
         journal.str() + "-" + std::to_string(i), "--programs", "45",
         "--inputs", "5", "--seed", "1234", "--lease-size", "4",
         "--heartbeat", "0.1", "--stale-after", "3", "--worker-id",
         "drill-" + std::to_string(i)});
  };

  pid_t coord = spawn_coordinator();
  ASSERT_GT(coord, 0);
  std::vector<pid_t> workers;
  for (int i = 0; i < 3; ++i) workers.push_back(spawn_worker(i));

  // Let the fleet make real progress, then SIGKILL the coordinator — no
  // shutdown path, no flush beyond what every publish already did.
  ASSERT_TRUE(wait_until([&] {
    return count_files_with_suffix(state.str(), ".done.json") >= 2;
  })) << "fleet never started publishing";
  ASSERT_EQ(::kill(coord, SIGKILL), 0);
  wait_for_exit(coord);

  // While the coordinator is down, SIGKILL one worker too.
  ASSERT_EQ(::kill(workers[0], SIGKILL), 0);
  wait_for_exit(workers[0]);

  // Restart the coordinator on the same directory and port.  The
  // survivors' retry policies reconnect; the dead worker's recovered
  // claim ages out (stale-after 3s) and is stolen.
  coord = spawn_coordinator();
  ASSERT_GT(coord, 0);

  for (std::size_t i = 1; i < workers.size(); ++i) {
    const int status = wait_for_exit(workers[i]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker " << i << " exit status " << status;
  }
  ASSERT_EQ(::kill(coord, SIGTERM), 0);
  wait_for_exit(coord);

  EXPECT_TRUE(campaign::campaign_complete(state.str()));
  EXPECT_EQ(canonical(campaign::merge_lease_dir(state.str())), direct)
      << "kill/restart drill diverged from the single-process bytes";
}

}  // namespace
