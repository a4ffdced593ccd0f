#include "campaign/scheduler.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "campaign/checkpoint.hpp"
#include "campaign/transport.hpp"
#include "net/socket.hpp"
#include "support/lockfile.hpp"
#include "support/strings.hpp"

namespace gpudiff::campaign {

namespace {

constexpr const char* kManifestFormat = "gpudiff-campaign-manifest";

}  // namespace

support::Json make_manifest(const support::Json& config_echo, int lease_size,
                            int count) {
  support::Json j = support::Json::object();
  j["format"] = kManifestFormat;
  j["version"] = 1;
  j["config"] = config_echo;
  j["lease_size"] = lease_size;
  j["lease_count"] = count;
  return j;
}

int lease_count(int num_programs, int lease_size) {
  if (num_programs < 0)
    throw std::invalid_argument("lease_count: negative program count");
  if (num_programs == 0) return 0;
  // Not (n + size - 1) / size: that overflows for n near INT_MAX.
  return (num_programs - 1) / std::max(1, lease_size) + 1;
}

std::pair<std::uint64_t, std::uint64_t> lease_range(int num_programs,
                                                    int count, int index) {
  if (count <= 0 || index < 0 || index >= count)
    throw std::invalid_argument("lease_range: index " + std::to_string(index) +
                                " not in [0, " + std::to_string(count) + ")");
  if (num_programs < 0)
    throw std::invalid_argument("lease_range: negative program count");
  const auto n = static_cast<std::uint64_t>(num_programs);
  const auto i = static_cast<std::uint64_t>(index);
  const auto c = static_cast<std::uint64_t>(count);
  return {n * i / c, n * (i + 1) / c};
}

std::string manifest_path(const std::string& dir) {
  return dir + "/campaign.json";
}

std::string claim_path(const std::string& dir, int lease) {
  return dir + "/lease-" + std::to_string(lease) + ".claim";
}

std::string done_path(const std::string& dir, int lease) {
  return dir + "/lease-" + std::to_string(lease) + ".done.json";
}

void check_manifest_members(const support::Json& doc) {
  int num_programs = 0;
  try {
    num_programs = config_from_json(doc.at("config")).num_programs;
  } catch (const std::exception& e) {
    throw std::runtime_error(
        std::string("no valid campaign configuration: ") + e.what());
  }
  // The member's integer value, -1 when it is missing or not an integer.
  const auto int_member = [&doc](const char* key) -> std::int64_t {
    const bool ok = doc.contains(key) &&
                    doc.at(key).type() == support::Json::Type::Int;
    return ok ? doc.at(key).as_int() : -1;
  };
  const std::int64_t size = int_member("lease_size");
  if (num_programs < 0 || size < 1 || size > INT_MAX ||
      int_member("lease_count") !=
          lease_count(num_programs, static_cast<int>(size))) {
    const auto text = [&doc](const char* key) {
      return doc.contains(key) ? doc.at(key).dump() : std::string("missing");
    };
    throw std::runtime_error(
        "lease_size " + text("lease_size") + " and lease_count " +
        text("lease_count") + " do not partition the campaign's " +
        std::to_string(num_programs) + " programs");
  }
}

support::Json load_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  if (!std::filesystem::exists(path))
    throw std::runtime_error("scheduler: no campaign manifest at " + path);
  try {
    support::Json j = support::Json::parse(support::read_file(path));
    check_format(j, kManifestFormat, "campaign manifest");
    check_manifest_members(j);
    return j;
  } catch (const std::exception& e) {
    throw std::runtime_error("scheduler: campaign manifest " + path +
                             " refused: " + e.what());
  }
}

std::string claim_document(int lease, const std::string& worker) {
  support::Json claim = support::Json::object();
  claim["lease"] = lease;
  claim["worker"] = worker;
  return claim.dump();
}

std::string claim_owner(const std::string& path) {
  try {
    const support::Json j = support::Json::parse(support::read_file(path));
    if (j.is_object() && j.contains("worker") && j.at("worker").is_string())
      return j.at("worker").as_string();
  } catch (const std::exception&) {
    // Missing or torn-away claim file: nobody's.
  }
  return "";
}

namespace {

/// k when `file_name` is "lease-<k>" + `suffix` as the path helpers spell
/// it, else -1.
int lease_of_name(std::string_view file_name, std::string_view suffix) {
  constexpr std::string_view kPrefix = "lease-";
  if (file_name.size() <= kPrefix.size() + suffix.size() ||
      file_name.substr(0, kPrefix.size()) != kPrefix ||
      file_name.substr(file_name.size() - suffix.size()) != suffix)
    return -1;
  const std::string_view digits = file_name.substr(
      kPrefix.size(), file_name.size() - kPrefix.size() - suffix.size());
  const char* end = digits.data() + digits.size();
  int k = -1;
  // The round trip refuses what from_chars takes but the path helpers
  // never write: a sign, leading zeros.
  if (std::from_chars(digits.data(), end, k).ptr != end || k < 0 ||
      std::to_string(k) != digits)
    return -1;
  return k;
}

}  // namespace

int done_lease_of(std::string_view file_name) {
  return lease_of_name(file_name, ".done.json");
}

int claim_lease_of(std::string_view file_name) {
  return lease_of_name(file_name, ".claim");
}

std::string default_worker_id() {
  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  host[sizeof(host) - 1] = '\0';
  return std::string(host) + "-" + std::to_string(::getpid());
}

namespace {

/// Touches the claim every `interval` on a dedicated thread for as long
/// as the object lives, so the claim stays demonstrably alive even while
/// a single long-running generated program keeps the executor away from
/// any progress callback.  Destruction wakes and joins the thread.
class HeartbeatTimer {
 public:
  HeartbeatTimer(LeaseTransport& transport, int lease, double interval_seconds)
      : transport_(transport), lease_(lease),
        interval_(std::max(0.01, interval_seconds)) {
    thread_ = std::thread([this] { run(); });
  }
  ~HeartbeatTimer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Called from the progress hook: beat now if one is due (keeps the
  /// claim fresh under clock-suspend conditions the timer thread might
  /// sleep through, and keeps the diff-layer progress callback load-
  /// bearing).
  void beat_if_due() {
    std::lock_guard<std::mutex> lock(mu_);
    beat_locked(std::chrono::steady_clock::now());
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::duration<double>(interval_));
      if (stop_) break;
      beat_locked(std::chrono::steady_clock::now());
    }
  }
  void beat_locked(std::chrono::steady_clock::time_point now) {
    if (now - last_beat_ < std::chrono::duration<double>(interval_)) return;
    last_beat_ = now;
    transport_.heartbeat(lease_);  // non-throwing by contract
  }

  LeaseTransport& transport_;
  const int lease_;
  const double interval_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::chrono::steady_clock::time_point last_beat_ =
      std::chrono::steady_clock::now();
  std::thread thread_;
};

/// Execute one lease through the existing campaign range machinery.  The
/// claim is heartbeaten two ways: a timer thread (liveness independent of
/// program granularity) and the per-program progress hook (fires
/// concurrently from campaign worker threads; the timer's mutex
/// serializes both).
ResultBlock execute_lease(const diff::CampaignConfig& config,
                          const support::Json& echo, LeaseTransport& transport,
                          int lease, std::uint64_t begin, std::uint64_t end,
                          double heartbeat_seconds) {
  HeartbeatTimer timer(transport, lease, heartbeat_seconds);
  diff::RangeHooks hooks;
  hooks.on_program = [&](std::uint64_t, std::uint64_t) {
    timer.beat_if_due();
  };
  diff::RangeOutcome out = diff::run_campaign_range(config, begin, end, hooks);
  ResultBlock block;
  block.config_echo = echo;
  block.begin = begin;
  block.end = end;
  block.per_level = std::move(out.per_level);
  block.records = std::move(out.records);
  return block;
}

}  // namespace

void check_worker_options(const WorkerOptions& options) {
  const auto refuse = [](const char* flag, const char* rule, double value) {
    throw std::invalid_argument(
        support::format("%s must be %s (got %g)", flag, rule, value));
  };
  if (options.lease_size < 1)
    refuse("--lease-size", "at least 1", options.lease_size);
  if (!(std::isfinite(options.heartbeat_seconds) &&
        options.heartbeat_seconds > 0.0))
    refuse("--heartbeat", "a positive, finite number of seconds",
           options.heartbeat_seconds);
  if (!(std::isfinite(options.stale_after_seconds) &&
        options.stale_after_seconds >= 0.0))
    refuse("--stale-after", "a finite number of seconds, 0 or more",
           options.stale_after_seconds);
}

WorkerOutcome run_worker(const diff::CampaignConfig& config,
                         const WorkerOptions& options) {
  check_worker_options(options);  // before any transport touches the board
  if (!options.coordinator.empty()) {
    if (!options.dir.empty())
      throw std::invalid_argument(
          "run_worker: --worker directory and --coordinator are mutually "
          "exclusive transports");
    const auto [host, port] = net::parse_host_port(options.coordinator);
    TcpTransportOptions topts;
    topts.host = host;
    topts.port = port;
    topts.worker_id = options.worker_id.empty() ? default_worker_id()
                                                : options.worker_id;
    topts.journal_dir = options.journal_dir;
    topts.retry = options.retry;
    topts.request_timeout_seconds = options.request_timeout_seconds;
    TcpLeaseTransport transport(std::move(topts));
    return run_worker(config, options, transport);
  }
  if (options.dir.empty())
    throw std::invalid_argument("run_worker: no lease directory");
  FsLeaseTransport transport(options.dir, options.worker_id.empty()
                                              ? default_worker_id()
                                              : options.worker_id);
  return run_worker(config, options, transport);
}

WorkerOutcome run_worker(const diff::CampaignConfig& config,
                         const WorkerOptions& options,
                         LeaseTransport& transport) {
  check_worker_options(options);
  const int count = lease_count(config.num_programs, options.lease_size);
  const support::Json echo = config_to_json(config);
  const auto stop = [&] {
    return options.stop_requested && options.stop_requested();
  };
  WorkerOutcome outcome;
  // Worker-loop waits (coordinator down, campaign not yet reachable) use
  // the same capped-backoff-with-deterministic-jitter policy as the
  // transport's own request retries — no raw sleep loops anywhere on the
  // coordinator path.
  const support::RetryPolicy reconnect =
      options.retry.seeded_for(transport.worker_id() + "/loop");
  int down_spells = 0;

  // Publish or verify the manifest, patiently: a TCP worker may start
  // before its coordinator (or during a coordinator restart), and that
  // must read as "not yet", not as failure.  Configuration mismatches are
  // std::runtime_error and still propagate immediately.
  for (;;) {
    if (stop()) return outcome;
    try {
      transport.publish_or_verify_manifest(echo, options.lease_size, count);
      break;
    } catch (const TransportError&) {
      if (!support::interruptible_sleep(reconnect.backoff_for(down_spells++),
                                        stop))
        return outcome;
    }
  }
  // A restarted fleet inherits whatever temp files its predecessors'
  // kills stranded; housekeep once up front (steals housekeep
  // incrementally).
  try {
    transport.maintain(options.stale_after_seconds);
  } catch (const TransportError&) {
    // Housekeeping is best-effort; the scan loop retries the transport.
  }
  down_spells = 0;

  // Which leases the worker knows are done.  The done set comes from one
  // list_done() when a pass starts and when a claim is refused — never one
  // request per lease, and not after every lease either, which would make
  // a large campaign quadratic in its lease count.
  std::vector<char> done(static_cast<std::size_t>(count), 0);
  int n_done = 0;
  const auto refresh = [&] {
    for (const int k : transport.list_done()) {
      char& known = done[static_cast<std::size_t>(k)];
      if (known == 0) {
        known = 1;
        ++n_done;
      }
    }
  };
  // A worker that runs out of claimable leases waits for its peers (or for
  // their claims to age out) and re-scans.  The wait starts at 2 ms and
  // doubles up to clamp(stale_after / 10, 2 ms, 0.5 s), and starts over
  // after any scan that made progress: a lease can take milliseconds, and
  // the fleet is finished only when its last worker sees the last publish.
  support::RetryPolicy idle;
  idle.initial_backoff_seconds = 0.002;
  idle.multiplier = 2.0;
  idle.max_backoff_seconds =
      std::clamp(options.stale_after_seconds / 10.0, 0.002, 0.5);
  idle = idle.seeded_for(transport.worker_id() + "/idle");
  int idle_spells = 0;

  // Start the scan at a worker-dependent offset so a fleet launched
  // simultaneously fans out across the lease range instead of serializing
  // on lease 0's claim file.
  const int offset =
      count == 0 ? 0
                 : static_cast<int>(std::hash<std::string>{}(
                                        transport.worker_id()) %
                                    static_cast<std::size_t>(count));

  bool stopped = false;
  while (n_done < count && !(stopped = stop())) {
    bool progressed = false;
    bool transport_down = false;
    try {
      refresh();
      for (int step = 0; step < count && n_done < count; ++step) {
        const int k = (offset + step) % count;
        if (done[static_cast<std::size_t>(k)] != 0) continue;
        if ((stopped = stop())) break;
        bool stolen = false;
        // Check the claim's age before attempting one, so workers waiting
        // out a peer's lease cost the backend one read per scan, not a
        // claim-publish cycle.  The check is advisory; the backend's
        // atomic claim operation stays the arbiter when the lease looks
        // free.
        const double age = transport.claim_age_seconds(k);
        if (age < 0.0) {
          // Refused: a peer won the race, or the lease is finished (claims
          // refuse finished leases) and the done set is out of date.
          if (!transport.try_claim(k)) {
            refresh();
            continue;
          }
        } else {
          if (age < options.stale_after_seconds) continue;
          // A stale claim on a finished lease (its owner was killed
          // between the done file and the end of its claim) is reaped by
          // this housekeeping or by the steal, which then refuses the
          // lease.
          transport.maintain(options.stale_after_seconds);
          if (!transport.try_steal(k)) {
            refresh();
            continue;
          }
          stolen = true;
        }
        // We own lease k.  Execute and flush it even if a stop arrives
        // mid-lease — an interrupted worker never strands claimed work;
        // the interrupt latency is bounded by one lease.  The publish ends
        // the claim.
        const auto [begin, end] = lease_range(config.num_programs, count, k);
        try {
          const ResultBlock block =
              execute_lease(config, echo, transport, k, begin, end,
                            options.heartbeat_seconds);
          transport.publish_done(k, count, block);
        } catch (...) {
          // A failed lease (I/O error, allocation failure) must not strand
          // its claim behind the staleness window on top of killing this
          // worker: release first, then let the error surface.
          transport.release(k);
          throw;
        }
        done[static_cast<std::size_t>(k)] = 1;
        ++n_done;
        ++outcome.leases_completed;
        if (stolen) ++outcome.leases_stolen;
        outcome.programs_executed += end - begin;
        progressed = true;
        if (options.on_lease)
          options.on_lease({k, begin, end, stolen});
        if ((stopped = stop())) break;
      }
    } catch (const TransportError&) {
      // The backend is unreachable.  A held claim is safe to abandon to
      // the retry: claims are idempotent for their own worker, and at
      // worst the lease ages out and is re-executed elsewhere.  Back off
      // and rescan once the coordinator returns.
      transport_down = true;
    }
    if (stopped || n_done >= count) break;
    if (transport_down) {
      if (!support::interruptible_sleep(
              reconnect.backoff_for(down_spells++), stop)) {
        stopped = true;
        break;
      }
    } else {
      down_spells = 0;
      if (progressed) {
        idle_spells = 0;
      } else {
        // Everything left is claimed by peers that still look alive; wait
        // for them to finish — or for their heartbeats to go stale, at
        // which point the scan above steals and the campaign still
        // converges.
        if (!support::interruptible_sleep(idle.backoff_for(idle_spells++),
                                          stop)) {
          stopped = true;
          break;
        }
      }
    }
  }
  try {
    // A claim lingering on a lease a peer finished is garbage — its owner
    // was killed between the done file and the end of its claim.  One
    // housekeeping request reaps every such claim, so a finished directory
    // holds no claim files.  The leases this worker published ended their
    // own claims.
    transport.maintain(options.stale_after_seconds);
  } catch (const TransportError&) {
    // Final housekeeping is best-effort; stale claims age out anyway.
  }
  // drain(): a TCP worker holding journaled blocks the coordinator never
  // received must not report completion — its results are not yet where
  // the merge will look for them.
  outcome.campaign_complete = n_done == count && transport.drain();
  return outcome;
}

bool campaign_complete(const std::string& dir) {
  support::Json manifest;
  try {
    manifest = load_manifest(dir);
  } catch (const std::exception&) {
    return false;
  }
  const int count = static_cast<int>(manifest.at("lease_count").as_int());
  for (int k = 0; k < count; ++k) {
    if (!std::filesystem::exists(done_path(dir, k))) return false;
  }
  return true;
}

support::Json config_echo_of_dir(const std::string& dir) {
  return load_manifest(dir).at("config");
}

diff::CampaignResults merge_lease_dir(const std::string& dir,
                                      const LeaseMergeOptions& options) {
  const support::Json manifest = load_manifest(dir);
  const support::Json& echo = manifest.at("config");
  const int count = static_cast<int>(manifest.at("lease_count").as_int());
  const int num_programs =
      static_cast<int>(echo.at("num_programs").as_int());
  std::vector<ResultBlock> blocks;
  blocks.reserve(static_cast<std::size_t>(count));
  std::vector<std::string> quarantined;
  for (int k = 0; k < count; ++k) {
    const std::string path = done_path(dir, k);
    if (!std::filesystem::exists(path))
      throw std::runtime_error(
          "merge_lease_dir: lease " + std::to_string(k) + " of " +
          std::to_string(count) +
          " is unfinished (no done file); run a worker to completion first");
    int lease_index = -1;
    int stored_count = -1;
    ResultBlock block;
    // Why the file cannot be lease k's block; empty when it can.  Crash
    // litter (a torn or corrupt done file — possible only outside the
    // atomic write-then-rename discipline, e.g. a failing disk or a
    // partial copy) and a parseable block of another lease (a hand edit,
    // or a coordinator before the state dir became its board) both get a
    // diagnostic naming the file, and optionally a quarantine rename so a
    // re-run worker regenerates the lease.
    const auto expected = lease_range(num_programs, count, k);
    std::string fault;
    try {
      block = block_from_json(
          support::Json::parse(support::read_file(path)), &lease_index,
          &stored_count);
      if (lease_index != k || stored_count != count)
        fault = " does not belong to this lease partition";
      else if (block.begin != expected.first || block.end != expected.second)
        fault = " covers an unexpected program range";
    } catch (const std::exception& e) {
      fault = std::string(" is corrupt (") + e.what() + ")";
    }
    if (fault.empty()) {
      blocks.push_back(std::move(block));
      continue;
    }
    if (!options.quarantine)
      throw std::runtime_error(
          "merge_lease_dir: " + path + fault +
          "; re-run with --quarantine to set it aside and let a worker "
          "regenerate lease " + std::to_string(k));
    support::rename_file(path, path + ".quarantined");
    quarantined.push_back(path);
  }
  if (!quarantined.empty()) {
    std::string names;
    for (const auto& q : quarantined) {
      if (!names.empty()) names += ", ";
      names += q;
    }
    throw std::runtime_error(
        "merge_lease_dir: quarantined " + std::to_string(quarantined.size()) +
        " corrupt or misplaced done file(s): " + names +
        " (renamed *.quarantined); re-run workers against " + dir +
        " to regenerate, then merge again");
  }
  return merge_blocks(echo, std::move(blocks));
}

}  // namespace gpudiff::campaign
