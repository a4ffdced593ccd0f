#include "campaign/transport.hpp"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <string_view>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "net/wire.hpp"
#include "support/lockfile.hpp"

namespace gpudiff::campaign {

namespace {

/// Reap temp files stranded by workers killed mid-publish: claim temps
/// and tombstones ("lease-<k>.claim.tmp.<unique>",
/// "lease-<k>.claim.stale.<worker>"), done-file temps
/// ("lease-<k>.done.json.tmp.<unique>") and manifest temps
/// ("campaign.json.tmp.<unique>") older than the staleness window.  Without
/// this, every SIGKILL between a temp write and its link/rename leaks one
/// file into the shared directory forever.  A *live* publisher whose temp
/// is this old is indistinguishable from a dead one; reaping its temp
/// makes its publish return "not acquired" (see publish_file_exclusive),
/// which the protocol already treats as losing a race.
void sweep_stale_temps(const std::string& dir, double older_than) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const bool temp = name.find(".claim.") != std::string::npos ||
                      name.find(".done.json.tmp.") != std::string::npos ||
                      name.rfind("campaign.json.", 0) == 0;
    if (!temp) continue;
    const std::string path = entry.path().string();
    const double age = support::file_age_seconds(path);
    if (age > std::max(0.0, older_than)) support::remove_file(path);
  }
}

/// The journal's blocks — done files named as in a lease directory, never
/// a write-in-progress temp — sorted by name.
std::vector<std::filesystem::path> journal_entries(const std::string& dir) {
  std::vector<std::filesystem::path> entries;
  if (!std::filesystem::is_directory(dir)) return entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() &&
        done_lease_of(entry.path().filename().string()) >= 0)
      entries.push_back(entry.path());
  std::sort(entries.begin(), entries.end());
  return entries;
}

}  // namespace

// ---------------------------------------------------------------------------
// FsLeaseTransport — the shared-directory board.
// ---------------------------------------------------------------------------

FsLeaseTransport::FsLeaseTransport(std::string dir, std::string worker_id,
                                   int lease_count)
    : dir_(std::move(dir)),
      worker_(std::move(worker_id)),
      lease_count_(lease_count) {
  if (dir_.empty())
    throw std::invalid_argument("FsLeaseTransport: empty directory");
  // The id ends one file name, a steal's tombstone of the claim at the
  // widest lease index.
  const std::size_t max_id =
      NAME_MAX - std::filesystem::path(claim_path(dir_, INT_MAX) + ".stale.")
                     .filename()
                     .string()
                     .size();
  if (worker_.empty() || worker_.size() > max_id ||
      worker_.find_first_of(std::string_view("/\0", 2)) != std::string::npos)
    throw std::invalid_argument(
        "FsLeaseTransport: worker id must be 1 to " + std::to_string(max_id) +
        " bytes with no '/' or NUL (it ends lease file names)");
  std::filesystem::create_directories(dir_);
}

void FsLeaseTransport::publish_or_verify_manifest(
    const support::Json& config_echo, int lease_size, int count) {
  const support::Json manifest =
      make_manifest(config_echo, lease_size, count);
  if (!support::publish_file_exclusive(manifest_path(dir_), manifest.dump(1))) {
    const support::Json existing = load_manifest(dir_);
    if (existing.at("config") != config_echo)
      throw ManifestMismatch(
          "scheduler: lease directory " + dir_ +
          " belongs to a different campaign configuration");
    if (existing.at("lease_size").as_int() != lease_size ||
        existing.at("lease_count").as_int() != count)
      throw ManifestMismatch(
          "scheduler: lease directory " + dir_ +
          " was carved with a different --lease-size; every worker of one "
          "campaign must agree on the lease geometry");
  }
  lease_count_ = count;
}

bool FsLeaseTransport::is_done(int lease) {
  return std::filesystem::exists(done_path(dir_, lease));
}

std::vector<int> FsLeaseTransport::list_done() {
  // One directory read, not one stat per lease.  Done files are never
  // removed, so every one that exists when the read starts is listed.
  std::vector<char> done(static_cast<std::size_t>(lease_count_), 0);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const int k = done_lease_of(entry.path().filename().string());
    if (k >= 0 && k < lease_count_) done[static_cast<std::size_t>(k)] = 1;
  }
  std::vector<int> listed;
  for (int k = 0; k < lease_count_; ++k)
    if (done[static_cast<std::size_t>(k)] != 0) listed.push_back(k);
  return listed;
}

bool FsLeaseTransport::try_claim(int lease) {
  // A claim this worker already holds is re-touched, not lost.
  if (!support::publish_file_exclusive(claim_path(dir_, lease),
                                       claim_document(lease, worker_)) &&
      !heartbeat(lease))
    return false;
  // The claim may have been winnable only because its owner published the
  // lease a moment ago (publish_done ends the claim after the done file is
  // durable), so the check comes after the link: a finished lease is
  // given back, never run again.
  if (!is_done(lease)) return true;
  release(lease);
  return false;
}

double FsLeaseTransport::claim_age_seconds(int lease) {
  return support::file_age_seconds(claim_path(dir_, lease));
}

bool FsLeaseTransport::tombstone_claim(int lease) {
  const std::string claim = claim_path(dir_, lease);
  const std::string tombstone = claim + ".stale." + worker_;
  // Exactly one of N racing reapers wins the rename; the losers see the
  // source gone.
  if (!support::rename_file(claim, tombstone)) return false;
  support::remove_file(tombstone);
  return true;
}

bool FsLeaseTransport::try_steal(int lease) {
  // The winner of the reap claims afresh — which can still lose to a
  // concurrent fresh claimer, and that is fine: either way the lease has
  // exactly one new owner.
  return tombstone_claim(lease) && try_claim(lease);
}

void FsLeaseTransport::reap_claim(int lease) { tombstone_claim(lease); }

bool FsLeaseTransport::heartbeat(int lease) {
  const std::string path = claim_path(dir_, lease);
  if (claim_owner(path) != worker_) return false;
  return support::touch_file(path);
}

void FsLeaseTransport::publish_done(int lease, int count,
                                    const ResultBlock& block) {
  // Done files are immutable: a duplicate publish (a paused owner and its
  // stealer both finishing, or a retried request whose first answer was
  // lost) writes nothing; by the determinism invariant it carries the same
  // bytes.  Two publishers can still pass the check together; each writes
  // its own temp file, the final renames race, and both sides rename
  // identical bytes, so either winner is whole and right.
  if (!is_done(lease))
    support::write_file_atomic(done_path(dir_, lease),
                               block_to_json(block, lease, count).dump(1));
  // The done file is durable, so the claim has done its work.
  release(lease);
}

void FsLeaseTransport::release(int lease) {
  // Ownership is checked first so a stealer's fresh claim is normally left
  // alone.  The check-then-remove pair is not atomic (POSIX has no
  // conditional unlink), so a steal landing in that window can still lose
  // its fresh claim; like every exclusion breakdown in this protocol, the
  // worst case is duplicate execution of a lease, never a wrong result.
  const std::string path = claim_path(dir_, lease);
  if (claim_owner(path) == worker_) support::remove_file(path);
}

void FsLeaseTransport::maintain(double stale_after_seconds) {
  sweep_stale_temps(dir_, stale_after_seconds);
}

// ---------------------------------------------------------------------------
// TcpLeaseTransport — the network backend.
// ---------------------------------------------------------------------------

TcpLeaseTransport::TcpLeaseTransport(TcpTransportOptions options)
    : options_(std::move(options)) {
  if (options_.worker_id.empty())
    throw std::invalid_argument("TcpLeaseTransport: empty worker id");
  if (options_.journal_dir.empty())
    options_.journal_dir =
        (std::filesystem::temp_directory_path() /
         ("gpudiff-journal-" + options_.worker_id))
            .string();
  // Distinct workers must not reconnect in lockstep after a coordinator
  // restart; derive the jitter stream from the worker id.
  options_.retry = options_.retry.seeded_for(options_.worker_id);
}

const std::string& TcpLeaseTransport::worker_id() const noexcept {
  return options_.worker_id;
}

void TcpLeaseTransport::ensure_connected_locked() {
  if (socket_.valid()) return;
  if (!hello_ready_)
    throw std::logic_error(
        "TcpLeaseTransport: operation before publish_or_verify_manifest");
  net::Socket s = net::connect_tcp(options_.host, options_.port,
                                   options_.connect_timeout_seconds);
  if (!s.valid())
    throw TransportError("coordinator " + options_.host + ":" +
                         std::to_string(options_.port) + " unreachable");
  support::Json hello = support::Json::object();
  hello["op"] = "hello";
  hello["version"] = net::kWireVersion;
  hello["worker"] = options_.worker_id;
  hello["config"] = hello_config_;
  hello["lease_size"] = lease_size_;
  hello["lease_count"] = lease_count_;
  exchange_locked(s, std::move(hello));
  socket_ = std::move(s);
  // A fresh connection is the reconnect moment: re-publish everything the
  // journal holds before any new work is claimed, so a worker that rode
  // out a coordinator outage hands over its results first.
  flush_journal_locked();
}

support::Json TcpLeaseTransport::exchange_locked(net::Socket& socket,
                                                 support::Json req) {
  const std::string op = req.at("op").as_string();
  support::Json resp;
  if (net::request_response(socket, std::move(req), ++seq_, &resp,
                            options_.request_timeout_seconds) !=
      net::IoStatus::Ok)
    throw TransportError(op + ": no response");
  if (resp.get_or("ok", support::Json(false)).as_bool()) return resp;
  const std::string error = resp.contains("error")
                                ? resp.at("error").as_string()
                                : "unspecified coordinator error";
  // A fatal refusal (configuration or version mismatch, malformed request)
  // is permanent: retrying cannot help, so it is no TransportError.
  if (resp.get_or("fatal", support::Json(false)).as_bool())
    throw std::runtime_error("coordinator refused " + op + ": " + error);
  throw TransportError("coordinator error on " + op + ": " + error);
}

support::Json TcpLeaseTransport::request_locked(support::Json req) {
  std::string last_error = "no attempt made";
  const int attempts = std::max(1, options_.retry.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0)
      support::interruptible_sleep(options_.retry.backoff_for(attempt - 1),
                                   nullptr);
    try {
      ensure_connected_locked();
      // A null request only connects: the hello and the journal flush.
      return req.is_null() ? req : exchange_locked(socket_, req);
    } catch (const TransportError& e) {
      last_error = e.what();
      socket_.close();
    }
    // std::runtime_error (fatal refusal) propagates: retrying cannot help.
  }
  throw TransportError("coordinator " + options_.host + ":" +
                       std::to_string(options_.port) + ": " + last_error +
                       " (after " + std::to_string(attempts) + " attempts)");
}

support::Json TcpLeaseTransport::request(support::Json req) {
  std::lock_guard<std::mutex> lock(mu_);
  return request_locked(std::move(req));
}

void TcpLeaseTransport::flush_journal_locked() {
  for (const auto& path : journal_entries(options_.journal_dir)) {
    support::Json doc;
    try {
      doc = support::Json::parse(support::read_file(path.string()));
    } catch (const std::exception&) {
      // A torn journal entry can only be a crash mid-write of the .tmp
      // rename path, which write_file_atomic prevents; treat garbage as
      // unpublishable and leave it for inspection.
      continue;
    }
    support::Json req = support::Json::object();
    req["op"] = "publish";
    req["block"] = std::move(doc);
    exchange_locked(socket_, std::move(req));  // TransportError: flush aborted
    std::filesystem::remove(path);
  }
}

int TcpLeaseTransport::journaled_blocks() const {
  return static_cast<int>(journal_entries(options_.journal_dir).size());
}

void TcpLeaseTransport::publish_or_verify_manifest(
    const support::Json& config_echo, int lease_size, int count) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    hello_config_ = config_echo;
    lease_size_ = lease_size;
    lease_count_ = count;
    hello_ready_ = true;
    socket_.close();  // force a fresh hello under the new parameters
  }
  // The hello is the manifest exchange: connect now, so a mismatch is
  // refused here, not on the first claim.
  request(support::Json());
}

bool TcpLeaseTransport::is_done(int lease) {
  support::Json req = support::Json::object();
  req["op"] = "done";
  req["lease"] = lease;
  return request(std::move(req)).at("done").as_bool();
}

std::vector<int> TcpLeaseTransport::list_done() {
  support::Json req = support::Json::object();
  req["op"] = "list_done";
  const support::Json resp = request(std::move(req));
  std::vector<int> done;
  for (const auto& k : resp.at("done").as_array()) {
    // The caller indexes its lease table with these.
    if (k.as_int() < 0 || k.as_int() >= lease_count_)
      throw std::runtime_error("coordinator listed lease " +
                               std::to_string(k.as_int()) + " of " +
                               std::to_string(lease_count_) + " as done");
    done.push_back(static_cast<int>(k.as_int()));
  }
  return done;
}

bool TcpLeaseTransport::try_claim(int lease) {
  support::Json req = support::Json::object();
  req["op"] = "claim";
  req["lease"] = lease;
  return request(std::move(req)).at("acquired").as_bool();
}

double TcpLeaseTransport::claim_age_seconds(int lease) {
  support::Json req = support::Json::object();
  req["op"] = "age";
  req["lease"] = lease;
  return request(std::move(req)).at("age").as_double();
}

bool TcpLeaseTransport::try_steal(int lease) {
  support::Json req = support::Json::object();
  req["op"] = "steal";
  req["lease"] = lease;
  return request(std::move(req)).at("stolen").as_bool();
}

void TcpLeaseTransport::reap_claim(int lease) {
  support::Json req = support::Json::object();
  req["op"] = "reap";
  req["lease"] = lease;
  try {
    request(std::move(req));
  } catch (const TransportError&) {
    // Best-effort housekeeping; a lingering claim only costs a later reap.
  }
}

bool TcpLeaseTransport::heartbeat(int lease) {
  support::Json req = support::Json::object();
  req["op"] = "heartbeat";
  req["lease"] = lease;
  try {
    return request(std::move(req)).at("beating").as_bool();
  } catch (const std::exception&) {
    // Must never throw: the heartbeat timer thread calls this, and the
    // protocol already treats a missed heartbeat as survivable (worst
    // case, the claim is stolen and the lease runs twice).
    return false;
  }
}

void TcpLeaseTransport::publish_done(int lease, int count,
                                     const ResultBlock& block) {
  const support::Json doc = block_to_json(block, lease, count);
  support::Json req = support::Json::object();
  req["op"] = "publish";
  req["block"] = doc;
  try {
    request(std::move(req));
  } catch (const TransportError&) {
    // Graceful degradation: the coordinator is unreachable, but the block
    // must not be lost — journal it locally (same atomic write-then-rename,
    // same bytes as the coordinator's done file) and re-publish on
    // reconnect.  Duplicate publishes are safe: the block is a pure
    // function of (fingerprint, range).
    std::filesystem::create_directories(options_.journal_dir);
    support::write_file_atomic(done_path(options_.journal_dir, lease),
                               doc.dump(1));
  }
}

void TcpLeaseTransport::release(int lease) {
  support::Json req = support::Json::object();
  req["op"] = "release";
  req["lease"] = lease;
  try {
    request(std::move(req));
  } catch (const TransportError&) {
    // Best-effort by contract: an unreleased claim ages out and is stolen.
  }
}

void TcpLeaseTransport::maintain(double /*stale_after_seconds*/) {
  // Staleness housekeeping lives on the coordinator; the worker-side
  // concern is the journal.  Opportunistically flush it (connecting
  // triggers flush_journal_locked).
  if (journaled_blocks() == 0) return;
  try {
    request(support::Json());
  } catch (const TransportError&) {
    // Still unreachable; the journal keeps waiting.
  }
}

bool TcpLeaseTransport::drain() {
  if (journaled_blocks() == 0) return true;
  try {
    request(support::Json());
  } catch (const TransportError&) {
    return false;
  }
  return journaled_blocks() == 0;
}

}  // namespace gpudiff::campaign
