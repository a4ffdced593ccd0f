#include "campaign/coordinator.hpp"

#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/transport.hpp"
#include "net/wire.hpp"
#include "support/lockfile.hpp"

namespace gpudiff::campaign {

namespace {

/// get_or's fallback for members read by reference: it must outlive them.
const support::Json kAbsent;

/// A request's integer member `key` if it is in [0, INT_MAX], else -1.
int index_member(const support::Json& request, const char* key) {
  const support::Json& v = request.get_or(key, kAbsent);
  const bool ok = v.type() == support::Json::Type::Int && v.as_int() >= 0 &&
                  v.as_int() <= std::numeric_limits<int>::max();
  return ok ? static_cast<int>(v.as_int()) : -1;
}

}  // namespace

/// Holds one request's turn in its worker's lane: joins (or opens) the lane
/// under mu_, then waits on the lane alone, so other workers' requests go
/// ahead meanwhile.  The last request to leave a lane drops it.
class Coordinator::Turn {
 public:
  Turn(Coordinator& coordinator, const std::string& worker)
      : coordinator_(coordinator), worker_(worker) {
    {
      std::lock_guard<std::mutex> lock(coordinator_.mu_);
      lane_ = &coordinator_.lanes_[worker_];
      ++lane_->users;
    }
    lane_->turn.lock();
  }
  ~Turn() {
    lane_->turn.unlock();
    std::lock_guard<std::mutex> lock(coordinator_.mu_);
    if (--lane_->users == 0) coordinator_.lanes_.erase(worker_);
  }
  Turn(const Turn&) = delete;
  Turn& operator=(const Turn&) = delete;

 private:
  Coordinator& coordinator_;
  const std::string& worker_;
  Lane* lane_ = nullptr;
};

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)),
      server_([this](const support::Json& request,
                     std::string* worker) { return hello(request, worker); },
              [this](const support::Json& request, const std::string& worker) {
                return handle(request, worker);
              },
              options_.bind_host, options_.port,
              options_.io_timeout_seconds) {
  if (options_.dir.empty())
    throw std::invalid_argument("Coordinator: empty state directory");
  std::filesystem::create_directories(options_.dir);
  if (!std::filesystem::exists(manifest_path(options_.dir)))
    return;  // fresh directory; the first hello publishes the manifest
  const support::Json manifest = load_manifest(options_.dir);
  config_echo_ = manifest.at("config");
  lease_count_ = static_cast<int>(manifest.at("lease_count").as_int());
  // Claim ages kept growing while the coordinator was down: give a live
  // owner one heartbeat interval to re-beat before its claim reads stale.
  for (int k = 0; k < lease_count_; ++k)
    support::touch_file(claim_path(options_.dir, k));
}

void Coordinator::make_durable(const std::string& path) const {
  support::sync_path(path);
  support::sync_path(options_.dir);
}

int Coordinator::done_count() const {
  int count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    count = lease_count_;
  }
  return static_cast<int>(
      FsLeaseTransport(options_.dir, "coordinator", count).list_done().size());
}

support::Json Coordinator::hello(const support::Json& request,
                                 std::string* worker) {
  const std::int64_t version =
      request.get_or("version", support::Json(std::int64_t{0})).as_int();
  if (version != net::kWireVersion)
    throw std::invalid_argument(
        "wire protocol version " + std::to_string(version) +
        " unsupported (coordinator speaks version " +
        std::to_string(net::kWireVersion) + ")");
  const support::Json& id = request.get_or("worker", kAbsent);
  if (!id.is_string())
    throw std::invalid_argument("hello carries no worker id");
  // A campaign that could never merge is refused before it reaches the
  // board.
  const support::Json& config = request.get_or("config", kAbsent);
  int num_programs = 0;
  try {
    num_programs = config_from_json(config).num_programs;
  } catch (const std::exception& e) {
    throw std::invalid_argument(
        std::string("hello carries no valid campaign configuration: ") +
        e.what());
  }
  const int lease_size = index_member(request, "lease_size");
  const int count = index_member(request, "lease_count");
  if (lease_size < 1 || count != lease_count(num_programs, lease_size))
    throw std::invalid_argument(
        "hello's lease geometry does not partition its campaign");

  std::lock_guard<std::mutex> lock(mu_);
  // A worker id that cannot end a file name is refused here, fatally.
  FsLeaseTransport board(options_.dir, id.as_string());
  try {
    board.publish_or_verify_manifest(config, lease_size, count);
  } catch (const ManifestMismatch& e) {
    throw std::invalid_argument(e.what());
  }
  if (lease_count_ < 0) {
    // Durable before acknowledged, so a coordinator killed right after
    // the hello still refuses a different campaign on restart.
    make_durable(manifest_path(options_.dir));
    config_echo_ = config;
    lease_count_ = count;
  }
  *worker = id.as_string();
  return net::ok_response(request);
}

support::Json Coordinator::handle(const support::Json& request,
                                  const std::string& worker) {
  const std::string op =
      request.get_or("op", support::Json("")).as_string();
  // The manifest fields were set, once, before this connection's hello was
  // answered: read under the lock, they hold for the whole request.
  int lease_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lease_count = lease_count_;
  }
  const Turn turn(*this, worker);
  // Malformed requests throw std::invalid_argument: the client is wrong,
  // and net::Server refuses them fatally.
  const auto lease_of = [&] {
    const int k = index_member(request, "lease");
    if (k < 0 || k >= lease_count)
      throw std::invalid_argument("request carries no lease index in range");
    return k;
  };

  FsLeaseTransport board(options_.dir, worker, lease_count);
  support::Json resp = net::ok_response(request);
  if (op == "claim") {
    const int k = lease_of();
    const bool acquired = board.try_claim(k);
    if (acquired) make_durable(claim_path(options_.dir, k));
    resp["acquired"] = acquired;
  } else if (op == "age") {
    resp["age"] = board.claim_age_seconds(lease_of());
  } else if (op == "steal") {
    const int k = lease_of();
    const bool stolen = board.try_steal(k);
    if (stolen) make_durable(claim_path(options_.dir, k));
    resp["stolen"] = stolen;
  } else if (op == "reap") {
    resp["reaped"] = board.tombstone_claim(lease_of());
  } else if (op == "heartbeat") {
    resp["beating"] = board.heartbeat(lease_of());
  } else if (op == "release") {
    board.release(lease_of());
  } else if (op == "maintain") {
    const support::Json& window = request.get_or("stale_after", kAbsent);
    if (!window.is_number() || window.as_double() < 0.0)
      throw std::invalid_argument(
          "maintain carries no stale_after window of 0 or more seconds");
    board.maintain(window.as_double());
  } else if (op == "done") {
    resp["done"] = board.is_done(lease_of());
  } else if (op == "list_done") {
    support::Json done = support::Json::array();
    for (const int k : board.list_done()) done.push_back(k);
    resp["done"] = std::move(done);
  } else if (op == "publish") {
    // Only a block that merges is published.  Its config is checked first,
    // so block_from_json never reads a foreign one.
    const support::Json& doc = request.get_or("block", kAbsent);
    const int n = static_cast<int>(config_echo_.at("num_programs").as_int());
    int k = -1;
    int count = -1;
    ResultBlock block;
    try {
      if (doc.get_or("config", kAbsent) != config_echo_)
        throw std::invalid_argument("another campaign's configuration");
      block = block_from_json(doc, &k, &count);
      if (count != lease_count || k < 0 || k >= count ||
          std::make_pair(block.begin, block.end) != lease_range(n, count, k))
        throw std::invalid_argument("not its lease's program range");
    } catch (const std::exception& e) {
      throw std::invalid_argument(
          std::string("publish refused, the block can never merge: ") +
          e.what());
    }
    board.publish_done(k, count, block);
  } else {
    throw std::invalid_argument("unknown op \"" + op + "\"");
  }
  return resp;
}

}  // namespace gpudiff::campaign
