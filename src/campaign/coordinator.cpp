#include "campaign/coordinator.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "campaign/scheduler.hpp"
#include "net/wire.hpp"
#include "support/lockfile.hpp"

namespace gpudiff::campaign {

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
  recover();
}

void Coordinator::recover() {
  if (!std::filesystem::exists(manifest_path(options_.dir)))
    return;  // fresh directory; the first hello will seed the manifest
  const support::Json manifest = load_manifest(options_.dir);
  config_echo_ = manifest.at("config");
  lease_size_ = static_cast<int>(manifest.at("lease_size").as_int());
  lease_count_ = static_cast<int>(manifest.at("lease_count").as_int());
  have_manifest_ = true;
  const auto now = std::chrono::steady_clock::now();
  for (int k = 0; k < lease_count_; ++k) {
    if (std::filesystem::exists(done_path(options_.dir, k))) done_.insert(k);
    const std::string claim = claim_path(options_.dir, k);
    if (!std::filesystem::exists(claim)) continue;
    const std::string owner = claim_owner(claim);
    if (owner.empty()) {
      // A torn claim file cannot happen through write-then-rename; treat
      // unreadable litter as no claim (worst case: duplicate work).
      support::remove_file(claim);
      continue;
    }
    // Recovered claims restart with beat = now: a live owner re-beats
    // within one heartbeat interval; a dead one ages out and is stolen.
    claims_[k] = Claim{owner, now};
  }
}

void Coordinator::persist_claim(int lease, const std::string& worker) {
  // Same bytes a filesystem-board worker would link into place, so the
  // state directory stays a valid lease directory.
  support::write_file_atomic(claim_path(options_.dir, lease),
                             claim_document(lease, worker), ".tmp");
}

int Coordinator::done_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(done_.size());
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
  if (!request.contains("worker") || !request.at("worker").is_string() ||
      request.at("worker").as_string().empty())
    throw std::invalid_argument("hello carries no worker id");
  if (!request.contains("config") || !request.at("config").is_object())
    throw std::invalid_argument("hello carries no campaign configuration");
  const int lease_size = static_cast<int>(
      request.get_or("lease_size", support::Json(std::int64_t{0})).as_int());
  const int lease_count = static_cast<int>(
      request.get_or("lease_count", support::Json(std::int64_t{-1})).as_int());
  if (lease_size < 1 || lease_count < 0)
    throw std::invalid_argument("hello carries no lease geometry");

  std::lock_guard<std::mutex> lock(mu_);
  if (!have_manifest_) {
    // First worker seeds the campaign.  Persist before acknowledging so a
    // coordinator killed right after the hello still refuses a different
    // campaign on restart.
    const support::Json manifest =
        make_manifest(request.at("config"), lease_size, lease_count);
    support::write_file_atomic(manifest_path(options_.dir), manifest.dump(1),
                               ".tmp");
    config_echo_ = request.at("config");
    lease_size_ = lease_size;
    lease_count_ = lease_count;
    have_manifest_ = true;
  } else {
    if (request.at("config") != config_echo_)
      throw std::invalid_argument(
          "campaign configuration mismatch: this coordinator serves a "
          "different campaign");
    if (lease_size != lease_size_ || lease_count != lease_count_)
      throw std::invalid_argument(
          "lease geometry mismatch: every worker of one campaign must agree "
          "on --lease-size");
  }
  *worker = request.at("worker").as_string();
  return net::ok_response(request);
}

support::Json Coordinator::handle(const support::Json& request,
                                  const std::string& worker) {
  const std::string op =
      request.get_or("op", support::Json("")).as_string();
  // Malformed requests throw std::invalid_argument: the client is wrong,
  // and net::Server refuses them fatally.
  const auto lease_of = [&]() -> int {
    if (!request.contains("lease") || !request.at("lease").is_number())
      throw std::invalid_argument("request carries no lease index");
    const int k = static_cast<int>(request.at("lease").as_int());
    if (k < 0 || k >= lease_count_)
      throw std::invalid_argument("lease index out of range");
    return k;
  };

  std::lock_guard<std::mutex> lock(mu_);
  support::Json resp = net::ok_response(request);
  if (op == "claim") {
    const int k = lease_of();
    const auto it = claims_.find(k);
    if (it == claims_.end()) {
      persist_claim(k, worker);
      claims_[k] = Claim{worker, std::chrono::steady_clock::now()};
      resp["acquired"] = true;
    } else if (it->second.worker == worker) {
      // Idempotent for the claim's own worker: a retried claim whose
      // first response was lost in flight must not read as "lost the
      // race" — the worker would skip a lease it actually owns.
      it->second.beat = std::chrono::steady_clock::now();
      resp["acquired"] = true;
    } else {
      resp["acquired"] = false;
    }
  } else if (op == "age") {
    const int k = lease_of();
    const auto it = claims_.find(k);
    resp["age"] = it == claims_.end()
                      ? -1.0
                      : std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - it->second.beat)
                            .count();
  } else if (op == "steal") {
    const int k = lease_of();
    const auto it = claims_.find(k);
    if (it == claims_.end()) {
      resp["stolen"] = false;  // nothing to steal — lost the race
    } else {
      persist_claim(k, worker);
      it->second = Claim{worker, std::chrono::steady_clock::now()};
      resp["stolen"] = true;
    }
  } else if (op == "reap") {
    const int k = lease_of();
    const bool existed = claims_.erase(k) > 0;
    if (existed) support::remove_file(claim_path(options_.dir, k));
    resp["reaped"] = existed;
  } else if (op == "heartbeat") {
    const int k = lease_of();
    const auto it = claims_.find(k);
    const bool beating = it != claims_.end() && it->second.worker == worker;
    if (beating) it->second.beat = std::chrono::steady_clock::now();
    resp["beating"] = beating;
  } else if (op == "release") {
    const int k = lease_of();
    const auto it = claims_.find(k);
    if (it != claims_.end() && it->second.worker == worker) {
      claims_.erase(it);
      support::remove_file(claim_path(options_.dir, k));
    }
  } else if (op == "done") {
    resp["done"] = done_.count(lease_of()) > 0;
  } else if (op == "list_done") {
    support::Json done = support::Json::array();
    for (const int k : done_) done.push_back(k);
    resp["done"] = std::move(done);
  } else if (op == "publish") {
    if (!request.contains("block") || !request.at("block").is_object())
      throw std::invalid_argument("publish carries no block");
    const support::Json& block = request.at("block");
    const int k = static_cast<int>(block.at("lease").at("index").as_int());
    const int count =
        static_cast<int>(block.at("lease").at("count").as_int());
    if (k < 0 || k >= lease_count_ || count != lease_count_)
      throw std::invalid_argument(
          "published block does not belong to this lease partition");
    // Done files are immutable: a duplicate publish (a paused owner and
    // its stealer both finishing, or a retried request whose first
    // response was lost) is acknowledged without rewriting — by the
    // determinism invariant the duplicate carries identical bytes.
    if (done_.count(k) == 0) {
      support::write_file_atomic(done_path(options_.dir, k), block.dump(1),
                                 ".tmp");
      done_.insert(k);
    }
  } else {
    throw std::invalid_argument("unknown op \"" + op + "\"");
  }
  return resp;
}

}  // namespace gpudiff::campaign
