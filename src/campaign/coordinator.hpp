#pragma once
// The TCP lease coordinator: the claim/heartbeat/steal/publish state
// machine of campaign/scheduler.hpp served over the line-framed JSON
// protocol of net/wire.hpp, from an in-memory board journaled to disk.
//
// Durability model: the coordinator's state directory uses the *same
// on-disk layout as a shared-directory lease dir* — campaign.json
// manifest, lease-<k>.claim markers, lease-<k>.done.json blocks, all in
// the bytes the filesystem board would write — so (a) a SIGKILLed
// coordinator restarted on the same directory recovers every claim and
// every done block, and (b) the ordinary merge stage
// (campaign::merge_lease_dir) consumes a coordinator directory directly;
// there is no second merge path to keep byte-identical.
//
// Claims are persisted on every transition (claim/steal/release/reap);
// heartbeats are deliberately memory-only.  A restart therefore resets
// every recovered claim's heartbeat to "now": live owners re-beat within
// one heartbeat interval, and dead owners' claims age past the staleness
// window and are stolen — exactly the recovery the protocol already
// defines, with no heartbeat-persistence write amplification.
//
// Concurrency: net::Server's accept loop and one thread per connection,
// every state transition under a single mutex (the state machine is tiny;
// the expensive work — executing leases — happens on the workers).  The
// coordinator supplies the server its hello check and op handler: each
// connection must open with a versioned hello carrying the campaign
// fingerprint, and mismatches are refused fatally at connect.

#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "net/server.hpp"
#include "support/json.hpp"

namespace gpudiff::campaign {

struct CoordinatorOptions {
  /// Durable state directory (created if needed).  FS lease-dir layout;
  /// restartable; mergeable with merge_lease_dir.
  std::string dir;
  std::string bind_host = "127.0.0.1";
  /// 0 binds an ephemeral port; see Coordinator::port().
  int port = 0;
  /// Per-connection I/O timeout.  Reads poll at this granularity, so it
  /// also bounds how long stop() waits for connection threads.
  double io_timeout_seconds = 0.25;
};

class Coordinator {
 public:
  /// Binds the listener and recovers any prior state from options.dir
  /// (manifest, done blocks, claims — claims restart with a fresh
  /// heartbeat).  Throws std::runtime_error if the port cannot be bound
  /// or the recovered state is unreadable.
  explicit Coordinator(CoordinatorOptions options);

  /// The bound port (resolves ephemeral port 0).
  int port() const noexcept { return server_.port(); }
  const std::string& dir() const noexcept { return options_.dir; }

  /// Serve on a background thread; returns immediately.
  void start() { server_.start(); }
  /// Stop accepting, join every connection thread, then close the
  /// listener (net::Server::stop; returns within about one
  /// io_timeout_seconds).  Idempotent.
  void stop() { server_.stop(); }

  /// Leases with a published done block (for status reporting).
  int done_count() const;

 private:
  struct Claim {
    std::string worker;
    std::chrono::steady_clock::time_point beat;
  };

  void recover();
  /// net::Server's hello check: seeds or verifies the campaign and names
  /// the connection's worker; refusals throw std::invalid_argument.
  support::Json hello(const support::Json& request, std::string* worker);
  /// One request against the board, under the state mutex.  `worker` is
  /// the connection's hello-established identity.
  support::Json handle(const support::Json& request,
                       const std::string& worker);
  void persist_claim(int lease, const std::string& worker);

  CoordinatorOptions options_;

  mutable std::mutex mu_;  ///< guards the board state below
  bool have_manifest_ = false;
  support::Json config_echo_;
  int lease_size_ = 0;
  int lease_count_ = 0;
  std::set<int> done_;
  std::map<int, Claim> claims_;

  /// Declared last, so it is destroyed (stopped) before the board its
  /// connection threads read.
  net::Server server_;
};

}  // namespace gpudiff::campaign
