#pragma once
// The TCP lease coordinator: a network front for the filesystem board.
// Every request of the net/wire.hpp protocol runs the matching
// FsLeaseTransport operation on the state directory, for the worker that
// the connection's hello named — one board and one set of lease rules,
// however a worker reaches them.  So the state directory is an ordinary
// lease directory: a `gpudiff-campaign --worker` on it joins the same
// fleet, a SIGKILLed coordinator restarted on it finds every claim and
// done block where the board keeps them, and campaign::merge_lease_dir
// consumes it directly.
//
// Durability: each claim granted by claim or steal (file and directory)
// and the manifest a hello publishes are fsynced before the answer; done
// files go through support::write_file_atomic.  A restart touches every
// surviving claim once: live owners re-beat within one heartbeat
// interval, dead owners' claims age out and are stolen.
//
// Outside bytes: a hello or publish that could never merge — a config
// config_from_json rejects, a lease count its config does not give, a
// worker id that cannot end a file name, a block of another campaign or
// of the wrong range — is refused fatally and writes nothing.
//
// Concurrency: net::Server's accept loop and one thread per connection.
// Requests of different workers run at once, as worker processes sharing
// one lease directory do: the board's link, rename and atomic-write rules
// arbitrate, and one worker's fsync no longer stalls the others.  Requests
// of one worker id take turns: a request retried over a new connection can
// arrive while the old one still serves its first attempt, and the turn
// runs the retry after it, so one worker's check-then-act steps on its own
// claims never interleave.  The coordinator-wide mutex guards only the
// manifest fields (set once) and the per-worker lanes.

#include <map>
#include <mutex>
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
  /// Binds the listener, reads the campaign manifest if options.dir has
  /// one, and gives every claim there a fresh heartbeat.  Throws
  /// std::runtime_error if the port cannot be bound or the manifest is
  /// unreadable or breaks the manifest rule (load_manifest names the file).
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
  /// net::Server's hello check: publishes or verifies the campaign's
  /// manifest and names the connection's worker; refusals throw
  /// std::invalid_argument.
  support::Json hello(const support::Json& request, std::string* worker);
  /// One request against the board, in its worker's turn.  `worker` is
  /// the connection's hello-established identity.
  support::Json handle(const support::Json& request,
                       const std::string& worker);
  /// fsync `path` and the state directory that holds it.
  void make_durable(const std::string& path) const;

  /// One worker id's requests, in line for their turn.
  struct Lane {
    std::mutex turn;
    int users = 0;  ///< requests holding or awaiting the turn (under mu_)
  };
  class Turn;

  CoordinatorOptions options_;

  /// Serializes hellos; guards the manifest fields below, set once by the
  /// startup read or the first accepted hello, and the lanes.
  mutable std::mutex mu_;
  support::Json config_echo_;  ///< the manifest's config fingerprint
  int lease_count_ = -1;       ///< -1 until the manifest exists
  std::map<std::string, Lane> lanes_;  ///< workers with a request in flight

  /// Declared last, so it is destroyed (stopped) before the state its
  /// connection threads read.
  net::Server server_;
};

}  // namespace gpudiff::campaign
