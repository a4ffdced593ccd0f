#pragma once
// gpudiff-serve: the results store served over the net/ wire protocol.
//
// A long-running daemon holds a store's documents in a mutexed in-memory
// StoreIndex and answers query ops without re-parsing reports.  The index
// is pure cache: the store directory on disk (every file written
// atomically by store::ingest) is the only durable state, so a SIGKILLed
// server restarted on the same directory rebuilds the exact index —
// byte-identical query answers — by reloading it.  "refresh" re-scans the
// directory under the mutex, which is how results ingested while the
// server runs become visible.
//
// Session shape (the wire invariant, served by net::Server like the
// coordinator's): a client opens with a versioned hello; the server
// refuses wire-version or store-version mismatches fatally at connect.
// After the hello, each request carries a client-chosen monotonically
// increasing "seq" echoed by the response.
//
//   {"op":"hello","version":v,"store_version":1,"seq":n}
//       (v: net::kWireVersion, shared with the coordinator)
//       -> {"ok":true,"commits":c,"store_version":1,"seq":n}
//   {"op":"summary",...}        -> {"ok":true,"summary":{...}}
//   {"op":"population","commit":c,"fingerprint":f?,...}
//       -> {"ok":true,"population":{...}}
//   {"op":"pair","commit":c,"fingerprint":f?,"pair":p,...}
//       -> {"ok":true,"drilldown":{...}}
//   {"op":"trend",...}          -> {"ok":true,"trend":{...}}
//   {"op":"diff","from":a,"to":b,"max_perf_regress_pct":x?,...}
//       -> {"ok":true,"diff":{...}}
//   {"op":"refresh",...}        -> {"ok":true,"commits":c}
//   {"op":"ping",...}           -> {"ok":true}
//
// Errors: {"ok":false,"error":"...","fatal":b,"seq":n}.  A query that
// names an unknown commit/fingerprint/pair is a non-fatal error (the
// client picked a bad key; the connection is fine); a malformed or
// unknown op is fatal, as is a request before hello.

#include <mutex>
#include <string>

#include "net/server.hpp"
#include "store/store.hpp"
#include "support/json.hpp"

namespace gpudiff::store {

struct ServeOptions {
  /// Store directory to serve (must already exist with a format marker —
  /// run an ingest first; an empty store is still a valid store).
  std::string dir;
  std::string bind_host = "127.0.0.1";
  /// 0 binds an ephemeral port; see StoreServer::port().
  int port = 0;
  /// Per-connection I/O timeout.  Reads poll at this granularity, so it
  /// also bounds how long stop() waits for connection threads.
  double io_timeout_seconds = 0.25;
};

class StoreServer {
 public:
  /// Binds the listener and loads the store into the in-memory index —
  /// the entire crash-recovery path, shared with ordinary startup.
  /// Throws std::runtime_error if the port cannot be bound or the store
  /// is unreadable.
  explicit StoreServer(ServeOptions options);

  /// The bound port (resolves ephemeral port 0).
  int port() const noexcept { return server_.port(); }
  const std::string& dir() const noexcept { return options_.dir; }

  /// Serve on a background thread; returns immediately.
  void start() { server_.start(); }
  /// Stop accepting, join every connection thread, then close the
  /// listener (net::Server::stop).  Idempotent.
  void stop() { server_.stop(); }

  /// Commits present in the index (populations or perf).
  int commit_count() const;

  /// One post-hello request against the index, under the mutex — exposed
  /// so tests can drive the query surface without sockets.
  support::Json handle(const support::Json& request);

 private:
  /// net::Server's hello check; refusals throw std::invalid_argument.
  support::Json hello(const support::Json& request);
  int commit_count_locked() const;

  ServeOptions options_;

  mutable std::mutex mu_;  ///< guards index_
  StoreIndex index_;

  /// Declared last, so it is destroyed (stopped) before the index its
  /// connection threads read.
  net::Server server_;
};

}  // namespace gpudiff::store
