#pragma once
// The daemon half of the net/wire.hpp protocol, shared by the lease
// coordinator (campaign/coordinator.hpp) and the results store daemon
// (store/serve.hpp).  A service supplies two functions — a hello check and
// an op handler — and the server owns everything else about a session:
//
//   - the listener, the accept loop and one thread per connection; the
//     accept loop joins each thread once its connection has ended (within
//     one I/O timeout), so a daemon holds threads for live connections
//     only, and a connection it cannot start a thread for is refused
//     alone;
//   - the hello gate: a request before an accepted hello is refused as
//     fatal, and a connection with no accepted hello after
//     kHelloDeadlineTicks I/O timeouts is closed (10 s at both daemons'
//     0.25 s), so silent connections cannot pin threads;
//   - the error mapping: a check or handler throwing std::invalid_argument
//     means the client is wrong, which earns a fatal response ("do not
//     retry") and closes the connection; any other std::exception is a
//     server-side condition (disk I/O, an unknown key) answered with a
//     non-fatal error on a connection that stays open.
//
// Every response echoes the request's "seq" (net::ok_response and
// net::error_response both take it from the request).

#include <atomic>
#include <functional>
#include <list>
#include <string>
#include <thread>

#include "net/socket.hpp"
#include "support/json.hpp"

namespace gpudiff::net {

/// I/O-timeout ticks a connection may spend without an accepted hello.
inline constexpr int kHelloDeadlineTicks = 40;

class Server {
 public:
  /// Vets a hello: returns its ok response and sets `peer`, the identity
  /// the connection's later requests are served for; throws to refuse.
  using HelloCheck = std::function<support::Json(const support::Json& hello,
                                                 std::string* peer)>;
  /// Answers one request on a connection whose hello was accepted.
  using Handler = std::function<support::Json(const support::Json& request,
                                              const std::string& peer)>;

  /// Binds host:port (0 = an ephemeral port, see port()); throws
  /// std::runtime_error if it cannot.  Connections read at
  /// `io_timeout_seconds` granularity, so it also bounds how long stop()
  /// waits for them.
  Server(HelloCheck hello, Handler handle, const std::string& host, int port,
         double io_timeout_seconds);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const noexcept { return listener_.port(); }

  /// Serve on a background thread; returns immediately.
  void start();
  /// Stop accepting, join every thread (accept loop + live connections —
  /// each polls stop at the I/O timeout, so this returns within about one
  /// timeout), then close the listener.  Joining before closing keeps the
  /// close and the accept loop's poll off the fd at the same time.
  /// Idempotent.
  void stop();

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  ///< set by the thread as it exits
  };

  void accept_loop();
  void serve(Socket socket);

  const HelloCheck hello_;
  const Handler handle_;
  const double io_timeout_seconds_;
  Listener listener_;
  std::atomic<bool> stop_{false};
  /// Touched only by the accept thread while it runs, then by stop().
  std::list<Connection> connections_;
  std::thread accept_thread_;
};

}  // namespace gpudiff::net
