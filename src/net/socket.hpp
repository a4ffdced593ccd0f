#pragma once
// Minimal POSIX TCP layer for the daemons and their clients: RAII
// sockets, connect/listen/accept with timeouts, and newline-framed I/O.
//
// Everything is blocking-with-poll(2): reads and writes take an explicit
// timeout and report Timeout/Closed/Error instead of blocking forever, so
// every caller — net::Server's per-connection threads, the worker-side
// transport, the fault-injection proxy — can bound each operation and lets
// its retry policy decide what happens next.  SIGPIPE is never raised
// (sends use MSG_NOSIGNAL); a peer vanishing mid-write is an IoStatus, not
// a signal.

#include <string>
#include <string_view>
#include <utility>

namespace gpudiff::net {

enum class IoStatus {
  Ok,       ///< operation completed
  Timeout,  ///< deadline elapsed with the operation incomplete
  Closed,   ///< orderly shutdown by the peer (EOF)
  Error,    ///< connection reset / I/O failure — treat the socket as dead
};

/// Move-only owner of a connected socket fd with a buffered line reader.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Write all of `data`, polling for writability; partial progress before
  /// a timeout still returns Timeout (callers treat the socket as dead —
  /// the wire protocol never resumes a half-written frame).
  IoStatus send_all(std::string_view data, double timeout_seconds);

  /// Read up to and including the next '\n'; `*line` receives the line
  /// without its terminator.  Data beyond the newline stays buffered for
  /// the next call.  Closed is returned only once the buffer holds no
  /// complete line.
  IoStatus read_line(std::string* line, double timeout_seconds);

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Connect to host:port within the timeout.  Returns an invalid Socket on
/// failure (refused, unreachable, timeout) — callers are retry loops, so
/// failure is an ordinary value, not an exception.
Socket connect_tcp(const std::string& host, int port, double timeout_seconds);

/// Listening socket; port 0 binds an ephemeral port (see port()).
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Bind + listen; throws std::runtime_error on failure (an unusable
  /// daemon should die loudly at startup, not limp).
  void listen(const std::string& host, int port, int backlog = 64);
  bool valid() const noexcept { return fd_ >= 0; }
  int port() const noexcept { return port_; }
  void close() noexcept;

  /// Accept one connection, or an invalid Socket on timeout/closure.
  Socket accept(double timeout_seconds);

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Parse "host:port" (host may be empty or a dotted quad / name).  Throws
/// std::runtime_error on a malformed string or out-of-range port.
std::pair<std::string, int> parse_host_port(const std::string& spec);

}  // namespace gpudiff::net
