#include "net/server.hpp"

#include <stdexcept>
#include <system_error>
#include <utility>

#include "net/wire.hpp"

namespace gpudiff::net {

Server::Server(HelloCheck hello, Handler handle, const std::string& host,
               int port, double io_timeout_seconds)
    : hello_(std::move(hello)),
      handle_(std::move(handle)),
      io_timeout_seconds_(io_timeout_seconds) {
  listener_.listen(host, port);
}

Server::~Server() { stop(); }

void Server::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (stop_.exchange(true)) return;
  // The accept loop polls stop_ at the I/O timeout and exits on its own;
  // once it has, nothing else touches connections_.
  if (accept_thread_.joinable()) accept_thread_.join();
  for (Connection& c : connections_) c.thread.join();
  connections_.clear();
  listener_.close();
}

void Server::accept_loop() {
  while (!stop_.load()) {
    // Join the threads whose connections have ended: a thread left
    // unjoined keeps its stack mapped, one per connection ever accepted.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (!it->done.load()) {
        ++it;
        continue;
      }
      it->thread.join();
      it = connections_.erase(it);
    }
    Socket socket = listener_.accept(io_timeout_seconds_);
    if (!socket.valid()) continue;  // timeout
    Connection& c = connections_.emplace_back();
    try {
      c.thread = std::thread([this, &c, s = std::move(socket)]() mutable {
        serve(std::move(s));
        c.done.store(true);
      });
    } catch (const std::system_error&) {
      // No thread to be had (EAGAIN): refuse this one connection — its
      // socket closes with the lambda — instead of the whole daemon.
      connections_.pop_back();
    }
  }
}

void Server::serve(Socket socket) {
  bool greeted = false;
  int silent_ticks = 0;  // I/O timeouts before an accepted hello
  std::string peer;
  while (!stop_.load()) {
    support::Json request;
    const IoStatus status =
        recv_message(socket, &request, io_timeout_seconds_);
    if (status == IoStatus::Timeout) {
      // Poll stop_; a connection that never says hello would hold its
      // thread for as long as it stays open.
      if (!greeted && ++silent_ticks >= kHelloDeadlineTicks) return;
      continue;
    }
    if (status != IoStatus::Ok) return;  // closed or desynchronized
    support::Json response;
    bool fatal = false;
    try {
      if (request.get_or("op", support::Json("")).as_string() == "hello") {
        response = hello_(request, &peer);
        greeted = true;
      } else if (!greeted) {
        throw std::invalid_argument("request before hello");
      } else {
        response = handle_(request, peer);
      }
    } catch (const std::invalid_argument& e) {
      response = error_response(request, e.what(), /*fatal=*/true);
      fatal = true;
    } catch (const std::exception& e) {
      response = error_response(request, e.what(), /*fatal=*/false);
    }
    if (send_message(socket, response, io_timeout_seconds_) != IoStatus::Ok)
      return;
    if (fatal) return;  // refused connections are closed, not left to flounder
  }
}

}  // namespace gpudiff::net
