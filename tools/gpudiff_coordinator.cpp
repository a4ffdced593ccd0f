// gpudiff-coordinator: the TCP lease coordinator for network-elastic
// worker fleets (campaign/coordinator.hpp).
//
//   gpudiff-coordinator --dir coord-state --port 7070
//
// It serves the filesystem lease board of its state directory over TCP,
// so the directory is an ordinary lease directory: restart a killed
// coordinator on the same --dir and every claim and lease block is still
// there, a `gpudiff-campaign --worker coord-state` joins the fleet, and a
// finished fleet merges with `gpudiff-campaign --merge coord-state`.
//
// The coordinator is campaign-agnostic until the first hello (or a
// --worker on the directory) publishes the manifest; after that, hellos
// carrying another campaign or wire protocol version are refused at
// connect.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>

#include "campaign/coordinator.hpp"
#include "support/cli.hpp"
#include "support/retry.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  gpudiff::support::CliParser cli(
      "gpudiff-coordinator",
      "TCP lease coordinator for network-elastic gpudiff-campaign fleets");
  cli.add_string("dir", 'd',
                 "durable state directory (lease-dir layout; restartable, "
                 "mergeable with gpudiff-campaign --merge)",
                 "");
  cli.add_string("bind", 'b', "address to listen on", "127.0.0.1");
  cli.add_int("port", 'p', "port to listen on (0 = ephemeral, printed)", 0);
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get_string("dir").empty()) {
    std::fprintf(stderr, "gpudiff-coordinator: --dir is required (the state "
                         "directory is the durability story)\n");
    return 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    gpudiff::campaign::CoordinatorOptions options;
    options.dir = cli.get_string("dir");
    options.bind_host = cli.get_string("bind");
    options.port = static_cast<int>(cli.get_int("port"));
    gpudiff::campaign::Coordinator coordinator(options);
    // The resolved port on its own line, so scripts (and the fleet tests)
    // binding port 0 can scrape where the coordinator actually listens.
    std::printf("gpudiff-coordinator listening on %s:%d (state: %s)\n",
                options.bind_host.c_str(), coordinator.port(),
                coordinator.dir().c_str());
    std::fflush(stdout);
    coordinator.start();
    while (!g_stop.load(std::memory_order_relaxed))
      gpudiff::support::interruptible_sleep(0.2, [] {
        return g_stop.load(std::memory_order_relaxed);
      });
    coordinator.stop();
    std::printf("gpudiff-coordinator: %d lease blocks published to %s\n",
                coordinator.done_count(), coordinator.dir().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudiff-coordinator: %s\n", e.what());
    return 2;
  }
}
