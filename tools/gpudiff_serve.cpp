// gpudiff-serve: ingest, query and serve the results store (src/store/).
//
// One binary covers the store workflow end to end:
//
//   # fold campaign reports and BENCH files into the store under a commit
//   gpudiff-serve --store db --commit abc1234 --ingest results.json,BENCH_abc1234.json
//
//   # local queries (no daemon needed)
//   gpudiff-serve --store db --summary
//   gpudiff-serve --store db --trend --json
//   gpudiff-serve --store db --diff abc1234,def5678 --gate
//
//   # long-running query daemon over the net/ wire protocol
//   gpudiff-serve --store db --serve --port 7071
//
//   # one query against a running daemon (hello + request/response)
//   gpudiff-serve --connect 127.0.0.1:7071 --query '{"op":"summary"}'
//
// The daemon's in-memory index is pure cache over the store directory:
// SIGKILL it at any moment, restart it on the same --store, and every
// query answers byte-identically — the files on disk are the journal.
// --gate is the CI regression gate: exit 0 when the diff is clean, 4 when
// any discrepancy population grew or any benchmark regressed past
// --max-perf-regress percent.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "diff/report.hpp"
#include "net/wire.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"
#include "support/cli.hpp"
#include "support/retry.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpudiff;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

int run_ingest(const support::CliParser& cli) {
  const std::string commit = cli.get_string("commit");
  if (commit.empty()) {
    std::fprintf(stderr, "gpudiff-serve: --ingest needs --commit\n");
    return 1;
  }
  store::IngestOptions options;
  options.quarantine = cli.get_flag("quarantine");
  options.max_exemplars = static_cast<int>(cli.get_int("max-exemplars"));
  std::vector<std::string> paths;
  for (const auto& p : support::split(cli.get_string("ingest"), ','))
    if (!p.empty()) paths.push_back(p);
  const store::IngestOutcome outcome =
      store::ingest(cli.get_string("store"), commit, paths, options);
  std::printf("ingested %d report(s) and %d bench file(s) under %s\n",
              outcome.reports, outcome.bench_files, commit.c_str());
  for (const auto& q : outcome.quarantined)
    std::printf("quarantined %s\n", q.c_str());
  return outcome.quarantined.empty() ? 0 : 3;
}

int run_query(support::CliParser& cli) {
  // One connection, one hello, then the query with the next seq — the
  // same exchange the worker transport speaks.
  const auto [host, port] = net::parse_host_port(cli.get_string("connect"));
  const double timeout = cli.get_double("timeout");
  net::Socket socket = net::connect_tcp(host, port, timeout);
  if (!socket.valid()) {
    std::fprintf(stderr, "gpudiff-serve: %s unreachable\n",
                 cli.get_string("connect").c_str());
    return 2;
  }
  support::Json hello = support::Json::object();
  hello["op"] = "hello";
  hello["version"] = net::kWireVersion;
  hello["store_version"] = store::kStoreVersion;
  support::Json response;
  if (net::request_response(socket, std::move(hello), 1, &response, timeout) !=
          net::IoStatus::Ok ||
      !response.get_or("ok", support::Json(false)).as_bool()) {
    std::fprintf(stderr, "gpudiff-serve: hello refused: %s\n",
                 response.get_or("error", support::Json("no response"))
                     .as_string()
                     .c_str());
    return 2;
  }
  support::Json query;
  try {
    query = support::Json::parse(cli.get_string("query"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudiff-serve: --query is not valid JSON: %s\n",
                 e.what());
    return 1;
  }
  if (net::request_response(socket, std::move(query), 2, &response, timeout) !=
      net::IoStatus::Ok) {
    std::fprintf(stderr, "gpudiff-serve: no response to query\n");
    return 2;
  }
  // The raw response line, exactly as the server framed it: scripts pipe
  // this into jq / cmp, and the determinism invariant makes it diffable.
  std::printf("%s\n", response.dump().c_str());
  return response.get_or("ok", support::Json(false)).as_bool() ? 0 : 2;
}

int run_serve(const support::CliParser& cli) {
  store::ServeOptions options;
  options.dir = cli.get_string("store");
  options.bind_host = cli.get_string("bind");
  options.port = static_cast<int>(cli.get_int("port"));
  store::StoreServer server(options);
  // The resolved port on its own line, so scripts binding port 0 can
  // scrape where the daemon actually listens (the coordinator idiom).
  std::printf("gpudiff-serve listening on %s:%d (store: %s, %d commits)\n",
              options.bind_host.c_str(), server.port(), server.dir().c_str(),
              server.commit_count());
  std::fflush(stdout);
  server.start();
  while (!g_stop.load(std::memory_order_relaxed))
    support::interruptible_sleep(0.2, [] {
      return g_stop.load(std::memory_order_relaxed);
    });
  server.stop();
  std::printf("gpudiff-serve: stopped (%d commits indexed)\n",
              server.commit_count());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli("gpudiff-serve",
                         "Results store: ingest, query, diff and serve "
                         "discrepancy/perf populations across commits");
  cli.add_string("store", 's', "store directory", "");
  cli.add_string("ingest", 'i',
                 "comma-separated campaign reports / BENCH_*.json files to "
                 "fold into the store",
                 "");
  cli.add_string("commit", 'c', "commit label the ingested files belong to",
                 "");
  cli.add_flag("quarantine",
               "--ingest: set corrupt input files aside as *.quarantined "
               "instead of aborting on the first one");
  cli.add_int("max-exemplars", 'e',
              "exemplar record keys kept per (pair, class) at ingest", 5);
  cli.add_flag("summary", "print the per-commit summary table");
  cli.add_flag("trend", "print cross-commit trend series (JSON)");
  cli.add_string("diff", 'D', "diff two ingested commits: from,to", "");
  cli.add_flag("gate",
               "with --diff: exit 4 on any population or perf regression "
               "(the CI trend gate)");
  cli.add_double("max-perf-regress", 'R',
                 "perf regression threshold in percent for --diff/--gate",
                 10.0);
  cli.add_flag("json", "print query results as JSON instead of tables");
  cli.add_flag("serve", "run the query daemon until SIGINT/SIGTERM");
  cli.add_string("bind", 'b', "--serve: address to listen on", "127.0.0.1");
  cli.add_int("port", 'p', "--serve: port (0 = ephemeral, printed)", 0);
  cli.add_string("connect", 'C', "query a running daemon at host:port", "");
  cli.add_string("query", 'q',
                 "--connect: one request object, e.g. '{\"op\":\"summary\"}'",
                 "");
  cli.add_double("timeout", 'T', "--connect: per-operation timeout seconds",
                 10.0);
  if (!cli.parse(argc, argv)) return 1;

  try {
    if (!cli.get_string("connect").empty()) return run_query(cli);
    if (cli.get_string("store").empty()) {
      std::fprintf(stderr, "gpudiff-serve: --store is required\n");
      return 1;
    }
    if (!cli.get_string("ingest").empty()) return run_ingest(cli);
    if (cli.get_flag("serve")) {
      std::signal(SIGINT, handle_signal);
      std::signal(SIGTERM, handle_signal);
      return run_serve(cli);
    }
    if (cli.get_flag("summary")) {
      const store::StoreIndex index = store::load_store(cli.get_string("store"));
      const support::Json doc = store::summary(index);
      if (cli.get_flag("json"))
        std::printf("%s\n", doc.dump(1).c_str());
      else
        std::fputs(diff::render_store_summary(doc).c_str(), stdout);
      return 0;
    }
    if (cli.get_flag("trend")) {
      const store::StoreIndex index = store::load_store(cli.get_string("store"));
      std::printf("%s\n", store::trend(index).dump(1).c_str());
      return 0;
    }
    if (!cli.get_string("diff").empty()) {
      const auto parts = support::split(cli.get_string("diff"), ',');
      if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) {
        std::fprintf(stderr, "gpudiff-serve: --diff wants from,to\n");
        return 1;
      }
      const store::StoreIndex index = store::load_store(cli.get_string("store"));
      store::DiffOptions options;
      options.max_perf_regress_pct = cli.get_double("max-perf-regress");
      const support::Json doc =
          store::diff_commits(index, parts[0], parts[1], options);
      if (cli.get_flag("json"))
        std::printf("%s\n", doc.dump(1).c_str());
      else
        std::fputs(diff::render_store_diff(doc).c_str(), stdout);
      if (cli.get_flag("gate") && !doc.at("clean").as_bool()) return 4;
      return 0;
    }
    std::fprintf(stderr,
                 "gpudiff-serve: nothing to do (pass --ingest, --summary, "
                 "--trend, --diff, --serve or --connect)\n");
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpudiff-serve: %s\n", e.what());
    return 2;
  }
}
