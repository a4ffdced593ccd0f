#include "store/serve.hpp"

#include <stdexcept>
#include <utility>

#include "net/wire.hpp"

namespace gpudiff::store {

using support::Json;

namespace {

std::string string_field(const Json& request, const char* key,
                         const char* fallback = nullptr) {
  if (!request.contains(key)) {
    if (fallback != nullptr) return fallback;
    throw std::invalid_argument(std::string("missing \"") + key + "\" field");
  }
  if (!request.at(key).is_string())
    throw std::invalid_argument(std::string("\"") + key +
                                "\" must be a string");
  return request.at(key).as_string();
}

}  // namespace

StoreServer::StoreServer(ServeOptions options)
    : options_(std::move(options)),
      server_([this](const Json& request, std::string*) {
                return hello(request);
              },
              [this](const Json& request, const std::string&) {
                return handle(request);
              },
              options_.bind_host, options_.port,
              options_.io_timeout_seconds) {
  if (options_.dir.empty())
    throw std::invalid_argument("StoreServer: empty store directory");
  // Loading the directory IS recovery: the files on disk are the journal,
  // and a SIGKILL between requests loses nothing that was ingested.
  index_ = load_store(options_.dir);
}

int StoreServer::commit_count_locked() const {
  int n = static_cast<int>(index_.populations.size());
  for (const auto& [commit, perf] : index_.perf)
    if (index_.populations.find(commit) == index_.populations.end()) ++n;
  return n;
}

int StoreServer::commit_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_count_locked();
}

support::Json StoreServer::hello(const Json& request) {
  const std::int64_t version =
      request.get_or("version", Json(std::int64_t{0})).as_int();
  if (version != net::kWireVersion)
    throw std::invalid_argument("wire version " + std::to_string(version) +
                                " unsupported (server: " +
                                std::to_string(net::kWireVersion) + ")");
  const std::int64_t store_version =
      request.get_or("store_version", Json(std::int64_t{kStoreVersion}))
          .as_int();
  if (store_version != kStoreVersion)
    throw std::invalid_argument("store version " +
                                std::to_string(store_version) +
                                " unsupported (server: " +
                                std::to_string(kStoreVersion) + ")");
  Json response = net::ok_response(request);
  response["store_version"] = kStoreVersion;
  std::lock_guard<std::mutex> lock(mu_);
  response["commits"] = commit_count_locked();
  return response;
}

support::Json StoreServer::handle(const Json& request) {
  const std::string op = string_field(request, "op");
  std::lock_guard<std::mutex> lock(mu_);
  Json response = net::ok_response(request);
  if (op == "ping") {
    return response;
  } else if (op == "summary") {
    response["summary"] = summary(index_);
  } else if (op == "population") {
    response["population"] =
        population(index_, string_field(request, "commit"),
                   string_field(request, "fingerprint", ""));
  } else if (op == "pair") {
    response["drilldown"] = pair_drilldown(
        index_, string_field(request, "commit"),
        string_field(request, "fingerprint", ""), string_field(request, "pair"));
  } else if (op == "trend") {
    response["trend"] = trend(index_);
  } else if (op == "diff") {
    DiffOptions options;
    if (request.contains("max_perf_regress_pct"))
      options.max_perf_regress_pct =
          request.at("max_perf_regress_pct").as_double();
    response["diff"] = diff_commits(index_, string_field(request, "from"),
                                    string_field(request, "to"), options);
  } else if (op == "refresh") {
    // Re-scan the directory so concurrently ingested results become
    // visible; a failed load leaves the previous index in place.
    StoreIndex fresh = load_store(options_.dir);
    index_ = std::move(fresh);
    response["commits"] = commit_count_locked();
  } else {
    throw std::invalid_argument("unknown op \"" + op + "\"");
  }
  return response;
}

}  // namespace gpudiff::store
