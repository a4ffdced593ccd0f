#include "store/store.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "campaign/checkpoint.hpp"
#include "diff/campaign.hpp"
#include "diff/discrepancy.hpp"
#include "support/strings.hpp"

namespace gpudiff::store {

using support::Json;

namespace {

constexpr const char* kStoreFormat = "gpudiff-store";
constexpr const char* kPopFormat = "gpudiff-store-population";
constexpr const char* kPerfFormat = "gpudiff-store-perf";
constexpr const char* kDiffFormat = "gpudiff-store-diff";
constexpr const char* kTrendFormat = "gpudiff-store-trend";

// -- paths -----------------------------------------------------------------

void check_commit_label(const std::string& commit) {
  const bool ok =
      !commit.empty() && commit.size() <= 100 && commit[0] != '.' &&
      std::all_of(commit.begin(), commit.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
      });
  if (!ok)
    throw std::runtime_error("store: invalid commit label \"" + commit +
                             "\" (want [A-Za-z0-9._-]+, not starting with "
                             "'.')");
}

std::string marker_path(const std::string& root) {
  return root + "/store.json";
}
std::string pop_dir(const std::string& root, const std::string& commit) {
  return root + "/pop/" + commit;
}
std::string perf_path(const std::string& root, const std::string& commit) {
  return root + "/perf/" + commit + ".json";
}

/// Create the store root (and its format marker) if it does not exist yet;
/// refuse a directory that carries a foreign marker.
void ensure_store(const std::string& root) {
  std::filesystem::create_directories(root);
  std::filesystem::create_directories(root + "/pop");
  std::filesystem::create_directories(root + "/perf");
  const std::string marker = marker_path(root);
  if (std::filesystem::exists(marker)) {
    campaign::check_format(Json::parse(support::read_file(marker)),
                           kStoreFormat, "gpudiff results store");
    return;
  }
  Json j = Json::object();
  j["format"] = kStoreFormat;
  j["version"] = kStoreVersion;
  support::write_file_atomic(marker, j.dump(1) + "\n");
}

/// Immutable publish: writing the same bytes again is a no-op, writing
/// different bytes under an existing key is refused — the done-file
/// discipline, applied to store documents.
void write_or_verify(const std::string& path, const std::string& contents,
                     const char* what) {
  if (std::filesystem::exists(path)) {
    if (support::read_file(path) == contents) return;
    throw std::runtime_error(std::string("store: ") + path +
                             ": conflicting re-ingest (an existing " + what +
                             " document differs; store files are immutable)");
  }
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path().string());
  support::write_file_atomic(path, contents);
}

// -- report -> population ---------------------------------------------------

bool is_campaign_report(const Json& j) {
  return j.is_object() && j.contains("format") &&
         j.at("format").is_string() &&
         j.at("format").as_string() == "gpudiff-campaign-results";
}

bool is_benchmark_file(const Json& j) {
  return j.is_object() && j.contains("benchmarks") &&
         j.at("benchmarks").is_array() && j.contains("context");
}

/// The header fields a report and its population share, as the report
/// spells them.
Json header_of(const diff::CampaignResults& results) {
  Json j = Json::object();
  j["seed"] = static_cast<long long>(results.seed);
  j["precision"] = ir::to_string(results.precision);
  j["hipify_converted"] = results.hipify_converted;
  j["num_programs"] = results.num_programs;
  j["inputs_per_program"] = results.inputs_per_program;
  return j;
}

Json names_of(const std::vector<std::string>& platforms) {
  Json names = Json::array();
  for (const auto& name : platforms) names.push_back(name);
  return names;
}

Json population_of(const Report& report, const std::string& commit,
                   int max_exemplars) {
  const diff::CampaignResults& results = report.results;
  const std::vector<std::string>& platforms = results.platforms;
  const ExemplarKeys exemplars =
      select_exemplars(results.records, platforms.size(), max_exemplars);

  Json j = Json::object();
  j["format"] = kPopFormat;
  j["version"] = kStoreVersion;
  j["commit"] = commit;
  j["fingerprint"] = report.fingerprint;
  Json source = header_of(results);
  source["report_version"] = report.config.is_null() ? 1 : 2;
  j["source"] = std::move(source);
  j["platforms"] = names_of(platforms);
  j["levels"] = diff::levels_to_json(results.levels);
  // Always the general N-way stats shape, whichever layout the report has.
  Json stats_arr = Json::array();
  for (const auto& stats : results.per_level)
    stats_arr.push_back(campaign::stats_to_json(stats, /*legacy_pair=*/false));
  j["per_level"] = std::move(stats_arr);
  Json ex = Json::object();
  for (std::size_t pi = 0; pi + 1 < platforms.size(); ++pi) {
    Json per_class = Json::object();
    for (int ci = 0; ci < diff::kDiscrepancyClassCount; ++ci) {
      const auto& keys = exemplars[pi][static_cast<std::size_t>(ci)];
      if (keys.empty()) continue;
      Json arr = Json::array();
      for (const auto& k : keys) arr.push_back(k);
      per_class[diff::to_string(diff::class_from_index(ci))] = std::move(arr);
    }
    ex[platforms[pi + 1]] = std::move(per_class);
  }
  j["exemplars"] = std::move(ex);
  Json totals = Json::object();
  totals["comparisons"] = static_cast<long long>(results.comparisons_total());
  totals["discrepancies"] =
      static_cast<long long>(results.discrepancies_total());
  totals["runs"] = static_cast<long long>(results.runs_total());
  j["totals"] = std::move(totals);
  return j;
}

// -- benchmark file -> perf points ------------------------------------------

double to_nanoseconds(double value, const std::string& unit) {
  if (unit == "ns") return value;
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  if (unit == "s") return value * 1e9;
  throw std::runtime_error("unknown benchmark time unit \"" + unit + "\"");
}

/// The median of `v`; sorts it.
double median_of(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Sample standard deviation over the mean (Google Benchmark's `cv`).
double cv_of(const std::vector<double>& v) {
  double mean = 0.0;
  for (const double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double squares = 0.0;
  for (const double x : v) squares += (x - mean) * (x - mean);
  if (mean == 0.0) return 0.0;
  return std::sqrt(squares / static_cast<double>(v.size() - 1)) / mean;
}

/// Fold one Google-Benchmark JSON file into a perf document's "benchmarks"
/// object.  Aggregate rows (mean/median/stddev/cv of repetitions) are
/// skipped.  A name with one iteration row keeps that row's times and
/// iteration count; a name with N > 1 rows (--benchmark_repetitions=N)
/// gets the median real and CPU times, the total iteration count,
/// `repetitions` N and `real_time_cv`.  Entries conflict-check against
/// any prior entry of the same name (two BENCH files for one commit must
/// agree where they overlap), and a file with any conflict adds nothing.
void fold_benchmarks(const Json& bench, Json& points) {
  struct Rows {
    std::vector<double> real_ns, cpu_ns;
    Json iterations;                ///< the first row's, as written
    long long later_iterations = 0;  ///< the other rows' sum
  };
  std::map<std::string, Rows> by_name;
  for (const auto& b : bench.at("benchmarks").as_array()) {
    if (b.get_or("run_type", Json("iteration")).as_string() != "iteration")
      continue;
    const std::string unit = b.get_or("time_unit", Json("ns")).as_string();
    Rows& rows = by_name[b.at("name").as_string()];
    rows.real_ns.push_back(to_nanoseconds(b.at("real_time").as_double(), unit));
    rows.cpu_ns.push_back(to_nanoseconds(b.at("cpu_time").as_double(), unit));
    if (rows.real_ns.size() == 1)
      rows.iterations = b.at("iterations");
    else
      rows.later_iterations += b.at("iterations").as_int();
  }
  Json folded = Json::object();
  for (auto& [name, rows] : by_name) {
    Json entry = Json::object();
    if (rows.real_ns.size() == 1) {
      entry["real_time_ns"] = rows.real_ns[0];
      entry["cpu_time_ns"] = rows.cpu_ns[0];
      entry["iterations"] = rows.iterations;
    } else {
      entry["real_time_cv"] = cv_of(rows.real_ns);
      entry["repetitions"] = static_cast<long long>(rows.real_ns.size());
      entry["real_time_ns"] = median_of(rows.real_ns);
      entry["cpu_time_ns"] = median_of(rows.cpu_ns);
      entry["iterations"] = rows.iterations.as_int() + rows.later_iterations;
    }
    if (points.contains(name) && points.at(name) != entry)
      throw std::runtime_error("benchmark \"" + name +
                               "\" already ingested for this commit with "
                               "different numbers");
    folded[name] = std::move(entry);
  }
  for (auto& [name, entry] : folded.as_object()) points[name] = std::move(entry);
}

// -- index helpers ----------------------------------------------------------

std::uint64_t population_total(const Json& pop, const char* which) {
  return static_cast<std::uint64_t>(pop.at("totals").at(which).as_int());
}

const std::map<std::string, Json>& commit_populations(
    const StoreIndex& index, const std::string& commit) {
  const auto it = index.populations.find(commit);
  if (it == index.populations.end())
    throw std::runtime_error("store: commit \"" + commit +
                             "\" has no ingested populations");
  return it->second;
}

/// Aggregate per-(pair, class) counts over every level of a population.
std::vector<std::array<std::uint64_t, diff::kDiscrepancyClassCount>>
pair_class_totals(const Json& pop) {
  const std::size_t n_pairs = pop.at("platforms").as_array().size() - 1;
  std::vector<std::array<std::uint64_t, diff::kDiscrepancyClassCount>> totals(
      n_pairs);
  for (auto& t : totals) t.fill(0);
  for (const auto& stats : pop.at("per_level").as_array()) {
    const auto& pairs = stats.at("pairs").as_array();
    for (std::size_t pi = 0; pi < n_pairs; ++pi) {
      const auto& counts = pairs[pi].at("class_counts").as_array();
      for (int ci = 0; ci < diff::kDiscrepancyClassCount; ++ci)
        totals[pi][static_cast<std::size_t>(ci)] += static_cast<std::uint64_t>(
            counts[static_cast<std::size_t>(ci)].as_int());
    }
  }
  return totals;
}

}  // namespace

std::string population_path(const std::string& root, const std::string& commit,
                            const std::string& fingerprint) {
  return pop_dir(root, commit) + "/" + fingerprint + ".json";
}

Report decode_report(const Json& report) {
  Report out{campaign::results_from_json(report), "", Json()};
  if (report.at("version").as_int() == 2) {
    // results_from_json checked the embedded key against its config bytes.
    out.fingerprint = report.at("fingerprint").as_string();
    out.config = report.at("config");
    return out;
  }
  // Version-1 reports carry no embedded fingerprint; derive a weaker key
  // from the header.  Campaigns differing only in generator grammar or
  // record cap collide under this derivation — the "cfg-"/"hdr-" prefixes
  // keep the two key families disjoint, and ingest's immutability check
  // still refuses conflicting payloads under a collided key.
  Json header = header_of(out.results);
  header["levels"] = diff::levels_to_json(out.results.levels);
  header["platforms"] = names_of(out.results.platforms);
  out.fingerprint = "hdr-" + support::fnv1a64_hex(header.dump());
  return out;
}

std::string record_key(const diff::DiscrepancyRecord& rec) {
  return std::to_string(rec.program_index) + ":" +
         std::to_string(rec.input_index) + ":" + opt::to_string(rec.level);
}

ExemplarKeys select_exemplars(const std::vector<diff::DiscrepancyRecord>& records,
                              std::size_t n_platforms, int max_exemplars) {
  if (n_platforms < 2)
    throw std::runtime_error("store: exemplar selection needs >= 2 platforms");
  ExemplarKeys exemplars(n_platforms - 1);
  for (const diff::DiscrepancyRecord& rec : records) {
    for (std::size_t p = 1; p < rec.pair_cls.size() && p < n_platforms; ++p) {
      if (rec.pair_cls[p] == diff::DiscrepancyClass::None) continue;
      auto& keys = exemplars[p - 1][static_cast<std::size_t>(
          diff::class_index(rec.pair_cls[p]))];
      if (static_cast<int>(keys.size()) < max_exemplars)
        keys.push_back(record_key(rec));
    }
  }
  return exemplars;
}

std::vector<diff::DiscrepancyRecord> pick_records(
    const std::vector<diff::DiscrepancyRecord>& records,
    std::set<std::string>& keys) {
  std::vector<diff::DiscrepancyRecord> picked;
  for (const diff::DiscrepancyRecord& rec : records) {
    if (keys.empty()) break;
    if (keys.erase(record_key(rec)) != 0) picked.push_back(rec);
  }
  return picked;
}

std::vector<diff::DiscrepancyRecord> resolve_exemplars(
    const Json& pop, const Report& report, const std::string& pop_name,
    const std::string& report_name) {
  const std::string& fp = report.fingerprint;
  if (pop.at("fingerprint").as_string() != fp)
    throw std::runtime_error(
        "store: population " + pop_name + " (fingerprint " +
        pop.at("fingerprint").as_string() + ") does not belong to report " +
        report_name + " (fingerprint " + fp + ")");

  std::set<std::string> keys;
  for (const auto& [pair_name, per_class] : pop.at("exemplars").as_object())
    for (const auto& [cls, arr] : per_class.as_object())
      for (const auto& key : arr.as_array()) keys.insert(key.as_string());
  std::vector<diff::DiscrepancyRecord> out =
      pick_records(report.results.records, keys);
  if (!keys.empty())
    throw std::runtime_error(
        "store: population " + pop_name + ": exemplar key" +
        (keys.size() > 1 ? "s " : " ") +
        support::join(std::vector<std::string>(keys.begin(), keys.end()),
                      ", ") +
        " of fingerprint " + fp + " resolve to no record in report " +
        report_name +
        " (the report was re-merged with a tighter record cap, or one of "
        "the two files is stale)");
  return out;
}

IngestOutcome ingest(const std::string& store_dir, const std::string& commit,
                     const std::vector<std::string>& paths,
                     const IngestOptions& options) {
  check_commit_label(commit);
  ensure_store(store_dir);
  IngestOutcome outcome;

  // Perf points accumulate across the ingested files (several BENCH files
  // may legitimately cover one commit); populations publish one file each.
  const std::string perf = perf_path(store_dir, commit);
  Json points = Json::object();
  bool have_prior_perf = false;
  if (std::filesystem::exists(perf)) {
    const Json prior = Json::parse(support::read_file(perf));
    campaign::check_format(prior, kPerfFormat, "gpudiff store perf document");
    points = prior.at("benchmarks");
    have_prior_perf = true;
  }
  bool perf_changed = false;

  for (const std::string& path : paths) {
    try {
      const Json doc = Json::parse(support::read_file(path));
      if (is_campaign_report(doc)) {
        const Report report = decode_report(doc);
        write_or_verify(
            population_path(store_dir, commit, report.fingerprint),
            population_of(report, commit, options.max_exemplars).dump(1) +
                "\n",
            "population");
        ++outcome.reports;
      } else if (is_benchmark_file(doc)) {
        fold_benchmarks(doc, points);
        perf_changed = true;
        ++outcome.bench_files;
      } else {
        throw std::runtime_error(
            "neither a gpudiff campaign report nor a Google-Benchmark JSON "
            "file");
      }
    } catch (const std::exception& e) {
      // Immutability conflicts are always fatal: the input parsed fine,
      // the store simply refuses to rewrite history.  Everything else
      // (unreadable, truncated, foreign) is a bad input file — name it,
      // and with --quarantine set it aside and keep going.
      const std::string what = e.what();
      if (what.rfind("store: ", 0) == 0) throw;
      if (!options.quarantine)
        throw std::runtime_error("store: " + path + ": " + what);
      std::error_code ec;
      std::filesystem::rename(path, path + ".quarantined", ec);
      outcome.quarantined.push_back(path + ": " + what);
    }
  }

  if (perf_changed) {
    Json j = Json::object();
    j["format"] = kPerfFormat;
    j["version"] = kStoreVersion;
    j["commit"] = commit;
    j["benchmarks"] = std::move(points);
    if (have_prior_perf) {
      // Growing an existing perf document is the one sanctioned mutation:
      // fold_benchmarks already refused any conflicting overlap, so the
      // new file is a superset of the old.
      support::write_file_atomic(perf, j.dump(1) + "\n");
    } else {
      write_or_verify(perf, j.dump(1) + "\n", "perf");
    }
  }
  return outcome;
}

StoreIndex load_store(const std::string& store_dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(store_dir))
    throw std::runtime_error("store: not a directory: " + store_dir);
  campaign::check_format(
      Json::parse(support::read_file(marker_path(store_dir))), kStoreFormat,
      "gpudiff results store");

  StoreIndex index;
  const auto load_doc = [](const std::string& path, const char* format,
                           const char* what) {
    try {
      Json j = Json::parse(support::read_file(path));
      campaign::check_format(j, format, what);
      return j;
    } catch (const std::exception& e) {
      throw std::runtime_error("store: " + path + ": " + e.what());
    }
  };

  const std::string pops = store_dir + "/pop";
  if (fs::is_directory(pops)) {
    for (const auto& commit_entry : fs::directory_iterator(pops)) {
      if (!commit_entry.is_directory()) continue;
      const std::string commit = commit_entry.path().filename().string();
      for (const auto& entry : fs::directory_iterator(commit_entry.path())) {
        if (!entry.is_regular_file()) continue;
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp") != std::string::npos) continue;  // crash litter
        if (!support::ends_with(name, ".json")) continue;
        Json doc = load_doc(entry.path().string(), kPopFormat,
                            "gpudiff store population document");
        const std::string fingerprint = name.substr(0, name.size() - 5);
        // The document's own keys must agree with its location — a stray
        // copy under the wrong commit must not silently relabel results.
        if (doc.at("commit").as_string() != commit ||
            doc.at("fingerprint").as_string() != fingerprint)
          throw std::runtime_error("store: " + entry.path().string() +
                                   ": document keys disagree with its "
                                   "location in the store");
        index.populations[commit][fingerprint] = std::move(doc);
      }
    }
  }
  const std::string perfs = store_dir + "/perf";
  if (fs::is_directory(perfs)) {
    for (const auto& entry : fs::directory_iterator(perfs)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.find(".tmp") != std::string::npos) continue;
      if (!support::ends_with(name, ".json")) continue;
      Json doc = load_doc(entry.path().string(), kPerfFormat,
                          "gpudiff store perf document");
      const std::string commit = name.substr(0, name.size() - 5);
      if (doc.at("commit").as_string() != commit)
        throw std::runtime_error("store: " + entry.path().string() +
                                 ": document keys disagree with its "
                                 "location in the store");
      index.perf[commit] = std::move(doc);
    }
  }
  return index;
}

Json summary(const StoreIndex& index) {
  // One row per commit label, merged over both halves of the index (a
  // commit may carry populations, perf points, or both).
  std::map<std::string, Json> rows;
  const auto row_for = [&](const std::string& commit) -> Json& {
    auto it = rows.find(commit);
    if (it == rows.end()) {
      Json row = Json::object();
      row["commit"] = commit;
      row["populations"] = 0;
      row["comparisons"] = 0;
      row["discrepancies"] = 0;
      row["benchmarks"] = 0;
      it = rows.emplace(commit, std::move(row)).first;
    }
    return it->second;
  };
  for (const auto& [commit, pops] : index.populations) {
    Json& row = row_for(commit);
    std::uint64_t comparisons = 0, discrepancies = 0;
    for (const auto& [fp, pop] : pops) {
      comparisons += population_total(pop, "comparisons");
      discrepancies += population_total(pop, "discrepancies");
    }
    row["populations"] = static_cast<long long>(pops.size());
    row["comparisons"] = static_cast<long long>(comparisons);
    row["discrepancies"] = static_cast<long long>(discrepancies);
  }
  for (const auto& [commit, perf] : index.perf)
    row_for(commit)["benchmarks"] =
        static_cast<long long>(perf.at("benchmarks").as_object().size());
  Json arr = Json::array();
  for (auto& [commit, row] : rows) arr.push_back(std::move(row));
  Json j = Json::object();
  j["commits"] = std::move(arr);
  return j;
}

const Json& population(const StoreIndex& index, const std::string& commit,
                       const std::string& fingerprint) {
  const auto& pops = commit_populations(index, commit);
  if (!fingerprint.empty()) {
    const auto it = pops.find(fingerprint);
    if (it == pops.end())
      throw std::runtime_error("store: commit \"" + commit +
                               "\" has no population \"" + fingerprint +
                               "\"");
    return it->second;
  }
  if (pops.size() != 1) {
    std::string known;
    for (const auto& [fp, pop] : pops) known += " " + fp;
    throw std::runtime_error("store: commit \"" + commit + "\" has " +
                             std::to_string(pops.size()) +
                             " populations; name one of:" + known);
  }
  return pops.begin()->second;
}

Json pair_drilldown(const StoreIndex& index, const std::string& commit,
                    const std::string& fingerprint, const std::string& pair) {
  const Json& pop = population(index, commit, fingerprint);
  const auto& platforms = pop.at("platforms").as_array();
  std::size_t pi = platforms.size();
  for (std::size_t p = 1; p < platforms.size(); ++p)
    if (platforms[p].as_string() == pair) pi = p - 1;
  if (pi == platforms.size()) {
    std::string known;
    for (std::size_t p = 1; p < platforms.size(); ++p)
      known += " " + platforms[p].as_string();
    throw std::runtime_error("store: population has no pair \"" + pair +
                             "\" (known:" + known + ")");
  }

  Json j = Json::object();
  j["commit"] = pop.at("commit");
  j["fingerprint"] = pop.at("fingerprint");
  j["baseline"] = platforms[0];
  j["pair"] = pair;
  Json per_level = Json::object();
  const auto& levels = pop.at("levels").as_array();
  const auto& stats = pop.at("per_level").as_array();
  std::uint64_t total = 0;
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const Json& ps = stats[li].at("pairs").as_array()[pi];
    Json entry = Json::object();
    entry["comparisons"] = stats[li].at("comparisons");
    Json counts = Json::object();
    const auto& cc = ps.at("class_counts").as_array();
    for (int ci = 0; ci < diff::kDiscrepancyClassCount; ++ci) {
      const auto n = cc[static_cast<std::size_t>(ci)].as_int();
      total += static_cast<std::uint64_t>(n);
      if (n != 0)
        counts[diff::to_string(diff::class_from_index(ci))] =
            static_cast<long long>(n);
    }
    entry["class_counts"] = std::move(counts);
    entry["adjacency"] = ps.at("adjacency");
    per_level[levels[li].as_string()] = std::move(entry);
  }
  j["per_level"] = std::move(per_level);
  j["discrepancies"] = static_cast<long long>(total);
  j["exemplars"] = pop.at("exemplars").get_or(pair, Json::object());
  return j;
}

Json trend(const StoreIndex& index) {
  Json j = Json::object();
  j["format"] = kTrendFormat;
  j["version"] = kStoreVersion;
  // Commit labels sort lexicographically — the one deterministic order an
  // ingest-order-independent store can offer.  Callers who want timeline
  // order use sortable labels (zero-padded sequence numbers, dates).
  Json commits = Json::array();
  {
    std::vector<std::string> all;
    for (const auto& [commit, pops] : index.populations) all.push_back(commit);
    for (const auto& [commit, perf] : index.perf)
      if (index.populations.find(commit) == index.populations.end())
        all.push_back(commit);
    std::sort(all.begin(), all.end());
    for (const auto& c : all) commits.push_back(c);
  }
  j["commits"] = std::move(commits);
  Json pops = Json::object();
  for (const auto& [commit, fps] : index.populations)
    for (const auto& [fp, pop] : fps) {
      if (!pops.contains(fp)) pops[fp] = Json::object();
      pops[fp][commit] =
          static_cast<long long>(population_total(pop, "discrepancies"));
    }
  j["populations"] = std::move(pops);
  Json benches = Json::object();
  for (const auto& [commit, perf] : index.perf)
    for (const auto& [name, entry] : perf.at("benchmarks").as_object()) {
      if (!benches.contains(name)) benches[name] = Json::object();
      benches[name][commit] = entry.at("real_time_ns");
    }
  j["benchmarks"] = std::move(benches);
  return j;
}

Json diff_commits(const StoreIndex& index, const std::string& from,
                  const std::string& to, const DiffOptions& options) {
  Json j = Json::object();
  j["format"] = kDiffFormat;
  j["version"] = kStoreVersion;
  j["from"] = from;
  j["to"] = to;
  j["max_perf_regress_pct"] = options.max_perf_regress_pct;

  std::vector<std::string> pop_regressions, perf_regressions;

  // Populations: match by fingerprint.  The fingerprint embeds the full
  // platform set (the store key rule), so a matched key with different
  // platform lists is a header-key collision between genuinely different
  // campaigns — refused, the way resume/merge refuse mixed platform sets.
  Json pops = Json::object();
  const auto empty = std::map<std::string, Json>{};
  const auto from_it = index.populations.find(from);
  const auto to_it = index.populations.find(to);
  const auto& from_pops =
      from_it == index.populations.end() ? empty : from_it->second;
  const auto& to_pops =
      to_it == index.populations.end() ? empty : to_it->second;
  // A commit with nothing ingested is indistinguishable from a typo'd
  // label, and a typo'd --diff side would gate "clean" — refuse it.
  for (const auto* side : {&from, &to}) {
    if (index.populations.find(*side) == index.populations.end() &&
        index.perf.find(*side) == index.perf.end())
      throw std::runtime_error("store: commit \"" + *side +
                               "\" has nothing ingested");
  }
  std::vector<std::string> fps;
  for (const auto& [fp, pop] : from_pops) fps.push_back(fp);
  for (const auto& [fp, pop] : to_pops)
    if (from_pops.find(fp) == from_pops.end()) fps.push_back(fp);
  std::sort(fps.begin(), fps.end());
  for (const std::string& fp : fps) {
    const auto a = from_pops.find(fp);
    const auto b = to_pops.find(fp);
    Json entry = Json::object();
    if (a == from_pops.end() || b == to_pops.end()) {
      const Json& only = a == from_pops.end() ? b->second : a->second;
      entry["status"] = a == from_pops.end() ? "only_to" : "only_from";
      entry["platforms"] = only.at("platforms");
      entry["discrepancies"] =
          static_cast<long long>(population_total(only, "discrepancies"));
      pops[fp] = std::move(entry);
      continue;
    }
    if (a->second.at("platforms") != b->second.at("platforms"))
      throw std::runtime_error(
          "store: fingerprint " + fp + " maps to different platform sets in " +
          from + " and " + to + " (mixed platform sets are refused, as in "
          "resume/merge)");
    entry["status"] = "matched";
    entry["platforms"] = a->second.at("platforms");
    const std::uint64_t da = population_total(a->second, "discrepancies");
    const std::uint64_t db = population_total(b->second, "discrepancies");
    Json disc = Json::object();
    disc["from"] = static_cast<long long>(da);
    disc["to"] = static_cast<long long>(db);
    disc["delta"] =
        static_cast<long long>(db) - static_cast<long long>(da);
    entry["discrepancies"] = std::move(disc);
    Json comp = Json::object();
    comp["from"] =
        static_cast<long long>(population_total(a->second, "comparisons"));
    comp["to"] =
        static_cast<long long>(population_total(b->second, "comparisons"));
    entry["comparisons"] = std::move(comp);
    // Per-(pair, class) deltas, aggregated over levels; only classes with
    // activity on either side, so the document stays readable at scale.
    const auto ta = pair_class_totals(a->second);
    const auto tb = pair_class_totals(b->second);
    const auto& platforms = a->second.at("platforms").as_array();
    Json pairs = Json::object();
    for (std::size_t pi = 0; pi < ta.size(); ++pi) {
      Json classes = Json::object();
      for (int ci = 0; ci < diff::kDiscrepancyClassCount; ++ci) {
        const std::uint64_t ca = ta[pi][static_cast<std::size_t>(ci)];
        const std::uint64_t cb = tb[pi][static_cast<std::size_t>(ci)];
        if (ca == 0 && cb == 0) continue;
        Json c = Json::object();
        c["from"] = static_cast<long long>(ca);
        c["to"] = static_cast<long long>(cb);
        c["delta"] = static_cast<long long>(cb) - static_cast<long long>(ca);
        classes[diff::to_string(diff::class_from_index(ci))] = std::move(c);
      }
      pairs[platforms[pi + 1].as_string()] = std::move(classes);
    }
    entry["pairs"] = std::move(pairs);
    const bool regressed = db > da;
    entry["regressed"] = regressed;
    if (regressed) pop_regressions.push_back(fp);
    pops[fp] = std::move(entry);
  }
  j["populations"] = std::move(pops);

  // Perf: match benchmarks by name; a matched benchmark whose real time
  // grew past the threshold is a regression.
  Json perf = Json::object();
  const Json empty_perf = Json::object();
  const auto pa = index.perf.find(from);
  const auto pb = index.perf.find(to);
  const Json& benches_a =
      pa == index.perf.end() ? empty_perf : pa->second.at("benchmarks");
  const Json& benches_b =
      pb == index.perf.end() ? empty_perf : pb->second.at("benchmarks");
  std::vector<std::string> names;
  for (const auto& [name, e] : benches_a.as_object()) names.push_back(name);
  for (const auto& [name, e] : benches_b.as_object())
    if (!benches_a.contains(name)) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    Json entry = Json::object();
    if (!benches_a.contains(name) || !benches_b.contains(name)) {
      entry["status"] = benches_a.contains(name) ? "only_from" : "only_to";
      perf[name] = std::move(entry);
      continue;
    }
    const double ra = benches_a.at(name).at("real_time_ns").as_double();
    const double rb = benches_b.at(name).at("real_time_ns").as_double();
    entry["status"] = "matched";
    entry["from_ns"] = ra;
    entry["to_ns"] = rb;
    entry["ratio"] = ra > 0 ? rb / ra : 0.0;
    const bool regressed =
        ra > 0 && rb > ra * (1.0 + options.max_perf_regress_pct / 100.0);
    entry["regressed"] = regressed;
    if (regressed) perf_regressions.push_back(name);
    perf[name] = std::move(entry);
  }
  j["perf"] = std::move(perf);

  Json reg = Json::object();
  Json rp = Json::array();
  for (const auto& fp : pop_regressions) rp.push_back(fp);
  reg["population"] = std::move(rp);
  Json rb = Json::array();
  for (const auto& name : perf_regressions) rb.push_back(name);
  reg["perf"] = std::move(rb);
  j["regressions"] = std::move(reg);
  j["clean"] = pop_regressions.empty() && perf_regressions.empty();
  return j;
}

}  // namespace gpudiff::store
