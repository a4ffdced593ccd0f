#include "campaign/checkpoint.hpp"

#include <stdexcept>

#include "support/strings.hpp"

namespace gpudiff::campaign {

using support::Json;
using support::JsonArray;

namespace {

constexpr const char* kLeaseFormat = "gpudiff-lease";
constexpr const char* kResultsFormat = "gpudiff-campaign-results";

Json levels_to_json(const std::vector<opt::OptLevel>& levels) {
  Json arr = Json::array();
  for (const auto level : levels) arr.push_back(opt::to_string(level));
  return arr;
}

std::vector<opt::OptLevel> levels_from_json(const Json& arr) {
  std::vector<opt::OptLevel> levels;
  for (const auto& l : arr.as_array()) {
    opt::OptLevel level;
    if (!opt::parse_opt_level(l.as_string(), &level))
      throw std::runtime_error("campaign: bad opt level " + l.as_string());
    levels.push_back(level);
  }
  return levels;
}

Json outcome_to_json(const fp::Outcome& o) {
  Json j = Json::object();
  j["cls"] = static_cast<int>(o.cls);
  j["neg"] = o.negative;
  return j;
}

fp::Outcome outcome_from_json(const Json& j) {
  const auto cls = j.at("cls").as_int();
  if (cls < 0 || cls > 3)
    throw std::runtime_error("campaign: bad outcome class");
  fp::Outcome o;
  o.cls = static_cast<fp::OutcomeClass>(cls);
  o.negative = j.at("neg").as_bool();
  return o;
}

}  // namespace

// Reject foreign documents with a real diagnostic (a missing "format"
// key must not surface as a low-level JSON type error) and refuse
// versions this binary does not understand.
void check_format(const Json& j, const char* format, const char* what,
                  int max_version) {
  if (!j.is_object() || !j.contains("format") || !j.at("format").is_string() ||
      j.at("format").as_string() != format)
    throw std::runtime_error(std::string("campaign: not a ") + what);
  if (!j.contains("version") || !j.at("version").is_number() ||
      j.at("version").as_int() < 1 || j.at("version").as_int() > max_version)
    throw std::runtime_error(std::string("campaign: unsupported ") + what +
                             " version");
}

std::string fingerprint_digest(const Json& config_echo) {
  return "cfg-" + support::fnv1a64_hex(config_echo.dump());
}

bool legacy_platform_pair(const std::vector<std::string>& names) {
  return names.size() == 2 && names[0] == "nvcc" && names[1] == "hipcc";
}

std::vector<std::string> platform_names_from_echo(const Json& config_echo) {
  if (!config_echo.contains("platforms")) return {"nvcc", "hipcc"};
  std::vector<std::string> names;
  for (const auto& p : config_echo.at("platforms").as_array())
    names.push_back(p.at("name").as_string());
  if (names.size() < 2)
    throw std::runtime_error("campaign: fingerprint platform list too short");
  return names;
}

Json config_to_json(const diff::CampaignConfig& config) {
  Json j = Json::object();
  j["seed"] = static_cast<long long>(config.seed);
  j["precision"] = ir::to_string(config.gen.precision);
  j["hipify_converted"] = config.hipify_converted;
  j["num_programs"] = config.num_programs;
  j["inputs_per_program"] = config.inputs_per_program;
  j["levels"] = levels_to_json(config.levels);
  j["max_records"] = static_cast<long long>(config.max_records);

  // The full spec of every selected platform, not just its name: a lease
  // block must be a pure function of (fingerprint, range), and a spec's
  // knobs are what decide the numbers.
  Json platforms = Json::array();
  for (const opt::PlatformSpec& spec : config.platforms) {
    Json p = Json::object();
    p["name"] = spec.name;
    p["toolchain"] = opt::to_string(spec.toolchain);
    p["fast_math"] = spec.fast_math;
    p["ftz32"] = spec.force_ftz32;
    p["daz32"] = spec.force_daz32;
    p["fma"] = opt::to_string(spec.fma);
    p["div32"] = opt::to_string(spec.div32);
    p["mathlib"] = spec.mathlib;
    platforms.push_back(std::move(p));
  }
  j["platforms"] = std::move(platforms);

  // The full generator grammar: any change to it changes every generated
  // program, so it is part of the fingerprint the manifest check and the
  // merge validate.
  const gen::GenConfig& g = config.gen;
  Json gj = Json::object();
  gj["max_expr_depth"] = g.max_expr_depth;
  gj["min_stmts"] = g.min_stmts;
  gj["max_stmts"] = g.max_stmts;
  gj["max_loop_nest"] = g.max_loop_nest;
  gj["max_block_stmts"] = g.max_block_stmts;
  gj["min_scalar_params"] = g.min_scalar_params;
  gj["max_scalar_params"] = g.max_scalar_params;
  gj["max_int_params"] = g.max_int_params;
  gj["max_array_params"] = g.max_array_params;
  gj["allow_loops"] = g.allow_loops;
  gj["allow_ifs"] = g.allow_ifs;
  gj["allow_arrays"] = g.allow_arrays;
  gj["allow_calls"] = g.allow_calls;
  gj["w_bin"] = g.w_bin;
  gj["w_call"] = g.w_call;
  gj["w_neg"] = g.w_neg;
  gj["w_leaf"] = g.w_leaf;
  gj["w_leaf_literal"] = g.w_leaf_literal;
  gj["w_leaf_param"] = g.w_leaf_param;
  gj["w_leaf_temp"] = g.w_leaf_temp;
  gj["w_leaf_array"] = g.w_leaf_array;
  Json fns = Json::array();
  for (const auto fn : g.functions) fns.push_back(static_cast<int>(fn));
  gj["functions"] = std::move(fns);
  j["gen"] = std::move(gj);
  return j;
}

namespace {

// Inverse spellings of the opt:: to_string overloads.  Kept local: the
// round-trip check below re-serializes through those same overloads, so a
// stale entry here can reject but never mis-parse.
opt::Toolchain toolchain_from_string(const std::string& s) {
  if (s == "nvcc-sim") return opt::Toolchain::Nvcc;
  if (s == "hipcc-sim") return opt::Toolchain::Hipcc;
  throw std::runtime_error("campaign: bad toolchain " + s);
}

opt::FmaMode fma_from_string(const std::string& s) {
  if (s == "auto") return opt::FmaMode::Auto;
  if (s == "left") return opt::FmaMode::LeftProduct;
  if (s == "right") return opt::FmaMode::RightProduct;
  throw std::runtime_error("campaign: bad fma mode " + s);
}

opt::Div32Override div32_from_string(const std::string& s) {
  if (s == "auto") return opt::Div32Override::Auto;
  if (s == "ieee") return opt::Div32Override::IEEE;
  if (s == "nv-approx") return opt::Div32Override::NvApprox;
  if (s == "amd-approx") return opt::Div32Override::AmdApprox;
  throw std::runtime_error("campaign: bad div32 override " + s);
}

}  // namespace

diff::CampaignConfig config_from_json(const Json& config_echo) {
  diff::CampaignConfig config;
  config.seed = static_cast<std::uint64_t>(config_echo.at("seed").as_int());
  if (!ir::parse_precision(config_echo.at("precision").as_string(),
                           &config.gen.precision))
    throw std::runtime_error("campaign: bad precision in config fingerprint");
  config.hipify_converted = config_echo.at("hipify_converted").as_bool();
  config.num_programs =
      static_cast<int>(config_echo.at("num_programs").as_int());
  config.inputs_per_program =
      static_cast<int>(config_echo.at("inputs_per_program").as_int());
  config.levels = levels_from_json(config_echo.at("levels"));
  config.max_records =
      static_cast<std::size_t>(config_echo.at("max_records").as_int());

  config.platforms.clear();
  for (const auto& p : config_echo.at("platforms").as_array()) {
    opt::PlatformSpec spec;
    spec.name = p.at("name").as_string();
    spec.toolchain = toolchain_from_string(p.at("toolchain").as_string());
    spec.fast_math = p.at("fast_math").as_bool();
    spec.force_ftz32 = p.at("ftz32").as_bool();
    spec.force_daz32 = p.at("daz32").as_bool();
    spec.fma = fma_from_string(p.at("fma").as_string());
    spec.div32 = div32_from_string(p.at("div32").as_string());
    spec.mathlib = p.at("mathlib").as_string();
    // `blurb` is display-only and not part of the fingerprint; it stays
    // empty on reconstructed specs.
    config.platforms.push_back(std::move(spec));
  }

  gen::GenConfig& g = config.gen;
  const Json& gj = config_echo.at("gen");
  g.max_expr_depth = static_cast<int>(gj.at("max_expr_depth").as_int());
  g.min_stmts = static_cast<int>(gj.at("min_stmts").as_int());
  g.max_stmts = static_cast<int>(gj.at("max_stmts").as_int());
  g.max_loop_nest = static_cast<int>(gj.at("max_loop_nest").as_int());
  g.max_block_stmts = static_cast<int>(gj.at("max_block_stmts").as_int());
  g.min_scalar_params = static_cast<int>(gj.at("min_scalar_params").as_int());
  g.max_scalar_params = static_cast<int>(gj.at("max_scalar_params").as_int());
  g.max_int_params = static_cast<int>(gj.at("max_int_params").as_int());
  g.max_array_params = static_cast<int>(gj.at("max_array_params").as_int());
  g.allow_loops = gj.at("allow_loops").as_bool();
  g.allow_ifs = gj.at("allow_ifs").as_bool();
  g.allow_arrays = gj.at("allow_arrays").as_bool();
  g.allow_calls = gj.at("allow_calls").as_bool();
  g.w_bin = static_cast<std::uint32_t>(gj.at("w_bin").as_int());
  g.w_call = static_cast<std::uint32_t>(gj.at("w_call").as_int());
  g.w_neg = static_cast<std::uint32_t>(gj.at("w_neg").as_int());
  g.w_leaf = static_cast<std::uint32_t>(gj.at("w_leaf").as_int());
  g.w_leaf_literal = static_cast<std::uint32_t>(gj.at("w_leaf_literal").as_int());
  g.w_leaf_param = static_cast<std::uint32_t>(gj.at("w_leaf_param").as_int());
  g.w_leaf_temp = static_cast<std::uint32_t>(gj.at("w_leaf_temp").as_int());
  g.w_leaf_array = static_cast<std::uint32_t>(gj.at("w_leaf_array").as_int());
  g.functions.clear();
  for (const auto& fn : gj.at("functions").as_array()) {
    const auto v = fn.as_int();
    if (v < 0 || v > static_cast<long long>(ir::MathFn::Fmax))
      throw std::runtime_error("campaign: bad math function id");
    g.functions.push_back(static_cast<ir::MathFn>(v));
  }

  if (config_to_json(config) != config_echo)
    throw std::runtime_error(
        "campaign: config fingerprint does not round-trip (foreign or "
        "corrupted document)");
  return config;
}

namespace {

void pair_stats_to_object(const diff::PairStats& pair, Json& j) {
  Json classes = Json::array();
  for (const auto c : pair.class_counts)
    classes.push_back(static_cast<long long>(c));
  j["class_counts"] = std::move(classes);
  Json adjacency = Json::array();
  for (const auto& row : pair.adjacency) {
    Json r = Json::array();
    for (const auto c : row) r.push_back(static_cast<long long>(c));
    adjacency.push_back(std::move(r));
  }
  j["adjacency"] = std::move(adjacency);
}

diff::PairStats pair_stats_from_object(const Json& j) {
  diff::PairStats pair;
  const auto& classes = j.at("class_counts").as_array();
  if (classes.size() != pair.class_counts.size())
    throw std::runtime_error("campaign: bad class_counts size");
  for (std::size_t i = 0; i < classes.size(); ++i)
    pair.class_counts[i] = static_cast<std::uint64_t>(classes[i].as_int());
  const auto& adjacency = j.at("adjacency").as_array();
  if (adjacency.size() != 4)
    throw std::runtime_error("campaign: bad adjacency size");
  for (int r = 0; r < 4; ++r) {
    const auto& row = adjacency[static_cast<std::size_t>(r)].as_array();
    if (row.size() != 4) throw std::runtime_error("campaign: bad adjacency row");
    for (int c = 0; c < 4; ++c)
      pair.adjacency[r][c] =
          static_cast<std::uint64_t>(row[static_cast<std::size_t>(c)].as_int());
  }
  return pair;
}

}  // namespace

Json stats_to_json(const diff::LevelStats& stats, bool legacy_pair) {
  Json j = Json::object();
  j["comparisons"] = static_cast<long long>(stats.comparisons);
  if (legacy_pair) {
    // Pre-registry layout: the single pair's counters flat in the stats
    // object, exactly the bytes the two-slot era wrote.
    if (stats.pairs.size() != 1)
      throw std::runtime_error("campaign: legacy stats need exactly one pair");
    pair_stats_to_object(stats.pairs[0], j);
    return j;
  }
  Json pairs = Json::array();
  for (const diff::PairStats& pair : stats.pairs) {
    Json p = Json::object();
    pair_stats_to_object(pair, p);
    pairs.push_back(std::move(p));
  }
  j["pairs"] = std::move(pairs);
  return j;
}

diff::LevelStats stats_from_json(const Json& j, std::size_t n_pairs) {
  diff::LevelStats stats;
  stats.comparisons = static_cast<std::uint64_t>(j.at("comparisons").as_int());
  if (j.contains("pairs")) {
    for (const auto& p : j.at("pairs").as_array())
      stats.pairs.push_back(pair_stats_from_object(p));
  } else {
    stats.pairs.push_back(pair_stats_from_object(j));
  }
  if (stats.pairs.size() != n_pairs)
    throw std::runtime_error("campaign: stats platform-pair count mismatch");
  return stats;
}

Json record_to_json(const diff::DiscrepancyRecord& rec, bool legacy_pair) {
  Json j = Json::object();
  j["program"] = static_cast<long long>(rec.program_index);
  j["input"] = rec.input_index;
  j["level"] = opt::to_string(rec.level);
  j["class"] = diff::class_index(rec.cls);
  if (legacy_pair) {
    if (rec.outcomes.size() != 2 || rec.printed.size() != 2)
      throw std::runtime_error("campaign: legacy record needs two platforms");
    Json nv = Json::object();
    nv["outcome"] = outcome_to_json(rec.outcomes[0]);
    nv["printed"] = rec.printed[0];
    j["nvcc"] = std::move(nv);
    Json amd = Json::object();
    amd["outcome"] = outcome_to_json(rec.outcomes[1]);
    amd["printed"] = rec.printed[1];
    j["hipcc"] = std::move(amd);
    return j;
  }
  // Per-platform pair classes, aligned with the platform list; the
  // baseline entry (and any agreeing platform) is None, encoded as -1.
  Json classes = Json::array();
  for (const diff::DiscrepancyClass cls : rec.pair_cls)
    classes.push_back(cls == diff::DiscrepancyClass::None
                          ? -1
                          : diff::class_index(cls));
  j["classes"] = std::move(classes);
  Json platforms = Json::array();
  for (std::size_t p = 0; p < rec.outcomes.size(); ++p) {
    Json entry = Json::object();
    entry["outcome"] = outcome_to_json(rec.outcomes[p]);
    entry["printed"] = rec.printed[p];
    platforms.push_back(std::move(entry));
  }
  j["platforms"] = std::move(platforms);
  return j;
}

diff::DiscrepancyRecord record_from_json(const Json& j,
                                         std::size_t n_platforms) {
  diff::DiscrepancyRecord rec;
  rec.program_index = static_cast<std::uint64_t>(j.at("program").as_int());
  rec.input_index = static_cast<int>(j.at("input").as_int());
  if (!opt::parse_opt_level(j.at("level").as_string(), &rec.level))
    throw std::runtime_error("campaign: bad record level");
  rec.cls = diff::class_from_index(static_cast<int>(j.at("class").as_int()));
  if (j.contains("nvcc")) {
    rec.outcomes.push_back(outcome_from_json(j.at("nvcc").at("outcome")));
    rec.printed.push_back(j.at("nvcc").at("printed").as_string());
    rec.outcomes.push_back(outcome_from_json(j.at("hipcc").at("outcome")));
    rec.printed.push_back(j.at("hipcc").at("printed").as_string());
    rec.pair_cls = {diff::DiscrepancyClass::None, rec.cls};
  } else {
    for (const auto& entry : j.at("platforms").as_array()) {
      rec.outcomes.push_back(outcome_from_json(entry.at("outcome")));
      rec.printed.push_back(entry.at("printed").as_string());
    }
    for (const auto& cls : j.at("classes").as_array()) {
      const auto index = static_cast<int>(cls.as_int());
      rec.pair_cls.push_back(index < 0 ? diff::DiscrepancyClass::None
                                       : diff::class_from_index(index));
    }
    if (rec.pair_cls.size() != rec.outcomes.size())
      throw std::runtime_error("campaign: record classes/platforms mismatch");
  }
  if (rec.outcomes.size() != n_platforms)
    throw std::runtime_error("campaign: record platform count mismatch");
  return rec;
}

Json block_to_json(const ResultBlock& block, int lease_index,
                   int lease_count) {
  const bool legacy =
      legacy_platform_pair(platform_names_from_echo(block.config_echo));
  Json j = Json::object();
  j["format"] = kLeaseFormat;
  j["version"] = 1;
  j["config"] = block.config_echo;
  Json lease = Json::object();
  lease["index"] = lease_index;
  lease["count"] = lease_count;
  j["lease"] = std::move(lease);
  Json range = Json::object();
  range["begin"] = static_cast<long long>(block.begin);
  range["end"] = static_cast<long long>(block.end);
  j["range"] = std::move(range);
  Json per_level = Json::array();
  for (const auto& stats : block.per_level)
    per_level.push_back(stats_to_json(stats, legacy));
  j["per_level"] = std::move(per_level);
  Json records = Json::array();
  for (const auto& rec : block.records)
    records.push_back(record_to_json(rec, legacy));
  j["records"] = std::move(records);
  return j;
}

ResultBlock block_from_json(const Json& j, int* lease_index,
                            int* lease_count) {
  check_format(j, kLeaseFormat, "gpudiff lease result");
  ResultBlock block;
  block.config_echo = j.at("config");
  const auto n_platforms = platform_names_from_echo(block.config_echo).size();
  if (lease_index != nullptr)
    *lease_index = static_cast<int>(j.at("lease").at("index").as_int());
  if (lease_count != nullptr)
    *lease_count = static_cast<int>(j.at("lease").at("count").as_int());
  block.begin = static_cast<std::uint64_t>(j.at("range").at("begin").as_int());
  block.end = static_cast<std::uint64_t>(j.at("range").at("end").as_int());
  if (block.begin > block.end)
    throw std::runtime_error("campaign: lease result range inverted");
  const auto n_levels = block.config_echo.at("levels").as_array().size();
  const auto& per_level = j.at("per_level").as_array();
  if (per_level.size() != n_levels)
    throw std::runtime_error("campaign: lease result level count mismatch");
  for (const auto& stats : per_level)
    block.per_level.push_back(stats_from_json(stats, n_platforms - 1));
  for (const auto& rec : j.at("records").as_array())
    block.records.push_back(record_from_json(rec, n_platforms));
  return block;
}

Json results_to_json(const diff::CampaignResults& results,
                     const Json* config_echo) {
  // The default nvcc/hipcc selection keeps the pre-registry document
  // layout (no "platforms" member, flat stats, nvcc/hipcc record keys) so
  // paper-default campaign reports stay byte-identical across the
  // registry refactor — locked by tests/golden and the CI cmp jobs.
  const bool legacy = legacy_platform_pair(results.platforms);
  Json j = Json::object();
  j["format"] = kResultsFormat;
  j["version"] = config_echo == nullptr ? 1 : 2;
  if (config_echo != nullptr) {
    j["config"] = *config_echo;
    j["fingerprint"] = fingerprint_digest(*config_echo);
  }
  j["seed"] = static_cast<long long>(results.seed);
  j["precision"] = ir::to_string(results.precision);
  j["hipify_converted"] = results.hipify_converted;
  j["num_programs"] = results.num_programs;
  j["inputs_per_program"] = results.inputs_per_program;
  j["levels"] = levels_to_json(results.levels);
  if (!legacy) {
    Json platforms = Json::array();
    for (const auto& name : results.platforms) platforms.push_back(name);
    j["platforms"] = std::move(platforms);
  }
  Json per_level = Json::array();
  for (const auto& stats : results.per_level)
    per_level.push_back(stats_to_json(stats, legacy));
  j["per_level"] = std::move(per_level);
  Json records = Json::array();
  for (const auto& rec : results.records)
    records.push_back(record_to_json(rec, legacy));
  j["records"] = std::move(records);
  Json totals = Json::object();
  totals["comparisons"] = static_cast<long long>(results.comparisons_total());
  totals["runs"] = static_cast<long long>(results.runs_total());
  totals["discrepancies"] = static_cast<long long>(results.discrepancies_total());
  j["totals"] = std::move(totals);
  return j;
}

diff::CampaignResults results_from_json(const Json& j) {
  check_format(j, kResultsFormat, "gpudiff campaign results file",
               /*max_version=*/2);
  if (j.at("version").as_int() >= 2) {
    // The version-2 extras are pure annotation over the version-1 fields,
    // but an annotation that lies is worse than none: the embedded
    // fingerprint must be the digest of the embedded config bytes.
    if (!j.contains("config") || !j.contains("fingerprint"))
      throw std::runtime_error(
          "campaign: version-2 results file lacks config/fingerprint");
    if (j.at("fingerprint").as_string() != fingerprint_digest(j.at("config")))
      throw std::runtime_error(
          "campaign: results fingerprint does not match its embedded config");
  }
  diff::CampaignResults results;
  results.seed = static_cast<std::uint64_t>(j.at("seed").as_int());
  if (!ir::parse_precision(j.at("precision").as_string(), &results.precision))
    throw std::runtime_error("campaign: bad precision " +
                             j.at("precision").as_string());
  results.hipify_converted = j.at("hipify_converted").as_bool();
  results.num_programs = static_cast<int>(j.at("num_programs").as_int());
  results.inputs_per_program =
      static_cast<int>(j.at("inputs_per_program").as_int());
  results.levels = levels_from_json(j.at("levels"));
  results.platforms.clear();
  if (j.contains("platforms")) {
    for (const auto& name : j.at("platforms").as_array())
      results.platforms.push_back(name.as_string());
    if (results.platforms.size() < 2)
      throw std::runtime_error("campaign: results platform list too short");
  } else {
    results.platforms = {"nvcc", "hipcc"};
  }
  for (const auto& stats : j.at("per_level").as_array())
    results.per_level.push_back(
        stats_from_json(stats, results.platforms.size() - 1));
  if (results.per_level.size() != results.levels.size())
    throw std::runtime_error("campaign: results level count mismatch");
  for (const auto& rec : j.at("records").as_array())
    results.records.push_back(record_from_json(rec, results.platforms.size()));
  return results;
}

}  // namespace gpudiff::campaign
