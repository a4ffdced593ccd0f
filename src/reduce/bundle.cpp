#include "reduce/bundle.hpp"

#include <filesystem>
#include <set>
#include <stdexcept>

#include "campaign/checkpoint.hpp"
#include "diff/discrepancy.hpp"
#include "fp/hexfloat.hpp"
#include "ir/serialize.hpp"
#include "store/store.hpp"
#include "support/strings.hpp"

namespace gpudiff::reduce {

using support::Json;

namespace {

/// A floating payload as the deterministic pair every campaign artifact
/// uses: the %.17g human rendering plus the exact bit pattern (non-finite
/// values have no JSON number representation).
Json fp_value(double v) {
  Json j = Json::object();
  j["printed"] = fp::print_g17(v);
  j["bits"] = fp::encode_bits(v);
  return j;
}

Json sensitivity_to_json(const SensitivityReport& report) {
  Json j = Json::object();
  j["label"] = to_string(report.label);
  j["condition"] = fp_value(report.condition);
  j["threshold"] = fp_value(report.threshold);
  j["outcome_flip"] = report.outcome_flip;
  Json params = Json::array();
  for (const ParamProbe& p : report.params) {
    Json pj = Json::object();
    pj["param"] = p.param;
    pj["name"] = p.name;
    pj["value"] = fp_value(p.value);
    pj["step"] = fp_value(p.step);
    pj["derivative"] = fp_value(p.derivative);
    pj["rel_condition"] = fp_value(p.rel_condition);
    pj["outcome_flip"] = p.outcome_flip;
    params.push_back(std::move(pj));
  }
  j["params"] = std::move(params);
  return j;
}

std::string digest_of(const Json& bundle_without_digest) {
  return support::fnv1a64_hex(bundle_without_digest.dump(1));
}

}  // namespace

Json bundle_to_json(const Reduction& reduction,
                    const diff::CampaignConfig& config) {
  Json j = Json::object();
  j["format"] = kBundleFormat;
  j["version"] = kBundleVersion;
  j["record"] = reduction.record.key();
  const Json echo = campaign::config_to_json(config);
  j["fingerprint"] = campaign::fingerprint_digest(echo);
  j["config"] = echo;
  Json platforms = Json::array();
  for (const auto& name : reduction.platforms) platforms.push_back(name);
  j["platforms"] = std::move(platforms);

  // The preserved verdict, encoded like record classes: -1 = None.
  Json verdict = Json::array();
  for (const auto cls : reduction.verdict.pair_cls)
    verdict.push_back(cls == diff::DiscrepancyClass::None
                          ? -1
                          : diff::class_index(cls));
  j["verdict"] = std::move(verdict);

  Json original = Json::object();
  original["stmts"] = static_cast<long long>(reduction.original_stmts);
  original["nodes"] = static_cast<long long>(reduction.original_nodes);
  j["original"] = std::move(original);
  Json reduced = Json::object();
  reduced["stmts"] = static_cast<long long>(reduction.reduced_stmts);
  reduced["nodes"] = static_cast<long long>(reduction.reduced_nodes);
  j["reduced"] = std::move(reduced);

  j["program"] = ir::program_to_json(reduction.program);
  j["source"] = reduction.program.dump();
  j["args"] = reduction.args.to_json(reduction.program);
  j["checks"] = static_cast<long long>(reduction.checks);

  Json trace = Json::array();
  for (const TraceStep& step : reduction.trace) {
    Json tj = Json::object();
    tj["pass"] = step.pass;
    tj["detail"] = step.detail;
    tj["stmts"] = static_cast<long long>(step.stmts);
    tj["nodes"] = static_cast<long long>(step.nodes);
    trace.push_back(std::move(tj));
  }
  j["trace"] = std::move(trace);
  j["sensitivity"] = sensitivity_to_json(reduction.sensitivity);

  j["digest"] = digest_of(j);  // over everything above (no digest key yet)
  return j;
}

void check_bundle(const Json& bundle) {
  campaign::check_format(bundle, kBundleFormat, "reduce bundle",
                         kBundleVersion);
  if (!bundle.contains("digest") || !bundle.at("digest").is_string())
    throw std::runtime_error("reduce: bundle carries no digest");
  Json without = Json::object();
  for (const auto& [key, value] : bundle.as_object())
    if (key != "digest") without[key] = value;
  if (digest_of(without) != bundle.at("digest").as_string())
    throw std::runtime_error(
        "reduce: bundle digest mismatch (tampered or truncated document)");
}

Json load_bundle(const std::string& path) {
  Json bundle;
  try {
    bundle = Json::parse(support::read_file(path));
    check_bundle(bundle);
  } catch (const std::exception& e) {
    throw std::runtime_error("reduce: " + path + ": " + e.what());
  }
  return bundle;
}

std::string bundle_filename(const RecordRef& record) {
  return "bundle-" + std::to_string(record.program_index) + "-" +
         std::to_string(record.input_index) + "-" +
         opt::to_string(record.level) + ".json";
}

std::vector<RecordRef> reduce_records(
    const diff::CampaignConfig& config,
    const std::vector<diff::DiscrepancyRecord>& records,
    const std::string& out_dir,
    const std::function<void(const Reduction&)>& on_reduced) {
  std::filesystem::create_directories(out_dir);
  std::vector<RecordRef> reduced;
  for (const diff::DiscrepancyRecord& rec : records) {
    const RecordRef ref{rec.program_index, rec.input_index, rec.level};
    const Reduction reduction = reduce_record(config, ref);
    const Json bundle = bundle_to_json(reduction, config);
    support::write_file_atomic(out_dir + "/" + bundle_filename(ref),
                               bundle.dump(1) + "\n");
    if (on_reduced) on_reduced(reduction);
    reduced.push_back(ref);
  }
  return reduced;
}

std::vector<RecordRef> reduce_exemplars(
    const diff::CampaignConfig& config,
    const std::vector<diff::DiscrepancyRecord>& records,
    const std::string& out_dir, int max_exemplars,
    const std::function<void(const Reduction&)>& on_reduced) {
  std::set<std::string> keys;
  for (const auto& per_class : store::select_exemplars(
           records, config.platforms.size(), max_exemplars))
    for (const auto& cell : per_class) keys.insert(cell.begin(), cell.end());
  return reduce_records(config, store::pick_records(records, keys), out_dir,
                        on_reduced);
}

}  // namespace gpudiff::reduce
