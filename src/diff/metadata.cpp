#include "diff/metadata.hpp"

#include <stdexcept>

#include "fp/hexfloat.hpp"
#include "ir/serialize.hpp"
#include "support/thread_pool.hpp"

namespace gpudiff::diff {

using support::Json;
using support::JsonArray;

namespace {

/// Result key of a platform in the metadata document: the registry name
/// plus the simulator suffix ("nvcc" -> "nvcc-sim", matching the paper's
/// toolchain spellings for the default pair).
std::string platform_key(const std::string& name) { return name + "-sim"; }

std::vector<opt::OptLevel> levels_from_json(const Json& arr) {
  std::vector<opt::OptLevel> levels;
  for (const auto& l : arr.as_array()) {
    opt::OptLevel level;
    if (!opt::parse_opt_level(l.as_string(), &level))
      throw std::runtime_error("metadata: bad opt level " + l.as_string());
    levels.push_back(level);
  }
  return levels;
}

}  // namespace

Metadata Metadata::create(const CampaignConfig& config) {
  const gen::Generator generator(config.gen, config.seed);
  const gen::InputGenerator input_gen(config.seed);

  Json root = Json::object();
  root["format"] = "gpudiff-metadata";
  root["version"] = 1;
  Json cfg = Json::object();
  cfg["seed"] = static_cast<long long>(config.seed);
  cfg["precision"] = ir::to_string(config.gen.precision);
  cfg["hipify_converted"] = config.hipify_converted;
  cfg["num_programs"] = config.num_programs;
  cfg["inputs_per_program"] = config.inputs_per_program;
  cfg["max_records"] = static_cast<long long>(config.max_records);
  Json levels = Json::array();
  for (auto level : config.levels) levels.push_back(opt::to_string(level));
  cfg["levels"] = std::move(levels);
  Json platforms = Json::array();
  for (const auto& spec : config.platforms) platforms.push_back(spec.name);
  cfg["platforms"] = std::move(platforms);
  root["config"] = std::move(cfg);

  Json tests = Json::array();
  for (int pi = 0; pi < config.num_programs; ++pi) {
    const ir::Program program = generator.generate(static_cast<std::uint64_t>(pi));
    Json test = Json::object();
    test["file"] = "tests/test_" + std::to_string(pi) + ".cu";
    test["program"] = ir::program_to_json(program);
    Json inputs = Json::array();
    for (int ii = 0; ii < config.inputs_per_program; ++ii) {
      const auto args = input_gen.generate(program, pi, ii);
      inputs.push_back(args.to_json(program));
    }
    test["inputs"] = std::move(inputs);
    test["results"] = Json::object();
    tests.push_back(std::move(test));
  }
  root["tests"] = std::move(tests);

  Metadata md;
  md.root_ = std::move(root);
  return md;
}

std::size_t Metadata::test_count() const {
  return root_.at("tests").as_array().size();
}

std::vector<std::string> Metadata::platform_names() const {
  const Json& cfg = root_.at("config");
  std::vector<std::string> names;
  if (cfg.contains("platforms")) {
    for (const auto& name : cfg.at("platforms").as_array())
      names.push_back(name.as_string());
  } else {
    // Pre-registry metadata files carried the paper pair implicitly.
    names = {"nvcc", "hipcc"};
  }
  if (names.size() < 2)
    throw std::runtime_error("metadata: platform list too short");
  return names;
}

ir::Program Metadata::test_program(std::size_t index) const {
  return ir::program_from_json(root_.at("tests").as_array().at(index).at("program"));
}

std::vector<vgpu::KernelArgs> Metadata::test_inputs(std::size_t index) const {
  const ir::Program program = test_program(index);
  const Json& inputs = root_.at("tests").as_array().at(index).at("inputs");
  std::vector<vgpu::KernelArgs> out;
  for (const auto& in : inputs.as_array())
    out.push_back(vgpu::KernelArgs::from_json(in, program));
  return out;
}

void Metadata::record_platform(const opt::PlatformSpec& platform,
                               unsigned threads) {
  const Json& cfg = root_.at("config");
  const bool hipify = cfg.at("hipify_converted").as_bool();
  const auto levels = levels_from_json(cfg.at("levels"));
  auto& tests = root_["tests"].as_array();

  // Collected per test first (parallel), then written back in order.
  std::vector<Json> per_test(tests.size());
  support::parallel_for(
      tests.size(),
      [&](std::size_t ti) {
        const ir::Program program = ir::program_from_json(tests[ti].at("program"));
        std::vector<vgpu::KernelArgs> inputs;
        for (const auto& in : tests[ti].at("inputs").as_array())
          inputs.push_back(vgpu::KernelArgs::from_json(in, program));

        Json by_level = Json::object();
        for (const auto level : levels) {
          const opt::Executable exe =
              opt::compile(program, platform, level, hipify);
          Json runs = Json::array();
          for (const auto& args : inputs) {
            const vgpu::RunResult run = vgpu::run_kernel(exe, args);
            Json entry = Json::object();
            if (program.precision() == ir::Precision::FP32) {
              entry["bits"] = fp::encode_bits(fp::from_bits<float>(
                  static_cast<std::uint32_t>(run.value_bits)));
            } else {
              entry["bits"] = fp::encode_bits(fp::from_bits<double>(run.value_bits));
            }
            entry["printed"] = run.printed();
            runs.push_back(std::move(entry));
          }
          by_level[opt::to_string(level)] = std::move(runs);
        }
        per_test[ti] = std::move(by_level);
      },
      threads, /*chunk=*/2);

  for (std::size_t ti = 0; ti < tests.size(); ++ti)
    tests[ti]["results"][platform_key(platform.name)] = std::move(per_test[ti]);
}

bool Metadata::has_platform(const opt::PlatformSpec& platform) const {
  return has_platform(platform.name);
}

bool Metadata::has_platform(const std::string& name) const {
  const auto& tests = root_.at("tests").as_array();
  if (tests.empty()) return false;
  return tests.front().at("results").contains(platform_key(name));
}

CampaignResults Metadata::analyze() const {
  const auto names = platform_names();
  for (const auto& name : names)
    if (!has_platform(name))
      throw std::runtime_error("metadata: platform '" + name +
                               "' has not been recorded yet");

  const Json& cfg = root_.at("config");
  ir::Precision precision;
  if (!ir::parse_precision(cfg.at("precision").as_string(), &precision))
    throw std::runtime_error("metadata: bad precision " +
                             cfg.at("precision").as_string());
  const auto levels = levels_from_json(cfg.at("levels"));
  const std::size_t n_platforms = names.size();
  // Files written before the cap was recorded read as the default cap.
  const std::int64_t cap =
      cfg.get_or("max_records",
                 Json(static_cast<long long>(CampaignConfig{}.max_records)))
          .as_int();
  if (cap < 0) throw std::runtime_error("metadata: negative max_records");
  const auto max_records = static_cast<std::size_t>(cap);

  CampaignResults results;
  results.seed = static_cast<std::uint64_t>(cfg.at("seed").as_int());
  results.precision = precision;
  results.hipify_converted = cfg.at("hipify_converted").as_bool();
  results.num_programs = static_cast<int>(cfg.at("num_programs").as_int());
  results.inputs_per_program =
      static_cast<int>(cfg.at("inputs_per_program").as_int());
  results.platforms = names;
  results.levels = levels;
  results.per_level.assign(levels.size(), LevelStats::zero(n_platforms));

  const auto& tests = root_.at("tests").as_array();
  // Per-platform scratch for one (level, input) cell, hoisted so the
  // non-discrepant majority of cells allocates nothing.
  std::vector<std::uint64_t> bits(n_platforms);
  std::vector<fp::Outcome> outcomes(n_platforms);
  std::vector<DiscrepancyClass> pair_cls(n_platforms);
  for (std::size_t ti = 0; ti < tests.size(); ++ti) {
    const Json& res = tests[ti].at("results");
    // Iterate input-major so records come out in the campaign driver's
    // canonical (program, input, level) order.
    std::vector<std::vector<const JsonArray*>> by_level(n_platforms);
    std::size_t n_runs = 0;
    for (std::size_t p = 0; p < n_platforms; ++p) {
      const Json& platform_res = res.at(platform_key(names[p]));
      by_level[p].resize(levels.size());
      for (std::size_t li = 0; li < levels.size(); ++li) {
        by_level[p][li] = &platform_res.at(opt::to_string(levels[li])).as_array();
        if ((p > 0 || li > 0) && by_level[p][li]->size() != n_runs)
          throw std::runtime_error("metadata: run count mismatch");
        n_runs = by_level[p][li]->size();
      }
    }
    for (std::size_t ii = 0; ii < n_runs; ++ii) {
      for (std::size_t li = 0; li < levels.size(); ++li) {
        LevelStats& stats = results.per_level[li];
        ++stats.comparisons;
        for (std::size_t p = 0; p < n_platforms; ++p) {
          const Json& entry = (*by_level[p][li])[ii];
          if (precision == ir::Precision::FP32) {
            const auto v = fp::decode_bits32(entry.at("bits").as_string());
            if (!v) throw std::runtime_error("metadata: bad bits");
            bits[p] = fp::to_bits(*v);
            outcomes[p] = fp::outcome_of(*v);
          } else {
            const auto v = fp::decode_bits64(entry.at("bits").as_string());
            if (!v) throw std::runtime_error("metadata: bad bits");
            bits[p] = fp::to_bits(*v);
            outcomes[p] = fp::outcome_of(*v);
          }
        }
        DiscrepancyClass first = DiscrepancyClass::None;
        pair_cls.assign(n_platforms, DiscrepancyClass::None);
        for (std::size_t p = 1; p < n_platforms; ++p) {
          const DiscrepancyClass cls =
              classify_pair(outcomes[0], bits[0], outcomes[p], bits[p]);
          pair_cls[p] = cls;
          if (cls == DiscrepancyClass::None) continue;
          if (first == DiscrepancyClass::None) first = cls;
          PairStats& pair = results.per_level[li].pairs[p - 1];
          ++pair.class_counts[class_index(cls)];
          ++pair.adjacency[static_cast<int>(outcomes[0].cls)]
                          [static_cast<int>(outcomes[p].cls)];
        }
        if (first == DiscrepancyClass::None) continue;
        if (results.records.size() < max_records) {
          DiscrepancyRecord rec;
          rec.program_index = ti;
          rec.input_index = static_cast<int>(ii);
          rec.level = levels[li];
          rec.cls = first;
          rec.outcomes = outcomes;
          rec.pair_cls = std::move(pair_cls);
          for (std::size_t p = 0; p < n_platforms; ++p)
            rec.printed.push_back(
                (*by_level[p][li])[ii].at("printed").as_string());
          results.records.push_back(std::move(rec));
        }
      }
    }
  }
  return results;
}

void Metadata::save(const std::string& path, int indent) const {
  support::write_file(path, root_.dump(indent));
}

Metadata Metadata::load(const std::string& path) {
  return from_json(Json::parse(support::read_file(path)));
}

Metadata Metadata::from_json(Json root) {
  if (!root.is_object() || root.get_or("format", Json()).as_string() !=
                               "gpudiff-metadata")
    throw std::runtime_error("metadata: not a gpudiff metadata document");
  Metadata md;
  md.root_ = std::move(root);
  return md;
}

}  // namespace gpudiff::diff
