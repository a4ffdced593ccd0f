#include "diff/metadata.hpp"

#include <stdexcept>

#include "fp/hexfloat.hpp"
#include "ir/serialize.hpp"
#include "support/thread_pool.hpp"

namespace gpudiff::diff {

using support::Json;

namespace {

/// Result key of a platform in the metadata document: the registry name
/// plus the simulator suffix ("nvcc" -> "nvcc-sim", matching the paper's
/// toolchain spellings for the default pair).
std::string platform_key(const std::string& name) { return name + "-sim"; }

/// One platform's runs at one level as the file stores them: the result's
/// IEEE bits and its %.17g line, per input.
Json runs_to_json(std::span<const vgpu::RunResult> runs,
                  ir::Precision precision) {
  Json out = Json::array();
  for (const vgpu::RunResult& run : runs) {
    Json entry = Json::object();
    if (precision == ir::Precision::FP32) {
      entry["bits"] = fp::encode_bits(
          fp::from_bits<float>(static_cast<std::uint32_t>(run.value_bits)));
    } else {
      entry["bits"] = fp::encode_bits(fp::from_bits<double>(run.value_bits));
    }
    entry["printed"] = run.printed();
    out.push_back(std::move(entry));
  }
  return out;
}

/// The inverse, back to a run lane: the value and its bits, which is all
/// classification reads (the printed line is rebuilt from the bits).
void runs_from_json(const Json& stored, ir::Precision precision,
                    std::vector<vgpu::RunResult>& lane) {
  lane.clear();
  for (const auto& entry : stored.as_array()) {
    const std::string& text = entry.at("bits").as_string();
    vgpu::RunResult run;
    if (precision == ir::Precision::FP32) {
      const auto v = fp::decode_bits32(text);
      if (!v) throw std::runtime_error("metadata: bad bits");
      run.value = static_cast<double>(*v);
      run.value_bits = fp::to_bits(*v);
    } else {
      const auto v = fp::decode_bits64(text);
      if (!v) throw std::runtime_error("metadata: bad bits");
      run.value = *v;
      run.value_bits = fp::to_bits(*v);
    }
    lane.push_back(run);
  }
}

/// A platform list analyze() can compare: a baseline plus at least one
/// platform, and no more than one comparison holds (opt::kMaxPlatforms).
void check_platform_count(std::size_t n) {
  if (n < 2) throw std::runtime_error("metadata: platform list too short");
  if (n > opt::kMaxPlatforms)
    throw std::runtime_error("metadata: more than " +
                             std::to_string(opt::kMaxPlatforms) +
                             " platforms");
}

}  // namespace

Metadata Metadata::create(const CampaignConfig& config) {
  check_platform_count(config.platforms.size());
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
  cfg["levels"] = levels_to_json(config.levels);
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
  check_platform_count(names.size());
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

        // One batch per level, as the campaign loop runs them: a level
        // whose kernel an earlier level already ran on these inputs copies
        // its results (vgpu::BatchReuse).
        vgpu::ExecContext exec;
        std::vector<vgpu::RunResult> runs(inputs.size());
        Json by_level = Json::object();
        for (const auto level : levels) {
          const opt::Executable exe =
              opt::compile(program, platform, level, hipify);
          vgpu::run_kernel_batch(exe, inputs, runs.data(), exec);
          by_level[opt::to_string(level)] =
              runs_to_json(runs, program.precision());
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

  // Each test's stored runs go back into run lanes, level by level, and
  // through the campaign loop's own compare, tally and merge steps.
  RangeOutcome range;
  range.per_level.assign(levels.size(), LevelStats::zero(n_platforms));
  const auto& tests = root_.at("tests").as_array();
  std::vector<std::vector<vgpu::RunResult>> lanes(n_platforms);
  std::vector<ComparisonResult> cmps;
  for (std::size_t ti = 0; ti < tests.size(); ++ti) {
    const Json& res = tests[ti].at("results");
    ProgramTally tally(ti, levels, n_platforms);
    std::size_t n_runs = 0;
    for (std::size_t li = 0; li < levels.size(); ++li) {
      for (std::size_t p = 0; p < n_platforms; ++p) {
        runs_from_json(
            res.at(platform_key(names[p])).at(opt::to_string(levels[li])),
            precision, lanes[p]);
        if ((p > 0 || li > 0) && lanes[p].size() != n_runs)
          throw std::runtime_error("metadata: run count mismatch");
        n_runs = lanes[p].size();
      }
      compare_lanes(lanes, precision, cmps);
      tally.add_level(li, cmps);
    }
    append_outcome(range, std::move(tally).finish(), max_records);
  }
  results.per_level = std::move(range.per_level);
  results.records = std::move(range.records);
  return results;
}

void Metadata::save(const std::string& path, int indent) const {
  // System 2 saves over the System-1 file: a kill mid-write must leave
  // the old file whole.
  support::write_file_atomic(path, root_.dump(indent));
}

Metadata Metadata::load(const std::string& path) {
  return from_json(Json::parse(support::read_file(path)));
}

Metadata Metadata::from_json(Json root) {
  if (!root.is_object() || root.get_or("format", Json()).as_string() !=
                               "gpudiff-metadata")
    throw std::runtime_error("metadata: not a gpudiff metadata document");
  const Json& version = root.get_or("version", Json());
  if (version != Json(1))
    throw std::runtime_error("metadata: unsupported gpudiff metadata version " +
                             version.dump() + " (this build reads 1)");
  Metadata md;
  md.root_ = std::move(root);
  return md;
}

}  // namespace gpudiff::diff
