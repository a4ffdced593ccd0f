#pragma once
// The flags that define a campaign, declared and read in one place for
// both CLIs that take them: gpudiff-campaign runs the campaign they
// define, gpudiff-reduce re-derives it to regenerate a record.  Same
// names, letters, defaults and refusals in both.

#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "diff/campaign.hpp"
#include "opt/platform.hpp"
#include "support/cli.hpp"

namespace gpudiff::tools {

/// Declare --programs/-p, --inputs/-i, --seed/-S, --precision/-P,
/// --platforms/-F, --hipify and --max-records/-m.
inline void add_campaign_flags(support::CliParser& cli) {
  cli.add_int("programs", 'p', "number of random programs in the campaign",
              354);
  cli.add_int("inputs", 'i', "inputs per program", 7);
  cli.add_int("seed", 'S', "campaign seed", 42);
  cli.add_string("precision", 'P', "fp64 or fp32", "fp64");
  cli.add_string("platforms", 'F',
                 "comma-separated platform selection; the first entry is the "
                 "comparison baseline (gpudiff-campaign --list-platforms "
                 "lists the registry)",
                 "nvcc,hipcc");
  cli.add_flag("hipify", "test the HIPIFY-converted binding (Tables VII/VIII)");
  cli.add_int("max-records", 'm', "cap on retained discrepancy records", 50000);
}

/// The campaign the flags define (`threads` at its default).  A negative
/// --inputs, a --platforms list opt::parse_platform_list refuses or a
/// --precision other than fp64/fp32 is reported on stderr under `tool`'s
/// name, naming the flag, and gives nullopt: the CLI exits 1.
inline std::optional<diff::CampaignConfig> campaign_of_flags(
    const support::CliParser& cli, const char* tool) {
  // An unsigned count inside the campaign: refuse a negative one up front.
  if (cli.get_int("inputs") < 0) {
    std::fprintf(stderr, "%s: --inputs must not be negative\n", tool);
    return std::nullopt;
  }
  diff::CampaignConfig config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.num_programs = static_cast<int>(cli.get_int("programs"));
  config.inputs_per_program = static_cast<int>(cli.get_int("inputs"));
  config.hipify_converted = cli.get_flag("hipify");
  config.max_records = static_cast<std::size_t>(cli.get_int("max-records"));
  try {
    config.platforms = opt::parse_platform_list(cli.get_string("platforms"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: --%s\n", tool, e.what());
    return std::nullopt;
  }
  const std::string& precision = cli.get_string("precision");
  if (precision == "fp32" || precision == "FP32") {
    config.gen.precision = ir::Precision::FP32;
  } else if (precision != "fp64" && precision != "FP64") {
    std::fprintf(stderr, "%s: bad --precision '%s'\n", tool,
                 precision.c_str());
    return std::nullopt;
  }
  return config;
}

}  // namespace gpudiff::tools
