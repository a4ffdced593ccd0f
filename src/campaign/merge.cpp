#include "campaign/merge.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "campaign/checkpoint.hpp"

namespace gpudiff::campaign {

diff::CampaignResults merge_blocks(const support::Json& config_echo,
                                   std::vector<ResultBlock> blocks) {
  diff::CampaignResults results;
  results.seed = static_cast<std::uint64_t>(config_echo.at("seed").as_int());
  if (!ir::parse_precision(config_echo.at("precision").as_string(),
                           &results.precision))
    throw std::runtime_error("merge_blocks: bad precision in fingerprint");
  results.hipify_converted = config_echo.at("hipify_converted").as_bool();
  results.num_programs =
      static_cast<int>(config_echo.at("num_programs").as_int());
  results.inputs_per_program =
      static_cast<int>(config_echo.at("inputs_per_program").as_int());
  results.levels = diff::levels_from_json(config_echo.at("levels"));
  results.platforms = platform_names_from_echo(config_echo);
  const auto max_records =
      static_cast<std::size_t>(config_echo.at("max_records").as_int());

  std::sort(blocks.begin(), blocks.end(),
            [](const ResultBlock& a, const ResultBlock& b) {
              return std::tie(a.begin, a.end) < std::tie(b.begin, b.end);
            });
  std::uint64_t expected_begin = 0;
  for (const ResultBlock& b : blocks) {
    if (b.config_echo != config_echo)
      throw std::runtime_error(
          "merge_blocks: block [" + std::to_string(b.begin) + ", " +
          std::to_string(b.end) +
          ") was produced under a different campaign configuration");
    if (b.begin > b.end)
      throw std::runtime_error("merge_blocks: inverted block range");
    if (b.begin != expected_begin)
      throw std::runtime_error(
          "merge_blocks: blocks do not tile the campaign (expected a block "
          "starting at " + std::to_string(expected_begin) + ", got " +
          std::to_string(b.begin) + ")");
    if (b.per_level.size() != results.levels.size())
      throw std::runtime_error("merge_blocks: level count mismatch");
    expected_begin = b.end;
  }
  if (expected_begin != static_cast<std::uint64_t>(results.num_programs))
    throw std::runtime_error("merge_blocks: blocks cover [0, " +
                             std::to_string(expected_begin) + ") of " +
                             std::to_string(results.num_programs) +
                             " programs");

  results.per_level.assign(
      results.levels.size(),
      diff::LevelStats::zero(results.platforms.size()));
  for (const ResultBlock& b : blocks)
    for (std::size_t li = 0; li < results.per_level.size(); ++li)
      results.per_level[li].merge(b.per_level[li]);
  // Blocks are contiguous program ranges in range order, and each block's
  // records are its canonical-order prefix, so concatenation is the global
  // canonical order; re-applying the cap keeps the lowest
  // (program_index, input_index, level) records — exactly what the
  // unsharded run retains.
  for (ResultBlock& b : blocks) {
    if (results.records.size() >= max_records) break;
    diff::append_capped_records(results.records, std::move(b.records),
                                max_records);
  }
  return results;
}

}  // namespace gpudiff::campaign
