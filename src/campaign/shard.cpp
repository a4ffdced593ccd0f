#include "campaign/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "campaign/checkpoint.hpp"

namespace gpudiff::campaign {

namespace {

/// Programs per block: the interval between on_progress / stop_requested
/// polls, and the bound on the per-program state a run holds at once.
constexpr std::uint64_t kBlockPrograms = 64;

}  // namespace

ShardProgress run_shard(const diff::CampaignConfig& config,
                        const ShardRunOptions& options) {
  if (config.num_programs < 0)
    throw std::invalid_argument("run_shard: negative program count");
  ShardProgress progress;
  progress.config_echo = config_to_json(config);
  progress.end = static_cast<std::uint64_t>(config.num_programs);
  progress.per_level.assign(config.levels.size(),
                            diff::LevelStats::zero(config.platforms.size()));

  // Blocks rather than one run_campaign_range call over everything: a
  // range call holds every program's LevelStats until it folds them —
  // about 1-3 KB per program, megabytes at paper scale.
  while (progress.cursor < progress.end) {
    if (options.stop_requested && options.stop_requested()) break;
    const std::uint64_t block_end =
        std::min(progress.end, progress.cursor + kBlockPrograms);
    diff::RangeOutcome block =
        diff::run_campaign_range(config, progress.cursor, block_end);
    for (std::size_t li = 0; li < progress.per_level.size(); ++li)
      progress.per_level[li].merge(block.per_level[li]);
    // Blocks arrive in program order, so appending the block's canonical
    // prefix until the cap keeps exactly the lowest
    // (program, input, level) records.
    diff::append_capped_records(progress.records, std::move(block.records),
                                config.max_records);
    progress.cursor = block_end;
    if (options.on_progress) options.on_progress(progress);
  }
  return progress;
}

diff::CampaignResults merge_shards(std::vector<ShardProgress> parts) {
  if (parts.empty())
    throw std::runtime_error("merge_shards: no campaign runs to merge");
  const support::Json echo = parts.front().config_echo;
  std::vector<ResultBlock> blocks;
  blocks.reserve(parts.size());
  for (ShardProgress& p : parts) {
    if (!p.complete())
      throw std::runtime_error(
          "merge_shards: run is incomplete (" + std::to_string(p.cursor) +
          "/" + std::to_string(p.end) + " programs)");
    blocks.push_back(std::move(p));  // a complete run is just its block
  }
  return merge_blocks(echo, std::move(blocks));
}

}  // namespace gpudiff::campaign
