#pragma once
// The in-memory campaign runner: gpudiff-campaign's single-process mode.
//
// run_shard executes a whole campaign in fixed 64-program blocks, folding
// each block's statistics and capped records into one running
// ShardProgress, so a campaign never holds more than one block's
// per-program LevelStats at once.  merge_shards turns the finished run into
// CampaignResults byte-identical to diff::run_campaign.
//
// Nothing here touches the disk.  A campaign that must survive a crash or
// spread across machines runs as lease workers instead
// (campaign/scheduler.hpp): a single `--worker DIR` process is the durable
// one-machine run, with --lease-size as its checkpoint granularity.

#include <cstdint>
#include <functional>
#include <vector>

#include "campaign/merge.hpp"
#include "diff/campaign.hpp"

namespace gpudiff::campaign {

/// The run's accumulated state: the result block over [begin, end) plus
/// the next program index to execute.
struct ShardProgress : ResultBlock {
  std::uint64_t cursor = 0;

  bool complete() const noexcept { return cursor >= end; }
};

struct ShardRunOptions {
  /// Called after every completed block with the current progress.
  std::function<void(const ShardProgress&)> on_progress;
  /// Polled between blocks; returning true stops the run after the last
  /// completed block.  The partial state is not mergeable.
  std::function<bool()> stop_requested;
};

/// Execute `config`'s whole campaign in memory.  Returns the run's state,
/// which is complete() unless stop_requested interrupted it.
ShardProgress run_shard(const diff::CampaignConfig& config,
                        const ShardRunOptions& options);

/// Fold complete runs into campaign results (merge_blocks over their
/// blocks).  Throws std::runtime_error on an empty list or an interrupted
/// run.
diff::CampaignResults merge_shards(std::vector<ShardProgress> parts);

}  // namespace gpudiff::campaign
