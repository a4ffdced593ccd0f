#pragma once
// Merge stage: fold completed result blocks into one CampaignResults.
//
// For a fixed configuration the merged output is byte-identical to the
// single-process diff::run_campaign result: statistics are commutative
// sums folded in program order, and records — each block keeps its own
// canonical-order prefix — concatenate into the global canonical order
// before the record cap is re-applied, so the cap keeps the lowest
// (program_index, input_index, level) records no matter how the campaign
// was carved into leases or interrupted.
//
// merge_blocks is the one core: merge_lease_dir (campaign/scheduler.hpp)
// feeds it a lease directory's done files, and merge_shards
// (campaign/shard.hpp) the in-memory runner's single block.

#include <vector>

#include "diff/campaign.hpp"
#include "support/json.hpp"

namespace gpudiff::campaign {

/// One completed contiguous program-range result: the unit the merge
/// folds.  A block is a pure function of (config fingerprint, range) —
/// produced by diff::run_campaign_range — which is what makes at-least-once
/// execution (work stealing, duplicated leases) safe: re-executing a range
/// reproduces the block byte for byte.
struct ResultBlock {
  support::Json config_echo;  ///< campaign::config_to_json fingerprint
  std::uint64_t begin = 0;    ///< first program index covered
  std::uint64_t end = 0;      ///< one past the last covered index
  std::vector<diff::LevelStats> per_level;       ///< aligned with config levels
  std::vector<diff::DiscrepancyRecord> records;  ///< canonical order, capped
};

/// Fold blocks into campaign results.  Validates that every block carries
/// the fingerprint `config_echo` and that the blocks (in any input order)
/// form a contiguous cover of [0, num_programs) — variable sizes and empty
/// blocks are fine; gaps, overlaps and foreign configurations throw
/// std::runtime_error.  An empty block list is valid only for a 0-program
/// campaign.
diff::CampaignResults merge_blocks(const support::Json& config_echo,
                                   std::vector<ResultBlock> blocks);

}  // namespace gpudiff::campaign
