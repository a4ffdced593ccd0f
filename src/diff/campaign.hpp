#pragma once
// Campaign driver: the large-scale testing loop of paper §IV.
//
// A campaign generates N programs x M inputs, compiles each program for
// every selected platform (opt/platform.hpp; the default is the paper's
// nvcc/hipcc pair) at every optimization level, runs every (input, level)
// pair and accumulates per-(platform, baseline) discrepancy statistics.
// Execution parallelizes over programs (deterministic regardless of thread
// count: per-program results are accumulated in index order).
//
// The loop is exposed at two granularities:
//   * run_campaign      — the whole [0, num_programs) range in one call;
//   * run_campaign_range — any contiguous program-index subrange, the
//     building block the campaign orchestration layer (src/campaign/) uses
//     for leases and block-wise in-memory execution.  Per-program
//     seeds derive from (seed, program_index), so the union of subrange
//     results is byte-identical to the single-range run.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "diff/runner.hpp"
#include "gen/config.hpp"
#include "gen/generator.hpp"
#include "gen/inputs.hpp"
#include "support/json.hpp"

namespace gpudiff::diff {

struct CampaignConfig {
  gen::GenConfig gen;
  std::uint64_t seed = 42;
  int num_programs = 354;       ///< paper scale: 3,540 (FP64), 2,840 (FP32)
  int inputs_per_program = 7;   ///< paper: 24,750 runs / 3,540 programs
  bool hipify_converted = false;  ///< Tables VII/VIII mode
  /// The platform selection, element 0 the comparison baseline.  Part of
  /// the configuration fingerprint: a lease result is a pure
  /// function of (fingerprint, range), and the fingerprint covers the full
  /// spec of every selected platform.
  std::vector<opt::PlatformSpec> platforms = opt::default_platforms();
  std::vector<opt::OptLevel> levels{opt::kAllOptLevels,
                                    opt::kAllOptLevels + 5};
  unsigned threads = 0;         ///< 0 = hardware concurrency
  /// Cap on retained per-discrepancy records (statistics are never capped).
  /// Applied deterministically in canonical record order — lowest
  /// (program_index, input_index, level) first — so a capped run and a
  /// merge of capped lease blocks retain the same records.
  std::size_t max_records = 50000;
};

/// One retained discrepancy (enough to regenerate and re-analyze the
/// test).  Per-platform payloads are aligned with the campaign's platform
/// list; pair_cls[p] classifies platform p against the baseline (entry 0
/// is always None).
struct DiscrepancyRecord {
  std::uint64_t program_index = 0;
  int input_index = 0;
  opt::OptLevel level{};
  DiscrepancyClass cls{};  ///< representative: first differing platform
  std::vector<fp::Outcome> outcomes;       ///< per platform
  std::vector<std::string> printed;        ///< per platform, %.17g
  std::vector<DiscrepancyClass> pair_cls;  ///< per platform vs baseline
};

/// Discrepancy statistics of one non-baseline platform against the
/// baseline at one optimization level.
struct PairStats {
  std::array<std::uint64_t, kDiscrepancyClassCount> class_counts{};
  /// Directed adjacency: [baseline outcome][platform outcome] over
  /// discrepant runs.
  std::array<std::array<std::uint64_t, 4>, 4> adjacency{};

  std::uint64_t discrepancy_total() const {
    std::uint64_t n = 0;
    for (auto c : class_counts) n += c;
    return n;
  }
  void merge(const PairStats& other);

  friend bool operator==(const PairStats&, const PairStats&) = default;
};

/// Per-optimization-level statistics: the shared comparison count plus one
/// PairStats per non-baseline platform (pairs[p] is platforms[p + 1] vs
/// the baseline).
struct LevelStats {
  std::uint64_t comparisons = 0;  ///< (program, input) sweeps at this level
  std::vector<PairStats> pairs;

  /// Zeroed stats shaped for an `n_platforms`-way campaign.
  static LevelStats zero(std::size_t n_platforms);

  std::uint64_t discrepancy_total() const {
    std::uint64_t n = 0;
    for (const auto& p : pairs) n += p.discrepancy_total();
    return n;
  }
  /// Merging into a default-constructed LevelStats adopts the other
  /// side's pair count; otherwise the counts must match.
  void merge(const LevelStats& other);

  friend bool operator==(const LevelStats&, const LevelStats&) = default;
};

struct CampaignResults {
  std::uint64_t seed = 0;
  ir::Precision precision = ir::Precision::FP64;
  bool hipify_converted = false;
  int num_programs = 0;
  int inputs_per_program = 0;
  /// Platform names in campaign order, [0] the baseline.
  std::vector<std::string> platforms{"nvcc", "hipcc"};
  std::vector<opt::OptLevel> levels;
  std::vector<LevelStats> per_level;  ///< aligned with `levels`
  std::vector<DiscrepancyRecord> records;  ///< canonical order, capped

  std::uint64_t comparisons_total() const;
  std::uint64_t discrepancies_total() const;
  /// Paper Table IV accounting: one "run" per (program, input, level,
  /// platform) — platforms.size() runs per comparison.
  std::uint64_t runs_total() const {
    return comparisons_total() * platforms.size();
  }
  double discrepancy_percent() const;
  const LevelStats& stats_for(opt::OptLevel level) const;
};

/// The "levels" member of every campaign document (config fingerprint,
/// reports, metadata files): level names in campaign order.  Reading
/// refuses an unknown name by name.
support::Json levels_to_json(const std::vector<opt::OptLevel>& levels);
std::vector<opt::OptLevel> levels_from_json(const support::Json& names);

/// Stats and records for one contiguous program-index range.  Records are
/// in canonical order — (program_index, input_index, level position) — and
/// capped at `max_records` within the range; since any record dropped by
/// the per-range cap has at least max_records predecessors inside its own
/// range, concatenating capped ranges in program order and re-capping
/// yields exactly the records an uncapped-concatenation-then-cap would.
struct RangeOutcome {
  std::vector<LevelStats> per_level;  ///< aligned with config.levels
  std::vector<DiscrepancyRecord> records;
};

/// Move records from `src` onto the end of `dst` until `dst` holds `cap`
/// of them.  Both sides must already be in canonical order with src's
/// keys all above dst's; every capped-prefix composition in the campaign
/// and orchestration layers goes through this one helper so the cap
/// invariant cannot drift between them.
void append_capped_records(std::vector<DiscrepancyRecord>& dst,
                           std::vector<DiscrepancyRecord>&& src,
                           std::size_t cap);

/// Fold the outcome of the programs right after `range` onto it: the
/// statistics added level by level, the records appended until `range`
/// holds `max_records`.  run_campaign_range folds each program through
/// it, and Metadata::analyze each test of a metadata file.
void append_outcome(RangeOutcome& range, RangeOutcome&& next,
                    std::size_t max_records);

/// The campaign loop's tally of one program: each level's comparisons in
/// (compare_batch / compare_lanes output), the program's statistics and
/// its records in canonical order out.  run_campaign_range counts every
/// program through it, and Metadata::analyze every test of a metadata
/// file, so the two-system protocol cannot count or record differently.
class ProgramTally {
 public:
  /// `levels` (the campaign's level list) must outlive the tally.
  ProgramTally(std::uint64_t program_index,
               const std::vector<opt::OptLevel>& levels,
               std::size_t n_platforms);

  /// Count the comparisons of level position `li`, one per input in input
  /// order: per-pair class counts and adjacency, and one record per
  /// discrepant input.
  void add_level(std::size_t li, std::span<const ComparisonResult> cmps);

  /// The program's statistics (aligned with the levels) and its records in
  /// canonical order — input-major, then level position — uncapped.
  RangeOutcome finish() &&;

 private:
  std::uint64_t program_index_;
  const std::vector<opt::OptLevel>& levels_;
  RangeOutcome outcome_;
  /// (level position, record) pairs in the order add_level found them.
  std::vector<std::pair<std::size_t, DiscrepancyRecord>> found_;
};

/// Optional instrumentation for run_campaign_range.  Hooks observe
/// execution; they never affect results.
struct RangeHooks {
  /// Called after each program in the range finishes, with the number of
  /// programs completed so far and the range size.  May be invoked
  /// concurrently from worker threads, and completion order is not program
  /// order — treat `completed` as a progress counter, not a cursor.  The
  /// campaign scheduler uses this to heartbeat its lease claim mid-lease.
  std::function<void(std::uint64_t completed, std::uint64_t total)> on_program;
};

/// Run program indices [begin, end) of the campaign `config` describes.
/// Deterministic for fixed (config, begin, end) regardless of thread count.
RangeOutcome run_campaign_range(const CampaignConfig& config,
                                std::uint64_t begin, std::uint64_t end);
RangeOutcome run_campaign_range(const CampaignConfig& config,
                                std::uint64_t begin, std::uint64_t end,
                                const RangeHooks& hooks);

CampaignResults run_campaign(const CampaignConfig& config);

}  // namespace gpudiff::diff
