#pragma once
// Between-platform campaign protocol (paper Fig. 3).
//
// GPUs from different vendors live in different clusters, so the two halves
// of a differential campaign run at different times on different machines:
//
//   System 1 (e.g. Lassen):  tests are generated, run on the local platform,
//     and a JSON metadata file (tests + inputs + compiler + results) is
//     written.
//   System 2 (e.g. Tioga):   the metadata is loaded, the *same* tests and
//     inputs are recompiled with the local toolchain and re-run, and the
//     updated metadata with both platforms' results is saved.
//   Analysis: the combined file yields the same discrepancy statistics a
//     single-machine run would: the stored runs go through the campaign
//     loop's own compare and tally steps (locked by tests).
//
// Results are stored as IEEE bit strings so the file round-trips exactly.

#include <string>

#include "diff/campaign.hpp"
#include "support/json.hpp"

namespace gpudiff::diff {

class Metadata {
 public:
  /// System-1 step A: generate the campaign's tests (no results yet).  The
  /// config's platform selection is recorded so every system runs — and
  /// the analysis step demands — the same named platforms; its record cap
  /// is recorded so analyze() keeps the records run_campaign keeps.
  /// Throws on a platform selection platform_names() would refuse.
  static Metadata create(const CampaignConfig& config);

  /// Run every test on one platform, each level's inputs as one
  /// vgpu::run_kernel_batch call, and store the results under the
  /// platform's registry name.  Re-recording a platform overwrites its
  /// previous results.
  void record_platform(const opt::PlatformSpec& platform, unsigned threads = 0);

  bool has_platform(const opt::PlatformSpec& platform) const;
  bool has_platform(const std::string& name) const;

  /// Platform names this campaign compares (element 0 the baseline).
  /// Throws on fewer than two or more than opt::kMaxPlatforms of them.
  std::vector<std::string> platform_names() const;

  /// Combine every platform's stored results into campaign statistics:
  /// each test's stored bits become run lanes per level and pass through
  /// compare_lanes, ProgramTally and append_outcome, the steps
  /// run_campaign_range takes, so the results equal run_campaign's for the
  /// same configuration.  Throws on a platform list platform_names()
  /// refuses, if any selected platform has not been recorded, on bits that
  /// do not decode, and on a test whose platforms or levels hold different
  /// run counts.
  CampaignResults analyze() const;

  /// Number of tests (programs) carried by this metadata.
  std::size_t test_count() const;

  /// Regenerate the i-th test program / its inputs from the metadata.
  ir::Program test_program(std::size_t index) const;
  std::vector<vgpu::KernelArgs> test_inputs(std::size_t index) const;

  /// Write-then-rename: a reader never sees a torn file.
  void save(const std::string& path, int indent = 1) const;
  static Metadata load(const std::string& path);
  /// Refuses a foreign document, or any version but 1, by name.
  static Metadata from_json(support::Json root);
  const support::Json& json() const noexcept { return root_; }

 private:
  Metadata() = default;
  support::Json root_;
};

}  // namespace gpudiff::diff
