#pragma once
// Serialization for campaign documents: the config fingerprint, lease
// result blocks and merged results reports.
//
// Everything here is deterministic: JSON objects keep sorted keys, counts
// are integers, and floating-point payloads are the %.17g strings the
// records already carry — so two runs that produce equal state produce
// byte-equal files, which is what the lease-drill and fleet CI jobs diff.

#include <string>
#include <vector>

#include "campaign/merge.hpp"
#include "diff/campaign.hpp"
#include "support/json.hpp"

namespace gpudiff::campaign {

/// Full configuration fingerprint: every field of CampaignConfig that
/// affects results (seed, precision, counts, levels, record cap, the whole
/// generator grammar, and the full spec of every selected platform) — but
/// not `threads`, which never changes output.  The lease manifest check
/// and the merge compare fingerprints for equality; the platform set being part of the
/// fingerprint is what keeps a lease done-file a pure function of
/// (fingerprint, range) when campaigns over different platform selections
/// share nothing but a directory layout.
support::Json config_to_json(const diff::CampaignConfig& config);

/// Strict inverse of config_to_json: rebuild a runnable CampaignConfig
/// from an embedded config fingerprint (version-2 reports, scheduler
/// manifests).  The result is validated by re-serializing it and comparing
/// to `config_echo` — any unknown field, altered spelling or lossy value
/// throws, so a reconstructed config can never silently diverge from the
/// fingerprint it claims to reproduce.  `threads` is not part of the
/// fingerprint and comes back at its default.
diff::CampaignConfig config_from_json(const support::Json& config_echo);

/// True when `names` is exactly the paper's legacy pair {"nvcc", "hipcc"}
/// — the platform set whose documents keep the pre-registry byte layout
/// (flat nvcc/hipcc record keys, single flat stats block, no "platforms"
/// member), so default-selection output stays byte-identical to the
/// two-slot era.  Any other selection uses the general N-way layout.
bool legacy_platform_pair(const std::vector<std::string>& names);

/// Platform names recorded in a configuration fingerprint (the legacy
/// default pair when the document predates the "platforms" member).
std::vector<std::string> platform_names_from_echo(
    const support::Json& config_echo);

/// Validate that `j` is a document of the given `format` with version in
/// [1, max_version] ("format"/"version" keys); throws std::runtime_error
/// naming `what` otherwise.  One rule for every campaign file — lease
/// results, merged reports and the scheduler manifest.
/// Every format is still version 1 except campaign results, whose
/// version 2 adds the embedded config fingerprint (see results_to_json).
void check_format(const support::Json& j, const char* format,
                  const char* what, int max_version = 1);

/// `legacy_pair` selects the flat pre-registry layout (see
/// legacy_platform_pair); the general layout carries one stats/payload
/// block per platform pair.
support::Json stats_to_json(const diff::LevelStats& stats, bool legacy_pair);
/// `n_pairs` = platform count minus one; the document's own shape (legacy
/// or general) is detected from its keys and validated against it.
diff::LevelStats stats_from_json(const support::Json& j, std::size_t n_pairs);

support::Json record_to_json(const diff::DiscrepancyRecord& rec,
                             bool legacy_pair);
diff::DiscrepancyRecord record_from_json(const support::Json& j,
                                         std::size_t n_platforms);

/// One completed lease result for the work-stealing scheduler
/// (campaign/scheduler.hpp): the block plus its (index, count) position in
/// the lease partition, so the merge can cross-check coverage.
/// Serialization is deterministic — two workers that execute the same
/// lease publish byte-identical documents.
support::Json block_to_json(const ResultBlock& block, int lease_index,
                            int lease_count);
ResultBlock block_from_json(const support::Json& j, int* lease_index,
                            int* lease_count);

/// Canonical JSON for a finished campaign: the artifact the CLI's --report
/// writes and the CI equivalence job compares byte-for-byte.
///
/// With `config_echo` null (the default) the document is version 1 and its
/// bytes are unchanged from every prior release — the default nvcc/hipcc
/// layout stays locked by tests/golden.  Passing the campaign's
/// config_to_json fingerprint emits the version-2 superset (the --report-v2
/// flag): identical fields plus "config" (the full fingerprint) and
/// "fingerprint" ("cfg-" + fnv1a64 of the config bytes), which is the key
/// the results store ingests under without re-deriving anything.
support::Json results_to_json(const diff::CampaignResults& results,
                              const support::Json* config_echo = nullptr);
/// Accepts versions 1 and 2 (a version-2 document's extra members are
/// cross-checked — an embedded fingerprint must match its config bytes).
diff::CampaignResults results_from_json(const support::Json& j);

/// The digest the store keys a config fingerprint under:
/// "cfg-" + fnv1a64_hex(config_echo.dump()).
std::string fingerprint_digest(const support::Json& config_echo);

}  // namespace gpudiff::campaign
