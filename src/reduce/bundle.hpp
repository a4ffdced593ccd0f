#pragma once
// Reproducer bundles: the serialized artifact of one reduction, plus the
// batch driver both CLIs share.
//
// A bundle is a deterministic JSON document (sorted keys, %.17g + raw-bit
// strings for every floating payload, no timestamps) carrying everything
// needed to replay and audit the reproducer: the original record key, the
// campaign configuration fingerprint it belongs to, the reduced program
// (structural JSON and rendered source), the discrepant input, the
// preserved verdict, the reduction trace and the sensitivity report.  The
// whole document is sealed with an fnv1a64 digest over its own canonical
// bytes; loading re-derives the digest and refuses any tampered file —
// the same trust rule as the store's immutable documents.

#include <functional>
#include <string>
#include <vector>

#include "reduce/reduce.hpp"
#include "support/json.hpp"

namespace gpudiff::reduce {

inline constexpr const char* kBundleFormat = "gpudiff-reduce-bundle";
inline constexpr int kBundleVersion = 1;

/// Serialize one reduction (deterministic bytes, digest-sealed).
support::Json bundle_to_json(const Reduction& reduction,
                             const diff::CampaignConfig& config);

/// Validate format, version and digest; throws std::runtime_error naming
/// the failure on any mismatch.
void check_bundle(const support::Json& bundle);

/// Read + parse + check_bundle a file (throws with the path on failure).
support::Json load_bundle(const std::string& path);

/// "bundle-<program>-<input>-<level>.json"
std::string bundle_filename(const RecordRef& record);

/// Reduce every record and write one bundle per record into `out_dir`
/// (created if needed; atomic writes).  Records must already be the
/// deduplicated work list in canonical order — use reduce_exemplars() to
/// select from a full record set.  `on_reduced` (optional) observes each
/// finished reduction, e.g. for progress output.  Returns the RecordRefs
/// reduced, in processing order.
std::vector<RecordRef> reduce_records(
    const diff::CampaignConfig& config,
    const std::vector<diff::DiscrepancyRecord>& records,
    const std::string& out_dir,
    const std::function<void(const Reduction&)>& on_reduced = {});

/// What `--reduce-exemplars` runs: pick the exemplar records a store
/// population would list (store::select_exemplars, store::pick_records),
/// in canonical order, then reduce_records().
std::vector<RecordRef> reduce_exemplars(
    const diff::CampaignConfig& config,
    const std::vector<diff::DiscrepancyRecord>& records,
    const std::string& out_dir, int max_exemplars,
    const std::function<void(const Reduction&)>& on_reduced = {});

}  // namespace gpudiff::reduce
