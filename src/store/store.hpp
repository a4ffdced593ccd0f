#pragma once
// Results store: a compact, versioned on-disk database of campaign
// discrepancy populations and benchmark trajectory points, keyed by
// (commit label, configuration fingerprint).
//
// Merged campaign reports are one-shot artifacts; the store is what makes
// them queryable over time: `ingest` folds `--report` JSON files and
// Google-Benchmark `BENCH_*.json` files into per-key documents,
// `load_store` builds an in-memory index over the directory, the query
// functions project summaries / per-pair drill-downs / cross-commit trends
// out of it, and `diff_commits` computes the population and perf deltas a
// CI regression gate fails on.
//
// Layout (all files written with atomic write-then-rename, like every
// campaign artifact):
//
//   <root>/store.json                     format marker
//   <root>/pop/<commit>/<fingerprint>.json  one discrepancy population
//   <root>/perf/<commit>.json             one perf document per commit
//
// Key rule (the resume/merge fingerprint discipline, extended across
// commits): a population is keyed by the digest of its campaign
// configuration fingerprint, which embeds the full PlatformSpec of every
// selected platform — so campaigns over different platform sets never
// share a key, and `diff_commits` only ever compares like with like (a
// same-key platform-list mismatch, possible only for header-derived keys
// of pre-fingerprint reports, is refused, not papered over).  Store files
// are immutable once written: re-ingesting identical bytes is an
// idempotent no-op, a conflicting re-ingest is an error.
//
// Determinism: every document and every query result serializes with
// sorted keys and integer counts, so equal store contents produce
// byte-equal answers regardless of ingest order, thread timing or process
// restarts — which is what lets the serve daemon treat "reload the
// directory" as full crash recovery.

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "diff/campaign.hpp"
#include "support/json.hpp"

namespace gpudiff::store {

/// Store schema version, embedded in every document the store writes and
/// in the serve daemon's hello.  Bump on any layout change.
inline constexpr int kStoreVersion = 1;

/// A campaign report as the store and the reducer read it: decoded once,
/// through campaign::results_from_json (the one decoder of the format,
/// which refuses unknown versions and a version-2 fingerprint that does not
/// match its embedded config), plus the store key.
struct Report {
  diff::CampaignResults results;
  /// The store key: a version-2 report's embedded "cfg-<fnv1a64>"
  /// fingerprint, or "hdr-<fnv1a64>" over the header fields (seed,
  /// precision, hipify, counts, levels, platform names) of a version-1
  /// report, which predates it.  The prefixes keep the two derivations
  /// from ever colliding.
  std::string fingerprint;
  /// A version-2 report's embedded config fingerprint
  /// (campaign::config_to_json); null for version 1.
  support::Json config;
};
Report decode_report(const support::Json& report);

/// The canonical store key of one discrepancy record: "program:input:level".
/// Every exemplar list, reducer bundle and drill-down refers to records by
/// this key (reduce::RecordRef::key spells it through here).
std::string record_key(const diff::DiscrepancyRecord& rec);

/// The records whose record_key is in `keys`, in the records' own
/// (canonical) order, at most one per key: a key leaves `keys` when it
/// picks its record, so the keys left over matched none.  The one way
/// exemplar records are picked — from a population's keys
/// (resolve_exemplars) or from the ones select_exemplars chose
/// (reduce::reduce_exemplars).
std::vector<diff::DiscrepancyRecord> pick_records(
    const std::vector<diff::DiscrepancyRecord>& records,
    std::set<std::string>& keys);

/// Exemplar record keys per (pair, class): `result[pair - 1][class_index]`
/// holds the first `max_exemplars` canonical-order keys whose record is
/// discrepant for that pair with that class.  Records must be in canonical
/// campaign order (they are, in every merged report) so "first" is
/// deterministic regardless of how the campaign was carved up.  This is
/// the selection rule populations are built with, exported so the
/// `--reduce-exemplars` hook picks exactly the records the store retains.
using ExemplarKeys =
    std::vector<std::array<std::vector<std::string>,
                           diff::kDiscrepancyClassCount>>;
ExemplarKeys select_exemplars(const std::vector<diff::DiscrepancyRecord>& records,
                              std::size_t n_platforms, int max_exemplars);

/// Every exemplar record of `pop`, picked from `report` in canonical
/// record order (the batch work list of `gpudiff-reduce --from-report`).
/// The report must carry the population's fingerprint, and *every* key
/// must pick a record: a dangling or malformed key (a record the report no
/// longer contains, e.g. after a tightened --max-records cap) is a
/// named-file error listing every such key against both documents — never
/// a silent skip.
std::vector<diff::DiscrepancyRecord> resolve_exemplars(
    const support::Json& pop, const Report& report,
    const std::string& pop_name, const std::string& report_name);

struct IngestOptions {
  /// Set unreadable/foreign input files aside as `<file>.quarantined` and
  /// keep going (the PR 6 merge hardening discipline); without it the
  /// first corrupt file aborts the ingest with a diagnostic naming it.
  bool quarantine = false;
  /// Exemplar record keys retained per (pair, class) in a population.
  int max_exemplars = 5;
};

struct IngestOutcome {
  int reports = 0;      ///< campaign reports folded in
  int bench_files = 0;  ///< Google-Benchmark files folded in
  std::vector<std::string> quarantined;  ///< files set aside (with reasons)
};

/// Fold `paths` (campaign `--report` JSON and/or Google-Benchmark JSON,
/// auto-detected by shape) into the store under `commit`.  Creates the
/// store directory and format marker if needed.  Throws std::runtime_error
/// naming the offending file on corrupt input (unless quarantining), on a
/// conflicting re-ingest, or on an invalid commit label.
IngestOutcome ingest(const std::string& store_dir, const std::string& commit,
                     const std::vector<std::string>& paths,
                     const IngestOptions& options = {});

/// In-memory index over a store directory: the serve daemon's working set.
/// Documents are kept as parsed JSON — queries project from them, and the
/// files on disk remain the only durable state (reloading the directory
/// after a crash rebuilds this index byte-identically).
struct StoreIndex {
  /// commit -> fingerprint -> population document.
  std::map<std::string, std::map<std::string, support::Json>> populations;
  /// commit -> perf document.
  std::map<std::string, support::Json> perf;
};

/// Load and validate every document under `store_dir`.  Unreadable files
/// throw with the file named; atomic-write temp litter is skipped.
StoreIndex load_store(const std::string& store_dir);

/// Per-commit totals: one row per commit (sorted by label) with population
/// count, comparisons, discrepancies and benchmark count.
support::Json summary(const StoreIndex& index);

/// The full population document for (commit, fingerprint).  An empty
/// fingerprint selects the commit's only population (errors if ambiguous).
const support::Json& population(const StoreIndex& index,
                                const std::string& commit,
                                const std::string& fingerprint);

/// Per-pair drill-down: per-level class counts, adjacency and exemplar
/// record keys for one (baseline, pair) platform pair of one population.
support::Json pair_drilldown(const StoreIndex& index, const std::string& commit,
                             const std::string& fingerprint,
                             const std::string& pair);

/// Cross-commit series, ordered by commit label: total discrepancies per
/// fingerprint and real time per benchmark.
support::Json trend(const StoreIndex& index);

struct DiffOptions {
  /// A matched benchmark whose real time grew by more than this fraction
  /// of the old value is a perf regression.
  double max_perf_regress_pct = 10.0;
};

/// Population and perf deltas between two ingested commits: matched
/// fingerprints with per-pair per-class deltas, matched benchmarks with
/// time ratios, and a "regressions" block listing every fingerprint whose
/// discrepancy total grew and every benchmark past the threshold.
/// Deterministic: byte-identical across repeated runs and ingest orders.
support::Json diff_commits(const StoreIndex& index, const std::string& from,
                           const std::string& to,
                           const DiffOptions& options = {});

}  // namespace gpudiff::store
