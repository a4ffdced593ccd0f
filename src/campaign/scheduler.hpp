#pragma once
// Work-stealing lease scheduler over a shared directory.
//
// A campaign's program range is split into K balanced contiguous *leases*
// (lease_count / lease_range below), and N independent worker processes —
// started by any job launcher, even
//   for i in 0 1 2; do gpudiff-campaign --worker dir ... & done
// — claim leases one at a time from a shared directory, execute them
// through diff::run_campaign_range, and publish each lease's ResultBlock.
// Heterogeneous machines self-balance: a fast machine simply claims more
// leases, and a dead machine's lease is reclaimed once its heartbeat goes
// stale.  A single worker is the durable one-machine run: re-running it
// against the same directory skips every finished lease, so a crash costs
// at most the lease in flight.
//
// Coordination protocol (all files live in the shared directory; see
// support/lockfile.hpp for the primitives):
//
//   campaign.json       manifest: config fingerprint + lease geometry.
//                       Published once via exclusive hard-link; every later
//                       worker verifies it matches its own configuration.
//   lease-<k>.claim     exclusive claim marker for lease k, content
//                       identifying the owner.  Its mtime is the owner's
//                       heartbeat, re-touched every heartbeat interval
//                       while the lease executes.  The owner's publish
//                       removes it once the done file is durable, and a
//                       claim won on a finished lease is given back.  One
//                       left on a finished lease by an owner killed in
//                       between is reaped by housekeeping
//                       (LeaseTransport::maintain).
//   lease-<k>.done.json lease k's completed ResultBlock (atomic
//                       write-then-rename).  Existence of this file is the
//                       only thing that marks a lease finished; done files
//                       are never removed or rewritten with different
//                       bytes.
//
// A claim whose heartbeat is older than the stale-after window with no
// done file is presumed dead and may be *stolen*: the stealer renames the
// stale claim to a tombstone (rename is atomic, so exactly one of N racing
// stealers wins), removes the tombstone, and claims the lease afresh.
//
// Invariant the whole design rests on: the protocol guarantees
// at-least-once execution of every lease, NOT mutual exclusion.  A
// paused-but-alive worker whose lease was stolen will eventually publish
// the same done file the stealer publishes — safe, because a lease's
// ResultBlock is a pure function of (config fingerprint, range), so both
// writers produce byte-identical JSON and the atomic rename makes either
// file a whole one.  Byte-identity of the merged CampaignResults therefore
// never depends on exclusion, only on determinism; claims, heartbeats and
// staleness exist purely to avoid wasted duplicate work.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "campaign/merge.hpp"
#include "diff/campaign.hpp"
#include "support/json.hpp"
#include "support/retry.hpp"

namespace gpudiff::campaign {

class LeaseTransport;  // campaign/transport.hpp

/// Number of leases for an n-program campaign with target lease size
/// `lease_size` (clamped to >= 1): ceil(n / lease_size), 0 when n == 0.
int lease_count(int num_programs, int lease_size);

/// Lease `index` of `count` over [0, n): [n*index/count,
/// n*(index+1)/count).  Ranges are disjoint, cover exactly [0, n), and
/// differ in size by at most one (so no lease exceeds the requested lease
/// size).  Throws std::invalid_argument unless 0 <= index < count and
/// n >= 0.
std::pair<std::uint64_t, std::uint64_t> lease_range(int num_programs,
                                                    int count, int index);

/// The lease-directory layout above, in one place: the filesystem
/// transport (campaign/transport.hpp), the coordinator's state directory,
/// the merge and completion scans and the tests all build and parse its
/// file names and claim documents through these.
std::string manifest_path(const std::string& dir);
std::string claim_path(const std::string& dir, int lease);
std::string done_path(const std::string& dir, int lease);
/// Load and validate a directory's manifest; throws std::runtime_error,
/// naming the file, if it is missing, not a manifest, or fails
/// check_manifest_members.
support::Json load_manifest(const std::string& dir);
/// The bytes of lease `lease`'s claim file: {"lease":k,"worker":w}.
std::string claim_document(int lease, const std::string& worker);
/// The worker named by the claim file at `path`; empty when the file is
/// missing or unreadable.
std::string claim_owner(const std::string& path);
/// k when `file_name` is lease k's done file exactly as done_path spells it
/// ("lease-<k>.done.json", k in decimal with no sign or leading zero); -1
/// for any other name — temps, quarantined files, claims,
/// "lease-07.done.json".
int done_lease_of(std::string_view file_name);
/// The same for lease k's claim file as claim_path spells it
/// ("lease-<k>.claim"); -1 for claim temps, tombstones and any other name.
int claim_lease_of(std::string_view file_name);

/// "host-pid", unique across a fleet of worker processes.
std::string default_worker_id();

/// The scheduler manifest document (config fingerprint + lease geometry)
/// that FsLeaseTransport publishes, for directory workers and the
/// coordinator alike.
support::Json make_manifest(const support::Json& config_echo, int lease_size,
                            int count);

/// The rule every manifest obeys, in campaign.json (load_manifest) and in
/// a coordinator hello, which carries the same "config", "lease_size" and
/// "lease_count" members: the config decodes (config_from_json), the lease
/// size is an integer of at least 1, and the lease count is
/// lease_count(num_programs, lease_size).  Throws std::runtime_error
/// saying which member fails.
void check_manifest_members(const support::Json& doc);

struct WorkerOptions {
  /// The shared lease directory (required unless `coordinator` is set).
  std::string dir;
  /// "host:port" of a gpudiff-coordinator; selects the TCP transport
  /// instead of the shared-directory board.  Mutually exclusive with
  /// `dir`.
  std::string coordinator;
  /// Local journal directory for done blocks the coordinator could not be
  /// told about (TCP mode only); empty picks a per-worker default under
  /// the system temp directory.
  std::string journal_dir;
  /// Backoff schedule for every coordinator-path retry (requests,
  /// reconnects, worker-loop waits while the coordinator is down).
  support::RetryPolicy retry;
  /// Per-request timeout on the coordinator connection (TCP mode).
  double request_timeout_seconds = 5.0;
  /// Target programs per lease: the granularity of stealing, of progress
  /// reporting, and of the work lost when a worker dies mid-lease.  Each
  /// lease also pays a fixed board cost whatever its size: an age check, a
  /// claim and a publish, with two fsyncs each for the claim and the
  /// publish on the coordinator.  On a 4-vCPU host that is about 1.5 ms
  /// over localhost TCP, against about 4 ms to execute 32 programs of the
  /// paper's campaign shape.
  int lease_size = 32;
  /// Seconds between heartbeat touches on the claim while executing.
  double heartbeat_seconds = 5.0;
  /// A claim with no heartbeat for this long (and no done file) is
  /// presumed dead and stolen.  Must comfortably exceed heartbeat_seconds
  /// plus worst-case fleet clock skew.  The same window reaps temp files
  /// stranded by killed publishers, so 0 (a lone rescuer's window) also
  /// reaps a live peer's in-flight temps, and that peer's publish fails.
  double stale_after_seconds = 60.0;
  /// Unique worker name; empty uses default_worker_id().
  std::string worker_id;
  /// Polled between leases (and while waiting for peers).  Returning true
  /// stops the worker gracefully: the in-flight lease is still finished,
  /// published and released, so an interrupted worker never strands
  /// claimed work.
  std::function<bool()> stop_requested;
  /// Called after each lease this worker completes.
  struct LeaseEvent {
    int lease = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    bool stolen = false;  ///< reclaimed from a stale claim
  };
  std::function<void(const LeaseEvent&)> on_lease;
};

struct WorkerOutcome {
  int leases_completed = 0;   ///< leases this worker executed and published
  int leases_stolen = 0;      ///< of those, how many were stale reclaims
  std::uint64_t programs_executed = 0;
  /// True when every lease in the campaign has a done file — the signal
  /// that --merge will succeed.  False only after stop_requested.
  bool campaign_complete = false;
};

/// Throws std::invalid_argument naming the first option, as gpudiff-campaign
/// spells it, that the lease protocol cannot run with: a lease_size below
/// 1, a heartbeat_seconds that is not a positive finite number, a
/// stale_after_seconds that is negative or not finite.  run_worker checks
/// first; gpudiff-campaign checks right after parsing its flags.
void check_worker_options(const WorkerOptions& options);

/// Run one worker against the shared directory until the campaign is
/// complete or stop_requested fires.  A worker that runs out of claimable
/// leases waits (claimed leases may belong to live peers) and re-scans,
/// stealing stale claims as they age out — so a fleet converges even when
/// members die, and `for ...; do gpudiff-campaign --worker ... & done`
/// self-balances across heterogeneous machines.
WorkerOutcome run_worker(const diff::CampaignConfig& config,
                         const WorkerOptions& options);

/// The same worker policy loop against an explicit transport (the form the
/// transport-equivalence tests and benchmarks drive).  The loop is
/// network-elastic: a TransportError from the backend pauses the scan with
/// RetryPolicy backoff instead of killing the worker, so a fleet rides out
/// a coordinator restart and converges once it returns.
WorkerOutcome run_worker(const diff::CampaignConfig& config,
                         const WorkerOptions& options,
                         LeaseTransport& transport);

/// True when a manifest exists and every lease has a done file.
bool campaign_complete(const std::string& dir);

/// The configuration fingerprint a lease or coordinator directory was
/// produced under: its manifest's "config".  Throws if the directory has
/// no manifest.  This is what lets `--merge DIR --report-v2` stamp the
/// merged report with the fingerprint the store keys it by.
support::Json config_echo_of_dir(const std::string& dir);

struct LeaseMergeOptions {
  /// On a truncated or JSON-corrupt done file, or a parseable one whose
  /// lease index, lease count or program range is not its name's, rename
  /// it to `<file>.quarantined` (so a re-run worker regenerates the lease)
  /// instead of leaving it in the merge's way.  The merge still fails —
  /// the campaign is incomplete — but with a diagnostic naming every
  /// quarantined file rather than a bare parse abort.
  bool quarantine = false;
};

/// Merge a completed lease directory into CampaignResults byte-identical
/// to the single-process diff::run_campaign output.  Throws if the
/// manifest is missing, any lease is unfinished, or any block fails
/// validation; a corrupt or misplaced done file is reported with its file
/// name.  Only
/// `lease-<k>.done.json` files are read, so crash litter beside them
/// (publisher temps, claims, steal tombstones) never reaches the merge.
diff::CampaignResults merge_lease_dir(const std::string& dir,
                                      const LeaseMergeOptions& options = {});

}  // namespace gpudiff::campaign
