#pragma once
// LeaseTransport: the claim/heartbeat/steal/publish-done/list-done state
// machine behind the work-stealing scheduler, abstracted from its
// original shared-directory implementation so the same worker policy loop
// (scheduler.hpp run_worker) drives either backend:
//
//   FsLeaseTransport  — the shared-directory board (the layout in
//                       scheduler.hpp); one filesystem is the whole
//                       fleet's coordination medium.
//   TcpLeaseTransport — a line-framed JSON protocol (net/wire.hpp) against
//                       a gpudiff coordinator (campaign/coordinator.hpp)
//                       serving the filesystem board; heterogeneous
//                       machines coordinate with no shared mount.
//
// The lease protocol's standing invariants are transport-agnostic and
// every backend must preserve them: at-least-once execution (never mutual
// exclusion), done blocks as pure functions of (config fingerprint,
// range), done-file immutability, and ownership-checked heartbeat/release
// whose worst-case failure is duplicate work, never a wrong byte.
//
// Network elasticity (TCP backend): every coordinator-path operation
// retries with the capped-backoff-deterministic-jitter RetryPolicy, and a
// worker that cannot reach the coordinator degrades gracefully — it
// finishes its in-flight lease, journals the block locally (same atomic
// write-then-rename, same bytes as a published done file), and
// re-publishes the journal on reconnect.  Duplicate publishes are safe by
// the purity invariant.

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/merge.hpp"
#include "campaign/scheduler.hpp"
#include "net/socket.hpp"
#include "support/json.hpp"
#include "support/retry.hpp"

namespace gpudiff::campaign {

/// A transient transport failure: the operation did not happen (or its
/// outcome is unknown) after exhausting the retry policy.  Callers treat
/// it as "no progress right now" — every protocol operation is idempotent
/// or at-least-once-safe, so a later retry of the whole operation is
/// always sound.  Permanent refusals (configuration mismatch, protocol
/// version skew) are plain std::runtime_error and must not be retried.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A lease directory belongs to another campaign (config or geometry):
/// permanent, unlike the board's retryable I/O errors.
class ManifestMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The scheduler-facing lease protocol.  One instance per worker; not
/// thread-safe except for heartbeat(), which the lease heartbeat timer
/// calls from its own thread (implementations serialize internally).
class LeaseTransport {
 public:
  virtual ~LeaseTransport() = default;

  virtual const std::string& worker_id() const noexcept = 0;

  /// Publish the campaign manifest if this worker is first, else verify
  /// the existing campaign matches (config fingerprint + lease geometry).
  /// Throws std::runtime_error on mismatch (ManifestMismatch on the
  /// board), TransportError when the backend is unreachable.
  virtual void publish_or_verify_manifest(const support::Json& config_echo,
                                          int lease_size, int count) = 0;

  virtual bool is_done(int lease) = 0;
  /// Every lease index with a published done block, ascending, in one
  /// backend request: the worker loop's only view of the done set.  Each
  /// block published before the call is listed.
  virtual std::vector<int> list_done() = 0;
  /// Claim the lease exclusively.  Idempotent for this worker: a claim it
  /// already holds answers true (a heartbeat), so a retried claim whose
  /// answer was lost never reads as a lost race.  A finished lease answers
  /// false and keeps no claim — done is checked after the claim is won,
  /// so a claim freed by its owner's publish never runs the lease again.
  virtual bool try_claim(int lease) = 0;
  /// Seconds since the current claim's last heartbeat; negative if the
  /// lease is unclaimed.
  virtual double claim_age_seconds(int lease) = 0;
  /// Clear whatever claim exists and claim afresh as try_claim does; false
  /// if no claim existed (the steal lost its race) or the lease is
  /// finished.
  virtual bool try_steal(int lease) = 0;
  /// Clear a claim without taking the lease (stale claim stranded on an
  /// already-done lease).  Best-effort.
  virtual void reap_claim(int lease) = 0;
  /// Refresh this worker's heartbeat.  Best-effort and non-throwing:
  /// returns false when the claim is gone, stolen, or the backend is
  /// unreachable — execution continues either way, protected by
  /// determinism.  Safe to call from the heartbeat timer thread.
  virtual bool heartbeat(int lease) = 0;
  /// Publish the lease's completed ResultBlock, then end this worker's
  /// claim on it (ownership-checked, as release): no release follows a
  /// publish.  The done file is written once; a lease already done keeps
  /// its bytes.  Must not lose the block: the TCP backend journals locally
  /// when the coordinator is unreachable and re-publishes on reconnect,
  /// which ends the claim then.
  virtual void publish_done(int lease, int count, const ResultBlock& block) = 0;
  /// Remove this worker's claim (ownership-checked, best-effort): a lease
  /// given up unpublished.
  virtual void release(int lease) = 0;

  /// Periodic housekeeping at the caller's staleness window: the
  /// filesystem backend reaps temp litter stranded by killed publishers,
  /// the TCP backend flushes any journaled blocks it can.
  virtual void maintain(double stale_after_seconds) = 0;
  /// Flush everything pending (journaled blocks).  True when nothing
  /// remains buffered locally — only then may a worker report the
  /// campaign complete.
  virtual bool drain() = 0;
};

/// The shared-directory board.  Every operation is a filesystem
/// primitive from support/lockfile.hpp (exclusive link, atomic rename,
/// mtime heartbeat), so it is safe to call concurrently from different
/// processes — that is the point — while one instance serves one worker.
/// The TCP coordinator serves this same board.
class FsLeaseTransport : public LeaseTransport {
 public:
  /// Creates `dir` if needed.  `worker_id` must be unique across the fleet
  /// (default_worker_id() yields host-pid) and end file names: non-empty,
  /// no '/' or NUL, within NAME_MAX (else std::invalid_argument).
  /// `lease_count` seeds list_done for an already-verified manifest (the
  /// coordinator's views); publish_or_verify_manifest sets it otherwise.
  FsLeaseTransport(std::string dir, std::string worker_id,
                   int lease_count = 0);

  const std::string& worker_id() const noexcept override { return worker_; }
  /// Publishes the manifest through an exclusive link if none exists,
  /// else verifies the existing one; two campaigns must not share a dir.
  void publish_or_verify_manifest(const support::Json& config_echo,
                                  int lease_size, int count) override;
  bool is_done(int lease) override;
  /// One read of the directory: names done_lease_of accepts, below the
  /// lease count.
  std::vector<int> list_done() override;
  /// False if another worker's claim file exists, even a stale one —
  /// staleness is the caller's policy (see try_steal) — or if the lease's
  /// done file exists once the claim is won (the claim is then removed).
  bool try_claim(int lease) override;
  double claim_age_seconds(int lease) override;
  bool try_steal(int lease) override;
  void reap_claim(int lease) override;
  /// reap_claim with its outcome: true for exactly one of N racers.
  bool tombstone_claim(int lease);
  bool heartbeat(int lease) override;
  void publish_done(int lease, int count, const ResultBlock& block) override;
  void release(int lease) override;
  void maintain(double stale_after_seconds) override;
  bool drain() override { return true; }

 private:
  std::string dir_;
  std::string worker_;
  int lease_count_ = 0;
};

struct TcpTransportOptions {
  std::string host;  ///< coordinator host
  int port = 0;      ///< coordinator port
  std::string worker_id;
  /// Local journal directory for publishes that cannot reach the
  /// coordinator; empty defaults to
  /// <temp>/gpudiff-journal-<worker_id>.
  std::string journal_dir;
  support::RetryPolicy retry;
  double request_timeout_seconds = 5.0;
  double connect_timeout_seconds = 2.0;
};

/// The network backend: one coordinator connection, reconnected on demand
/// with RetryPolicy backoff, every request/response seq-tagged so frames
/// duplicated or delayed in flight cannot desynchronize the stream.
class TcpLeaseTransport : public LeaseTransport {
 public:
  explicit TcpLeaseTransport(TcpTransportOptions options);

  const std::string& worker_id() const noexcept override;
  void publish_or_verify_manifest(const support::Json& config_echo,
                                  int lease_size, int count) override;
  bool is_done(int lease) override;
  std::vector<int> list_done() override;
  bool try_claim(int lease) override;
  double claim_age_seconds(int lease) override;
  bool try_steal(int lease) override;
  void reap_claim(int lease) override;
  bool heartbeat(int lease) override;
  void publish_done(int lease, int count, const ResultBlock& block) override;
  void release(int lease) override;
  void maintain(double stale_after_seconds) override;
  bool drain() override;

  /// Blocks journaled locally and not yet re-published (for tests and
  /// progress reporting).
  int journaled_blocks() const;

 private:
  /// Connects (hello, journal flush) as needed, then exchanges `req`; a
  /// null `req` only connects.  request() locks, request_locked() retries.
  support::Json request(support::Json req);
  support::Json request_locked(support::Json req);
  void ensure_connected_locked();
  /// One seq-tagged exchange on `socket` (net::request_response); returns
  /// the ok response.  A fatal refusal throws std::runtime_error; no
  /// response or a retryable error throws TransportError.
  support::Json exchange_locked(net::Socket& socket, support::Json req);
  void flush_journal_locked();

  TcpTransportOptions options_;
  mutable std::mutex mu_;  ///< serializes socket use (heartbeat timer)
  net::Socket socket_;
  bool hello_ready_ = false;     ///< manifest params recorded
  support::Json hello_config_;   ///< config echo carried by the hello
  int lease_size_ = 0;
  int lease_count_ = 0;
  std::int64_t seq_ = 0;
};

}  // namespace gpudiff::campaign
