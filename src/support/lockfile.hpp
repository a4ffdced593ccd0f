#pragma once
// Lock/lease-file primitives for multi-process coordination over a shared
// directory (the campaign work-stealing scheduler, campaign/scheduler.hpp).
//
// Everything here reduces to POSIX operations that are atomic on a local
// filesystem (and on NFSv3+ for the operations used): link(2) either
// creates the target or fails with EEXIST, rename(2) either moves the
// source or fails because someone else moved it first.  There is no
// in-process locking — callers in different processes on different
// machines coordinate purely through these files.
//
// Staleness is measured as "local now minus file mtime".  On a shared
// filesystem the mtime is stamped by whichever host wrote the file, so the
// staleness clock assumes the fleet's clocks agree to within a fraction of
// the configured stale-after window (tens of seconds in practice — the
// usual NTP situation).  A skewed clock can only cause extra duplicate
// work, never wrong results: the scheduler's lease protocol is safe under
// at-least-once execution.

#include <string>
#include <string_view>

namespace gpudiff::support {

/// A temp-file name beside `path` for a write that is then renamed or
/// linked into place: `path` + ".tmp." + a random per-process nonce, the
/// process id and a per-call counter.  No two calls share a name, whether
/// they come from threads of one process or from processes on hosts that
/// share the directory, so concurrent writers of one path never write the
/// same temp file.
std::string temp_path_for(const std::string& path);

/// Atomically publish `contents` at `path` if and only if nothing exists
/// there yet.  The contents are written to temp_path_for(path) first and
/// hard-linked into place — link(2) fails with EEXIST instead of
/// overwriting (unlike rename), so exactly one of N racing publishers
/// wins, and readers never observe a partially-written file.  Returns true
/// if this call created the file, false if one already existed.  Throws
/// std::runtime_error on any other I/O failure.
///
/// If the temp file disappears between write and link — a stale-temp
/// reaper presumed this publisher dead — the call also returns false: the
/// publish did not happen, which callers already handle as losing the race.
bool publish_file_exclusive(const std::string& path, std::string_view contents);

/// Bump the file's mtime to now — the heartbeat.  Returns false if the
/// file no longer exists (e.g. the lease was stolen and released).
bool touch_file(const std::string& path);

/// Seconds since the file's last write, or a negative value if the file
/// does not exist.  This is the lease staleness clock.  A file whose
/// mtime is in the future (another host's skewed clock over NFS, a
/// locally stepped clock) reads as age 0.0 — maximally fresh — never as a
/// negative age: negative is reserved for "no file", and a caller that
/// confused skew with absence would steal a live worker's claim.
double file_age_seconds(const std::string& path);

/// Set the file's mtime `seconds` into the past (test/fault-injection
/// helper for aging a lease without waiting).  Returns false if missing.
bool age_file(const std::string& path, double seconds);

/// Remove a file; returns true if this call removed it, false if it was
/// already gone.  Throws only on real I/O errors (e.g. EACCES).
bool remove_file(const std::string& path);

/// rename(2) wrapper: returns true on success, false if `from` no longer
/// exists (another process renamed or removed it first — the losing side
/// of a steal race).  Throws on any other failure.
bool rename_file(const std::string& from, const std::string& to);

}  // namespace gpudiff::support
