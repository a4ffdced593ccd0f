#pragma once
// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around the calls it
// makes into each library layer.  Every span carries its parent, so a
// span's self time is its duration minus the durations of its children on
// the same thread; summed over the benchmark thread, the self times of all
// layer spans plus the root span's self time ("trace.untracked_s") equal
// the root span's duration — the traced iteration's wall time.  Spans on
// other threads (fleet workers, heartbeat timers) keep their cross-thread
// parent for the trace viewer but count against their own thread.
//
// Spans stay in memory until the run ends, then write_chrome_trace emits
// Chrome trace-event JSON ("X" complete events), which Perfetto loads.
// A null Trace* disables everything: the untraced run records nothing.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Thread lane of the benchmark thread in the trace.
inline constexpr std::uint32_t kMainTid = 0;

struct Span {
  const char* name = "";  ///< static string, "<layer>.<operation>"
  std::uint32_t tid = kMainTid;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  Clock::time_point begin;
  Clock::time_point end;
};

class Trace {
 public:
  /// Open a span now; returns its id (index).  Thread-safe.
  std::int64_t open(const char* name, std::uint32_t tid, std::int64_t parent);
  /// Close span `id` now.
  void close(std::int64_t id);
  /// Record an already finished span.
  void add(const char* name, std::uint32_t tid, std::int64_t parent,
           Clock::time_point begin, Clock::time_point end);

  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread, parented to the thread's innermost open
/// Scope (or to the parent given to bind_thread).  No-op when `trace` is
/// null or the thread was never bound.
class Scope {
 public:
  Scope(Trace* trace, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const noexcept { return id_; }

 private:
  Trace* trace_;
  std::int64_t id_ = -1;
  std::int64_t saved_parent_ = -1;
};

/// Make Scopes on the calling thread record onto lane `tid` under `parent`.
void bind_thread(std::uint32_t tid, std::int64_t parent);
/// The calling thread's current innermost span id (-1 when none).
std::int64_t current_span();

/// Per-name totals over one thread's spans.
struct SelfTimes {
  std::map<std::string, double> self_s;    ///< duration minus same-thread children
  std::map<std::string, std::vector<double>> durations_s;
  double root_s = 0.0;       ///< summed duration of the thread's root spans
  bool nested = true;        ///< false if any self time came out negative
};

SelfTimes self_times(const std::vector<Span>& spans, std::uint32_t tid);

/// Write Chrome trace-event JSON; `thread_names` labels the lanes.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::map<std::uint32_t, std::string>& thread_names);

/// Value at quantile q in [0, 1] (linear interpolation); 0 for no samples.
double quantile(std::vector<double> values, double q);

/// The highest of the 50th/90th/99th/99.9th percentiles that still has at
/// least ten samples beyond it (the 50th when none has).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values);

}  // namespace perfbench
