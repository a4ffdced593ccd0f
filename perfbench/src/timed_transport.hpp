#pragma once
// A LeaseTransport decorator that times every operation it forwards.
//
// run_worker(config, options, transport) drives the worker policy loop
// against any LeaseTransport; wrapping the TCP transport in this class
// observes the fleet from outside the library: per-operation counts and
// latencies, lease spans (claim -> publish), and how much of the worker's
// wall time neither a lease nor a transport call covers (idle, which
// includes the worker's poll sleeps).  Nothing here changes what is
// forwarded, so results stay byte-identical.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/transport.hpp"
#include "trace.hpp"

namespace perfbench {

struct TransportStats {
  std::uint64_t requests = 0;  ///< operations forwarded
  std::uint64_t errors = 0;    ///< operations that threw
  std::vector<double> claim_ms;    ///< try_claim / try_steal latencies
  std::vector<double> publish_ms;  ///< publish_done latencies
  double scan_s = 0.0;     ///< is_done / list_done / claim_age_seconds time
  double lease_s = 0.0;    ///< summed lease spans (claim -> publish)
  double outside_s = 0.0;  ///< transport time outside lease spans
  std::uint64_t leases_published = 0;
  Clock::time_point last_publish{};  ///< return of the latest publish_done

  void merge(const TransportStats& other);
};

class TimedTransport final : public gpudiff::campaign::LeaseTransport {
 public:
  /// `trace` (nullable) receives lease and operation spans on lane `tid`,
  /// parented to `worker_span`; heartbeats land on lane `tid + 100`.
  TimedTransport(gpudiff::campaign::LeaseTransport& inner, Trace* trace,
                 std::uint32_t tid, std::int64_t worker_span);

  TransportStats stats() const;

  const std::string& worker_id() const noexcept override;
  void publish_or_verify_manifest(const gpudiff::support::Json& config_echo,
                                  int lease_size, int count) override;
  bool is_done(int lease) override;
  std::vector<int> list_done() override;
  bool try_claim(int lease) override;
  double claim_age_seconds(int lease) override;
  bool try_steal(int lease) override;
  void reap_claim(int lease) override;
  bool heartbeat(int lease) override;
  void publish_done(int lease, int count,
                    const gpudiff::campaign::ResultBlock& block) override;
  void release(int lease) override;
  void maintain(double stale_after_seconds) override;
  bool drain() override;

 private:
  enum class Op { Manifest, Scan, Claim, Reap, Heartbeat, Publish, Release,
                  Maintain, Drain };

  /// Forward `call`, recording its latency under `op` even when it throws.
  template <typename F>
  auto timed(Op op, const char* name, F&& call);
  void record(Op op, const char* name, Clock::time_point begin,
              Clock::time_point end, bool failed);
  void begin_lease();
  void end_lease_locked(Clock::time_point now);

  gpudiff::campaign::LeaseTransport& inner_;
  Trace* trace_;
  const std::uint32_t tid_;
  const std::int64_t worker_span_;

  mutable std::mutex mu_;  ///< guards everything below (heartbeat thread)
  TransportStats stats_;
  bool in_lease_ = false;
  Clock::time_point lease_begin_{};
  std::int64_t lease_span_ = -1;
};

}  // namespace perfbench
