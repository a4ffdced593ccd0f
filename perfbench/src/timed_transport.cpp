#include "timed_transport.hpp"

#include <type_traits>

namespace perfbench {

using gpudiff::campaign::ResultBlock;
using gpudiff::support::Json;

void TransportStats::merge(const TransportStats& other) {
  requests += other.requests;
  errors += other.errors;
  claim_ms.insert(claim_ms.end(), other.claim_ms.begin(), other.claim_ms.end());
  publish_ms.insert(publish_ms.end(), other.publish_ms.begin(),
                    other.publish_ms.end());
  scan_s += other.scan_s;
  lease_s += other.lease_s;
  outside_s += other.outside_s;
  leases_published += other.leases_published;
  if (other.last_publish > last_publish) last_publish = other.last_publish;
}

TimedTransport::TimedTransport(gpudiff::campaign::LeaseTransport& inner,
                               Trace* trace, std::uint32_t tid,
                               std::int64_t worker_span)
    : inner_(inner), trace_(trace), tid_(tid), worker_span_(worker_span) {}

TransportStats TimedTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

template <typename F>
auto TimedTransport::timed(Op op, const char* name, F&& call) {
  const Clock::time_point begin = Clock::now();
  try {
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      record(op, name, begin, Clock::now(), false);
    } else {
      auto result = call();
      record(op, name, begin, Clock::now(), false);
      return result;
    }
  } catch (...) {
    record(op, name, begin, Clock::now(), true);
    throw;
  }
}

void TimedTransport::record(Op op, const char* name, Clock::time_point begin,
                            Clock::time_point end, bool failed) {
  const double dur = seconds_between(begin, end);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.requests;
  if (failed) ++stats_.errors;
  if (op == Op::Claim) stats_.claim_ms.push_back(dur * 1e3);
  if (op == Op::Publish) stats_.publish_ms.push_back(dur * 1e3);
  if (op == Op::Scan) stats_.scan_s += dur;
  // Heartbeats run on the lease's timer thread, inside the lease span.
  if (op != Op::Heartbeat && !in_lease_) stats_.outside_s += dur;
  if (trace_ != nullptr)
    trace_->add(name, op == Op::Heartbeat ? tid_ + 100 : tid_,
                in_lease_ ? lease_span_ : worker_span_, begin, end);
}

void TimedTransport::begin_lease() {
  std::lock_guard<std::mutex> lock(mu_);
  in_lease_ = true;
  lease_begin_ = Clock::now();
  if (trace_ != nullptr)
    lease_span_ = trace_->open("campaign.lease", tid_, worker_span_);
}

void TimedTransport::end_lease_locked(Clock::time_point now) {
  stats_.lease_s += seconds_between(lease_begin_, now);
  if (trace_ != nullptr) trace_->close(lease_span_);
  in_lease_ = false;
  lease_span_ = -1;
}

const std::string& TimedTransport::worker_id() const noexcept {
  return inner_.worker_id();
}

void TimedTransport::publish_or_verify_manifest(const Json& config_echo,
                                                int lease_size, int count) {
  timed(Op::Manifest, "campaign.transport.manifest", [&] {
    inner_.publish_or_verify_manifest(config_echo, lease_size, count);
  });
}

bool TimedTransport::is_done(int lease) {
  return timed(Op::Scan, "campaign.transport.scan",
               [&] { return inner_.is_done(lease); });
}

std::vector<int> TimedTransport::list_done() {
  return timed(Op::Scan, "campaign.transport.scan",
               [&] { return inner_.list_done(); });
}

double TimedTransport::claim_age_seconds(int lease) {
  return timed(Op::Scan, "campaign.transport.scan",
               [&] { return inner_.claim_age_seconds(lease); });
}

bool TimedTransport::try_claim(int lease) {
  const bool won = timed(Op::Claim, "campaign.transport.claim",
                         [&] { return inner_.try_claim(lease); });
  if (won) begin_lease();
  return won;
}

bool TimedTransport::try_steal(int lease) {
  const bool won = timed(Op::Claim, "campaign.transport.claim",
                         [&] { return inner_.try_steal(lease); });
  if (won) begin_lease();
  return won;
}

void TimedTransport::reap_claim(int lease) {
  timed(Op::Reap, "campaign.transport.reap",
        [&] { inner_.reap_claim(lease); });
}

bool TimedTransport::heartbeat(int lease) {
  return timed(Op::Heartbeat, "campaign.transport.heartbeat",
               [&] { return inner_.heartbeat(lease); });
}

void TimedTransport::publish_done(int lease, int count,
                                  const ResultBlock& block) {
  timed(Op::Publish, "campaign.transport.publish",
        [&] { inner_.publish_done(lease, count, block); });
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.leases_published;
  stats_.last_publish = now;
  if (in_lease_) end_lease_locked(now);
}

void TimedTransport::release(int lease) {
  timed(Op::Release, "campaign.transport.release",
        [&] { inner_.release(lease); });
  // A claim given back unexecuted (the lease turned out done) ends its span.
  std::lock_guard<std::mutex> lock(mu_);
  if (in_lease_) end_lease_locked(Clock::now());
}

void TimedTransport::maintain(double stale_after_seconds) {
  timed(Op::Maintain, "campaign.transport.maintain",
        [&] { inner_.maintain(stale_after_seconds); });
}

bool TimedTransport::drain() {
  return timed(Op::Drain, "campaign.transport.drain",
               [&] { return inner_.drain(); });
}

}  // namespace perfbench
