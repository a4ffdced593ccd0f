#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

thread_local bool tl_bound = false;
thread_local std::uint32_t tl_tid = kMainTid;
thread_local std::int64_t tl_parent = -1;

}  // namespace

std::int64_t Trace::open(const char* name, std::uint32_t tid,
                         std::int64_t parent) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, tid, parent, now, now});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Trace::close(std::int64_t id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

void Trace::add(const char* name, std::uint32_t tid, std::int64_t parent,
                Clock::time_point begin, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, tid, parent, begin, end});
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Scope::Scope(Trace* trace, const char* name)
    : trace_(tl_bound ? trace : nullptr) {
  if (trace_ == nullptr) return;
  saved_parent_ = tl_parent;
  id_ = trace_->open(name, tl_tid, tl_parent);
  tl_parent = id_;
}

Scope::~Scope() {
  if (trace_ == nullptr) return;
  trace_->close(id_);
  tl_parent = saved_parent_;
}

void bind_thread(std::uint32_t tid, std::int64_t parent) {
  tl_bound = true;
  tl_tid = tid;
  tl_parent = parent;
}

std::int64_t current_span() { return tl_parent; }

SelfTimes self_times(const std::vector<Span>& spans, std::uint32_t tid) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.tid != tid || s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (spans[p].tid == tid) child_s[p] += seconds_between(s.begin, s.end);
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.tid != tid) continue;
    const double dur = seconds_between(s.begin, s.end);
    const double self = dur - child_s[i];
    if (self < -1e-9) out.nested = false;
    out.self_s[s.name] += self;
    out.durations_s[s.name].push_back(dur);
    if (s.parent < 0 || spans[static_cast<std::size_t>(s.parent)].tid != tid)
      out.root_s += dur;
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::map<std::uint32_t, std::string>& thread_names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  Clock::time_point origin = spans.empty() ? Clock::now() : spans.front().begin;
  for (const Span& s : spans) origin = std::min(origin, s.begin);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& [tid, name] : thread_names) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, name.c_str());
    first = false;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld}}",
                 first ? "" : ",\n", name.c_str(), layer.c_str(), us(s.begin),
                 us(s.end) - us(s.begin), s.tid, i,
                 static_cast<long long>(s.parent));
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  tail.value = quantile(values, 0.5);
  const auto n = static_cast<double>(values.size());
  for (const double pct : {90.0, 99.0, 99.9}) {
    if (n * (1.0 - pct / 100.0) < 10.0) break;
    tail.percentile = pct;
    tail.value = quantile(values, pct / 100.0);
  }
  return tail;
}

}  // namespace perfbench
