// Shared pieces of the MemFSS benchmark: the run's arguments and
// result, wall-clock helpers, exact percentiles, and the in-memory span
// recorder of the traced run.
//
// Everything in perfbench/ calls MemFSS only through its public headers;
// no span or counter is added inside src/. Layers the benchmark cannot wrap
// (they run inside a server call) are timed by replaying the workload's
// own inputs straight into that layer (see README.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace_event JSON path (traced run)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `failures` holds every failed correctness check;
/// a run with any failure is not correct.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + shed + rejected + lost ops
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Exact quantile (nearest rank) of `v`; reorders `v`.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(v, 0.5);
}

/// Latency histogram with log-linear buckets: exact below 128 ns, then
/// 128 buckets per power of two, so every bucket is at most 1/128 of its
/// value wide and a quantile read from it is within 0.8%. Memory is fixed
/// (values clamp at 2^40 ns), so a long run costs no more than a short one.
class LatencyHist {
 public:
  void add(std::uint64_t ns) {
    ++counts_[index(std::min<std::uint64_t>(ns, kMax))];
    ++n_;
    sum_ns_ += static_cast<double>(ns);
  }
  void merge(const LatencyHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ns_ += o.sum_ns_;
  }
  std::uint64_t count() const { return n_; }
  double mean_ns() const { return n_ ? sum_ns_ / static_cast<double>(n_) : 0; }
  /// Nearest-rank quantile, as the midpoint of the bucket holding it.
  double quantile_ns(double q) const;

 private:
  static constexpr int kSub = 7;  ///< log2 of buckets per power of two
  static constexpr std::uint64_t kMax = (1ull << 40) - 1;
  static constexpr std::size_t kBuckets = (40 - kSub + 1) << kSub;
  static std::size_t index(std::uint64_t v) {
    if (v < (1u << kSub)) return v;
    const int e = 63 - __builtin_clzll(v);
    return (static_cast<std::size_t>(e - kSub + 1) << kSub) +
           ((v >> (e - kSub)) & ((1u << kSub) - 1));
  }
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t n_ = 0;
  double sum_ns_ = 0;
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// One recorded span: a call into a layer, timed by the benchmark.
struct Span {
  const char* name = "";
  std::uint64_t op = 0;      ///< the op (request) the span belongs to
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// In-memory span log of one thread. Totals per span name are kept for
/// every span; at most `keep` spans are stored for the trace file.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, std::uint32_t tid, std::size_t keep)
      : epoch_(epoch), tid_(tid), keep_(keep) {
    spans_.reserve(keep);
  }

  void record(const char* name, std::uint64_t op, Clock::time_point a,
              Clock::time_point b) {
    const std::int64_t dur = ns_between(a, b);
    auto it = std::find_if(totals_.begin(), totals_.end(),
                           [&](const Total& t) { return t.name == name; });
    if (it == totals_.end()) {
      totals_.push_back({name, 0, 0});
      it = totals_.end() - 1;
    }
    ++it->count;
    it->ns += dur;
    if (spans_.size() < keep_)
      spans_.push_back({name, op, ns_between(epoch_, a), dur, tid_});
  }

  struct Total {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t ns = 0;
  };
  const std::vector<Total>& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::uint32_t tid_;
  std::size_t keep_;
  std::vector<Total> totals_;
  std::vector<Span> spans_;
};

/// Mean and total duration in microseconds of the spans named `name`.
double mean_span_us(const std::vector<const SpanLog*>& logs,
                    const std::string& name);
double total_span_us(const std::vector<const SpanLog*>& logs,
                     const std::string& name);

/// Write every stored span as Chrome trace_event JSON ("X" events).
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs);

// Workloads (each fills `out` with its metrics and checks).
void run_kv_inproc(const Args& args, Outcome& out);
void run_kv_tcp(const Args& args, Outcome& out);
void run_ec_degraded(const Args& args, Outcome& out);
void run_sim_ddbag(const Args& args, Outcome& out);

}  // namespace perfbench
