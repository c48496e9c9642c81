// MemFSS benchmark: one process runs one named workload for a
// fixed time, checks the outputs, and prints every metric by name with
// its unit. The last line of stdout is the JSON result.
//
//   perfbench --workload <kv-inproc|kv-tcp|ec-degraded|sim-ddbag>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 reports the end-to-end metrics, measured with no spans;
// --trace 1 reports the per-layer metrics of a traced run (README.md).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double LatencyHist::quantile_ns(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::min<double>(
      static_cast<double>(n_ - 1), q * static_cast<double>(n_)));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen > rank) break;
  }
  if (i < (1u << kSub)) return static_cast<double>(i);
  const int e = static_cast<int>(i >> kSub) + kSub - 1;
  const double width = std::ldexp(1.0, e - kSub);
  const double low = static_cast<double>((1u << kSub) + (i & ((1u << kSub) - 1))) * width;
  return low + width / 2;
}

namespace {

std::pair<std::uint64_t, double> span_totals(
    const std::vector<const SpanLog*>& logs, const std::string& name) {
  std::uint64_t n = 0;
  std::int64_t ns = 0;
  for (const SpanLog* log : logs)
    for (const auto& t : log->totals())
      if (t.name == name) {
        n += t.count;
        ns += t.ns;
      }
  return {n, static_cast<double>(ns) / 1e3};
}

}  // namespace

double mean_span_us(const std::vector<const SpanLog*>& logs,
                    const std::string& name) {
  const auto [n, us] = span_totals(logs, name);
  return n == 0 ? 0.0 : us / static_cast<double>(n);
}

double total_span_us(const std::vector<const SpanLog*>& logs,
                     const std::string& name) {
  return span_totals(logs, name).second;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans()) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                    first ? "" : ",\n", s.name, s.tid,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.dur_ns) / 1e3,
                    static_cast<unsigned long long>(s.op));
      f << buf;
      first = false;
    }
  f << "],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench

namespace {

using perfbench::Args;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0); every workload reports each one.
const MetricDef kEndToEnd[] = {
    {"throughput_ops_s", "1/s"}, {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},    {"wall_s", "s"},
    {"space_amp", "ratio"},      {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

// The per-layer metrics (--trace 1). A layer a workload never calls
// reports 0: it did no work there.
const MetricDef kPerLayer[] = {
    {"rt.server.submit_us", "us"},
    {"rt.server.residual_us", "us"},
    {"rt.server.queue_depth_peak", "count"},
    {"rt.server.shed_ratio", "ratio"},
    {"rt.store.get_us", "us"},
    {"rt.store.put_us", "us"},
    {"rt.store.put_us_contended", "us"},
    {"rt.store.ops_per_op", "count"},
    {"netio.encode_us", "us"},
    {"netio.decode_us", "us"},
    {"netio.bytes_per_op", "B"},
    {"netio.recv_wait_us", "us"},
    {"rt.tcp.frame_decode_us", "us"},
    {"rt.tcp.residual_us", "us"},
    {"rt.ec.put_us", "us"},
    {"rt.ec.get_us", "us"},
    {"rt.ec.get_degraded_us", "us"},
    {"rt.ec.reconstructed_ratio", "ratio"},
    {"rt.ec.gets", "count"},
    {"erasure.encode_us", "us"},
    {"erasure.decode_us", "us"},
    {"erasure.coder_build_us", "us"},
    {"hash.checksum_us", "us"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"net.flows", "count"},
    {"net.msgs", "count"},
    {"net.recompute_us", "us"},
    {"fs.place_us", "us"},
    {"fs.stripe_writes", "count"},
    {"bench.client_us", "us"},
    {"bench.trace_overhead", "ratio"},
    {"residual_us", "us"},
    {"error_ratio", "ratio"},
    {"latency_samples", "count"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") args.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") args.trace = std::strcmp(v, "0") != 0;
    else if (k == "--trace-out") args.trace_out = v;
    else return usage(("unknown argument " + k).c_str());
  }
  if (argc % 2 == 0) return usage("arguments come in pairs");
  if (!(args.seconds > 0.0)) return usage("--seconds must be > 0");

  Outcome out;
  if (args.workload == "kv-inproc") perfbench::run_kv_inproc(args, out);
  else if (args.workload == "kv-tcp") perfbench::run_kv_tcp(args, out);
  else if (args.workload == "ec-degraded") perfbench::run_ec_degraded(args, out);
  else if (args.workload == "sim-ddbag") perfbench::run_sim_ddbag(args, out);
  else return usage(("unknown workload '" + args.workload + "'").c_str());

  if (!args.trace) out.add("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");
  if (out.attempted == 0) out.failures.push_back("no op was attempted");

  std::map<std::string, double> got;
  for (const auto& m : out.metrics) got[m.name] = m.value;
  std::string metrics;
  auto emit = [&](const MetricDef& d, bool required) {
    auto it = got.find(d.name);
    if (it == got.end() && required)
      out.failures.push_back(std::string("metric not measured: ") + d.name);
    const double v = it == got.end() ? 0.0 : it->second;
    if (!std::isfinite(v))
      out.failures.push_back(std::string("metric not finite: ") + d.name);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name,
                  std::isfinite(v) ? v : 0.0, d.unit);
    metrics += buf;
    std::printf("  %-28s %16.6g %s\n", d.name, v, d.unit);
  };
  std::printf("%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.trace)
    for (const auto& d : kPerLayer) emit(d, false);
  else
    for (const auto& d : kEndToEnd) emit(d, true);

  for (const auto& f : out.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = out.failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  if (!correct)
    std::fprintf(stderr, "perfbench: %zu check(s) failed\n",
                 out.failures.size());
  return correct ? 0 : 1;
}
