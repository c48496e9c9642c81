// sim-ddbag: one point of the paper's Fig. 2, built through
// exp::Scenario and run on the discrete-event simulator -- 8 own + 32
// victim nodes, alpha = 0.25, a bag of 2048 dd tasks writing 128 MiB
// each. The bag is fixed by the paper, so --seed only seeds the fabric
// replay's transfer sizes; the simulated result is the same every run,
// which is what the checks hold it to.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "exp/scenario.hpp"
#include "fs/namespace.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "workflow/engine.hpp"
#include "workflow/generators.hpp"

namespace perfbench {
namespace {

namespace exp = memfss::exp;
namespace sim = memfss::sim;
namespace workflow = memfss::workflow;
using memfss::Bytes;
using memfss::units::MiB;

constexpr std::size_t kTasks = 2048;
constexpr Bytes kTaskBytes = 128 * MiB;
constexpr double kAlpha = 0.25;
// What the simulator must reproduce for this bag on every run.
constexpr double kMakespan = 15.1209;
constexpr std::uint64_t kStripeWrites = 16384;
constexpr Bytes kOwnBytes = 68317084160;
constexpr Bytes kVictimBytes = 206561871360;
/// The simulation advances in slices of this much simulated time; the
/// host time of each slice is one latency sample.
constexpr double kSliceSimS = 0.05;

struct Bag {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double client_s = 0.0;  ///< the benchmark's own work around the run
  workflow::Report report;
  std::uint64_t events = 0;
  std::uint64_t stripe_writes = 0;
  std::uint64_t msgs = 0;
  std::uint64_t flows = 0;
  Bytes own_bytes = 0;
  Bytes victim_bytes = 0;
  Bytes total_bytes = 0;
  std::size_t peak_flows = 0;
  double place_us = 0.0;  ///< traced bag only
  std::vector<double> slice_us;  ///< host time per kSliceSimS of sim time
};

sim::Task<> run_workflow(workflow::Engine& engine, workflow::Workflow wf,
                         workflow::Report& out, bool& done) {
  out = co_await engine.run(std::move(wf));
  done = true;
}

/// Traced bag only: sample the fabric's live flow count every 10 ms of
/// simulated time (reads state, never changes it).
sim::Task<> flow_probe(sim::Simulator& s, memfss::net::Fabric& fabric,
                       const bool& done, std::size_t& peak) {
  while (!done) {
    peak = std::max(peak, fabric.active_flows());
    co_await s.delay(0.01);
  }
}

/// Time ClassHrwPolicy::place over every stripe digest the bag wrote.
double replay_placement(exp::Scenario& sc) {
  const auto policy = sc.fs().policy_for_epoch(sc.fs().current_epoch());
  std::vector<std::uint64_t> digests;
  for (const auto& [path, st] : sc.fs().meta().ns().list_files())
    for (std::size_t i = 0; i < st.stripe_count; ++i)
      digests.push_back(memfss::fs::Namespace::stripe_key_digest(st.inode, i));
  if (digests.empty()) return 0.0;
  std::size_t calls = 0, sink = 0;
  const auto a = Clock::now();
  do {
    for (const std::uint64_t d : digests) sink += policy.place(d, 1).front();
    calls += digests.size();
  } while (seconds_between(a, Clock::now()) < 0.2);
  const auto b = Clock::now();
  asm volatile("" : : "r"(sink) : "memory");  // keep the placements
  return static_cast<double>(ns_between(a, b)) / 1e3 /
         static_cast<double>(calls);
}

Bag run_bag(SpanLog* trace, std::uint64_t bag_no) {
  Bag b;
  const auto t0 = Clock::now();
  exp::ScenarioParams p;
  p.own_fraction = kAlpha;
  exp::Scenario sc(p);
  workflow::Engine engine(sc.cluster(), sc.fs(), sc.own_nodes());
  auto wf = workflow::make_dd_bag(kTasks, kTaskBytes);
  const auto t1 = Clock::now();
  bool done = false;
  sc.sim().spawn(run_workflow(engine, std::move(wf), b.report, done));
  if (trace)
    sc.sim().spawn(flow_probe(sc.sim(), sc.cluster().fabric(), done,
                              b.peak_flows));
  for (double t = kSliceSimS;; t += kSliceSimS) {
    const auto a = Clock::now();
    sc.sim().run_until(t);
    b.slice_us.push_back(static_cast<double>(ns_between(a, Clock::now())) /
                         1e3);
    if (sc.sim().pending_events() == 0) break;
  }
  const auto t2 = Clock::now();
  b.setup_s = seconds_between(t0, t1);
  b.wall_s = seconds_between(t1, t2);
  if (trace) {
    trace->record("exp.scenario", bag_no, t0, t1);
    trace->record("sim.run", bag_no, t1, t2);
  }
  const auto& m = sc.cluster().obs().metrics;
  b.events = sc.sim().executed_events();
  b.stripe_writes = m.histogram_summary("fs.write_stripe.latency").count;
  b.msgs = m.counter_value("net.msg.count");
  b.flows = m.histogram_summary("net.flow.lifetime").count;
  for (auto n : sc.own_nodes()) b.own_bytes += sc.fs().bytes_on(n);
  for (auto n : sc.victim_nodes()) b.victim_bytes += sc.fs().bytes_on(n);
  b.total_bytes = sc.fs().total_bytes();
  if (trace) {
    const auto r0 = Clock::now();
    b.place_us = replay_placement(sc);
    trace->record("fs.place_replay", bag_no, r0, Clock::now());
  }
  b.client_s = seconds_between(t2, Clock::now());
  return b;
}

/// Fabric replay at the bag's flow population: `population` concurrent
/// own->victim transfers of stripe-sized flows under per-victim
/// container caps, each replaced on completion, for `rounds` rounds.
/// Every completion re-runs the water-filling, so host time per
/// completion is the recompute cost at that population.
double replay_fabric(std::size_t population, std::uint64_t seed) {
  constexpr std::size_t kRounds = 8;
  sim::Simulator s;
  exp::ScenarioParams p;
  memfss::net::Fabric fabric(s, p.total_nodes, p.node_spec.nic);
  std::vector<std::unique_ptr<memfss::net::CapGroup>> caps;
  for (std::size_t v = p.own_nodes; v < p.total_nodes; ++v)
    caps.push_back(std::make_unique<memfss::net::CapGroup>(p.victim_net_cap));
  memfss::Rng rng(seed);
  std::size_t completions = 0;
  auto worker = [&](std::size_t w, std::uint64_t wseed) -> sim::Task<> {
    memfss::Rng r(wseed);
    const auto src = static_cast<memfss::NodeId>(w % p.own_nodes);
    for (std::size_t i = 0; i < kRounds; ++i) {
      const std::size_t v = r.uniform_u64(0, caps.size() - 1);
      const auto dst = static_cast<memfss::NodeId>(p.own_nodes + v);
      const Bytes size = 8 * MiB + r.uniform_u64(0, 16 * MiB);
      co_await fabric.transfer(src, dst, size, memfss::net::Fabric::kUncapped,
                               caps[v].get());
      ++completions;
    }
  };
  for (std::size_t w = 0; w < population; ++w)
    s.spawn(worker(w, rng.next_u64()));
  const auto a = Clock::now();
  s.run();
  return static_cast<double>(ns_between(a, Clock::now())) / 1e3 /
         static_cast<double>(std::max<std::size_t>(completions, 1));
}

void check_bag(const Bag& b, Outcome& out) {
  out.attempted += kTasks;
  const auto failed = b.report.status.ok() ? 0 : kTasks - b.report.tasks_run;
  out.failed += failed;
  out.check(b.report.status.ok() && b.report.tasks_run == kTasks,
            "bag ran " + std::to_string(b.report.tasks_run) + " of " +
                std::to_string(kTasks) + " tasks");
  out.check(std::fabs(b.report.makespan - kMakespan) < 5e-5,
            "makespan " + std::to_string(b.report.makespan) + " sim-s, want " +
                std::to_string(kMakespan));
  out.check(b.stripe_writes == kStripeWrites,
            std::to_string(b.stripe_writes) + " stripe writes, want " +
                std::to_string(kStripeWrites));
  out.check(b.own_bytes == kOwnBytes && b.victim_bytes == kVictimBytes,
            "own/victim bytes " + std::to_string(b.own_bytes) + " / " +
                std::to_string(b.victim_bytes) + ", want " +
                std::to_string(kOwnBytes) + " / " +
                std::to_string(kVictimBytes));
}

/// The single simulation thread moves to the next allowed CPU before each
/// bag and set-up. On a virtual machine one vCPU can run slower than the
/// others for minutes (a busy neighbour on its host core); rotating spreads
/// every run over all of them instead of leaving it wherever it started.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof set, &set);  // best effort
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Set-up alone (scenario, engine and bag construction), for setup_s
/// samples beyond the bags' own.
double setup_only() {
  const auto t0 = Clock::now();
  exp::ScenarioParams p;
  p.own_fraction = kAlpha;
  exp::Scenario sc(p);
  workflow::Engine engine(sc.cluster(), sc.fs(), sc.own_nodes());
  auto wf = workflow::make_dd_bag(kTasks, kTaskBytes);
  return seconds_between(t0, Clock::now());
}

}  // namespace

void run_sim_ddbag(const Args& args, Outcome& out) {
  CpuRotation cpus;
  if (!args.trace) {
    std::vector<Bag> bags;
    const auto t0 = Clock::now();
    do {
      cpus.next();
      bags.push_back(run_bag(nullptr, bags.size()));
      check_bag(bags.back(), out);
    } while (bags.size() < 3 ||
             seconds_between(t0, Clock::now()) < args.seconds);
    std::vector<double> setup, wall, slice_us;
    for (int i = 0; i < 32; ++i) {
      cpus.next();
      setup.push_back(setup_only());
    }
    double wall_sum = 0.0;
    for (const Bag& b : bags) {
      setup.push_back(b.setup_s);
      wall.push_back(b.wall_s);
      slice_us.insert(slice_us.end(), b.slice_us.begin(), b.slice_us.end());
      wall_sum += b.wall_s;
    }
    out.add("throughput_ops_s",
            static_cast<double>(kTasks * bags.size()) / wall_sum, "1/s");
    const std::size_t slices = slice_us.size();
    out.add("latency_p50_us", quantile(slice_us, 0.5), "us");
    out.add("latency_p99_us", quantile(slice_us, 0.99), "us");
    out.add("wall_s", median(wall), "s");
    out.add("space_amp",
            static_cast<double>(bags.back().total_bytes) /
                static_cast<double>(kTasks * kTaskBytes),
            "ratio");
    out.add("setup_s", median(setup), "s");
    std::printf("bag walls (s):");
    for (const Bag& b : bags) std::printf(" %.3f", b.wall_s);
    std::printf("\n");
    std::printf("bags: %zu; latency samples: %zu slices of %.2f sim-s; "
                "own/victim bytes: %llu / %llu; makespan %.4f sim-s\n",
                bags.size(), slices, kSliceSimS,
                static_cast<unsigned long long>(bags.back().own_bytes),
                static_cast<unsigned long long>(bags.back().victim_bytes),
                bags.back().report.makespan);
    return;
  }

  // Traced run: bags untraced for half the time, then bags with spans
  // and the flow probe, then the fabric replay at the probed population.
  std::vector<Bag> plain_bags, traced_bags;
  SpanLog log(Clock::now(), 1, 1000);
  for (auto* bags : {&plain_bags, &traced_bags}) {
    const auto t0 = Clock::now();
    do {
      cpus.next();
      bags->push_back(run_bag(bags == &traced_bags ? &log : nullptr,
                              plain_bags.size() + traced_bags.size()));
      check_bag(bags->back(), out);
    } while (seconds_between(t0, Clock::now()) < args.seconds / 2);
  }
  auto median_wall = [](const std::vector<Bag>& bags) {
    std::vector<double> w;
    for (const Bag& b : bags) w.push_back(b.wall_s);
    return median(w);
  };
  const Bag& plain = plain_bags.front();
  const Bag& traced = traced_bags.front();
  const double wall_s = median_wall(plain_bags);
  const double recompute_us = replay_fabric(traced.peak_flows, args.seed);

  out.add("sim.events", static_cast<double>(plain.events), "count");
  out.add("sim.events_per_s", static_cast<double>(plain.events) / wall_s,
          "1/s");
  out.add("net.flows", static_cast<double>(plain.flows), "count");
  out.add("net.msgs", static_cast<double>(plain.msgs), "count");
  out.add("net.recompute_us", recompute_us, "us");
  out.add("fs.place_us", traced.place_us, "us");
  out.add("fs.stripe_writes", static_cast<double>(plain.stripe_writes), "count");
  out.add("bench.client_us", plain.client_s * 1e6 / kTasks, "us");
  out.add("bench.trace_overhead", wall_s / median_wall(traced_bags), "ratio");
  std::size_t slices = 0;
  for (const Bag& b : plain_bags) slices += b.slice_us.size();
  out.add("latency_samples", static_cast<double>(slices), "count");
  out.add("error_ratio",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  // Per task: host time of the run minus what the replayed layers
  // account for (one placement per stripe, one recompute per flow).
  const double accounted_us =
      traced.place_us * static_cast<double>(plain.stripe_writes) +
      recompute_us * static_cast<double>(plain.flows);
  out.add("residual_us", (wall_s * 1e6 - accounted_us) / kTasks, "us");
  std::printf("peak live flows: %zu; events: %llu\n", traced.peak_flows,
              static_cast<unsigned long long>(plain.events));
  if (!args.trace_out.empty() && !write_chrome_trace(args.trace_out, {&log}))
    out.failures.push_back("could not write " + args.trace_out);
}

}  // namespace perfbench
