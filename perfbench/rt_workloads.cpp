// The served-runtime workloads: kv-inproc, kv-tcp and ec-degraded.
//
// Each is a closed loop: every client keeps a fixed number of ops in
// flight and submits the next one only when one completes, the way a
// workflow task blocks on each stripe I/O. Op streams come from
// rt::generate_stream (seeded by --seed); put payloads come from a pool
// generated during set-up, so payload generation stays out of the timed
// window. Latency is timed per op on the client with steady_clock
// (nanosecond resolution), never from the server's log-bucket histogram.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "erasure/reed_solomon.hpp"
#include "hash/hashes.hpp"
#include "netio/client.hpp"
#include "netio/frame.hpp"
#include "rt/ec.hpp"
#include "rt/opstream.hpp"
#include "rt/server.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tcp_server.hpp"
#include "rt/tenant_registry.hpp"

namespace perfbench {
namespace {

using memfss::Bytes;
using memfss::Errc;
using memfss::kvstore::Blob;
using memfss::rt::GenOp;
using memfss::rt::Op;
namespace rt = memfss::rt;
namespace netio = memfss::netio;

constexpr char kToken[] = "perfbench";
constexpr std::size_t kKeepSpans = 20000;  ///< per thread, for the trace file
constexpr std::size_t kMaxFailureNotes = 5;
constexpr double kSliceS = 0.25;  ///< length of one measurement slice
constexpr std::size_t kTcpConnections = 2;  ///< kv-tcp's pipelined sockets

/// The shape of one served-runtime workload.
struct RtShape {
  std::size_t clients = 1;
  std::size_t workers = 1;
  std::size_t shards = 16;
  std::size_t inflight = 16;  ///< ops in flight per client
  Bytes value_size = 1024;
  std::size_t keys = 16384;
  std::size_t pool = 1024;  ///< distinct put payloads generated in set-up
  double get_fraction = 0.5;
  double zipf = 0.0;
  double degraded = 0.0;  ///< share of gets preceded by a sibling evict
  rt::RsPolicy rs{};
  bool tcp = false;
  std::size_t job_ops = 10000;  ///< ops per client in one wall_s job
  std::size_t stream_ops = 1u << 19;  ///< generated ops per client (cycled)
};

RtShape kv_inproc_shape() {
  RtShape s;
  s.clients = 2;
  s.workers = 2;
  s.inflight = 16;
  s.get_fraction = 0.9;
  s.zipf = 0.99;
  s.job_ops = 100000;
  s.stream_ops = 1u << 20;
  return s;
}

RtShape kv_tcp_shape() {
  RtShape s;
  s.clients = 1;
  s.workers = 1;
  s.inflight = 16;
  s.get_fraction = 0.5;
  s.tcp = true;
  s.job_ops = 40000;
  return s;
}

RtShape ec_degraded_shape() {
  RtShape s;
  s.clients = 1;
  s.workers = 2;
  s.inflight = 8;
  s.value_size = 16 * 1024;
  s.keys = 2048;
  s.pool = 256;
  s.get_fraction = 0.5;
  s.degraded = 0.2;
  s.rs = {4, 2};
  s.job_ops = 10000;
  s.stream_ops = 1u << 18;
  return s;
}

/// The workload's inputs, made once per run from --seed.
struct Inputs {
  std::vector<std::string> keys;
  std::vector<std::vector<GenOp>> streams;      ///< per client
  std::vector<std::vector<std::uint8_t>> degrade;  ///< per op: evict first
};

Inputs make_inputs(const RtShape& sh, std::uint64_t seed, std::size_t clients) {
  Inputs in;
  in.keys.reserve(sh.keys);
  for (std::size_t k = 0; k < sh.keys; ++k)
    in.keys.push_back(rt::loadgen_key(static_cast<std::uint32_t>(k)));
  rt::StreamOptions so;
  so.seed = seed;
  so.ops_per_thread = sh.stream_ops;
  so.get_fraction = sh.get_fraction;
  so.zipf_theta = sh.zipf;
  so.key_space = sh.keys;
  for (std::size_t c = 0; c < clients; ++c) {
    in.streams.push_back(rt::generate_stream(so, c));
    std::uint64_t mix = seed ^ (0xdeadbeefull + c);
    memfss::Rng rng(memfss::splitmix64(mix));
    std::vector<std::uint8_t> d(sh.stream_ops, 0);
    for (std::size_t i = 0; i < sh.stream_ops; ++i)
      d[i] = in.streams[c][i].type == Op::Type::get &&
             rng.next_double() < sh.degraded;
    in.degrade.push_back(std::move(d));
  }
  return in;
}

std::uint32_t pool_index(const RtShape& sh, std::size_t client,
                         std::size_t i) {
  return static_cast<std::uint32_t>((i * 2654435761u + client * 40503u) %
                                    sh.pool);
}

/// Store, server (and TCP front-end) plus everything the checks need.
/// Members are declared in construction order; destruction runs the
/// other way (TCP front-end, server, store, tenants).
struct Deployment {
  rt::TenantRegistry tenants;
  std::uint32_t tenant = 0;
  std::vector<Blob> pool;
  std::unordered_map<std::uint64_t, std::uint32_t> pool_by_checksum;
  /// Last put submitted per key. Kept only while one thread submits
  /// (set-up, single-client workloads), where per-key order is fixed.
  std::vector<std::uint32_t> expected;
  /// Every payload ever put per key, as a bitset (multi-client workloads).
  std::unique_ptr<std::atomic<std::uint64_t>[]> ever_put;
  std::size_t words_per_key = 0;
  std::unique_ptr<rt::ShardedStore> store;
  std::unique_ptr<rt::RuntimeServer> server;
  std::unique_ptr<rt::TcpServer> tcp;

  const memfss::erasure::ReedSolomon* coder() const {
    return tenants.rs_coder(tenant);
  }
  void mark_put(std::size_t key, std::uint32_t idx, bool single_submitter) {
    if (single_submitter) expected[key] = idx;
    ever_put[key * words_per_key + idx / 64].fetch_or(
        1ull << (idx % 64), std::memory_order_relaxed);
  }
  bool was_put(std::size_t key, std::uint32_t idx) const {
    return (ever_put[key * words_per_key + idx / 64].load(
                std::memory_order_relaxed) >>
            (idx % 64)) & 1u;
  }
};

/// Set-up: construction, payload generation and pre-population of every
/// key. Timed as setup_s.
std::unique_ptr<Deployment> deploy(const RtShape& sh, std::uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  if (sh.rs.enabled()) {
    memfss::rt::TenantConfig tc;
    tc.name = "ec";
    tc.rs = sh.rs;
    d->tenant = d->tenants.register_tenant(tc).value();
  }
  d->pool.reserve(sh.pool);
  for (std::size_t i = 0; i < sh.pool; ++i) {
    d->pool.push_back(
        rt::stream_value(sh.value_size, static_cast<std::uint32_t>(i), seed));
    d->pool_by_checksum.emplace(d->pool.back().checksum(),
                                static_cast<std::uint32_t>(i));
  }
  d->expected.assign(sh.keys, 0);
  d->words_per_key = (sh.pool + 63) / 64;
  d->ever_put = std::make_unique<std::atomic<std::uint64_t>[]>(
      sh.keys * d->words_per_key);
  for (std::size_t i = 0; i < sh.keys * d->words_per_key; ++i)
    d->ever_put[i].store(0, std::memory_order_relaxed);

  rt::ShardedStore::Options so;
  so.shards = sh.shards;
  so.capacity = 1024 * memfss::units::MiB;
  so.auth_token = kToken;
  d->store = std::make_unique<rt::ShardedStore>(so);
  rt::RuntimeServer::Options ro;
  ro.threads = sh.workers;
  ro.tenants = &d->tenants;
  d->server = std::make_unique<rt::RuntimeServer>(*d->store, ro);
  if (sh.tcp) {
    rt::TcpServer::Options to;
    to.reactors = 1;
    d->tcp = std::make_unique<rt::TcpServer>(*d->server, to);
  }
  const std::string token = kToken;
  for (std::size_t k = 0; k < sh.keys; ++k) {
    const auto idx = static_cast<std::uint32_t>(k % sh.pool);
    const std::string key = rt::loadgen_key(static_cast<std::uint32_t>(k));
    if (d->coder() != nullptr)
      (void)rt::ec::put(*d->store, token, key, d->pool[idx], *d->coder(),
                        nullptr, d->tenant);
    else
      (void)d->store->put(token, key, d->pool[idx]);
    d->mark_put(k, idx, true);
  }
  return d;
}

std::uint64_t store_calls(const memfss::kvstore::StoreStats& s) {
  return s.puts + s.gets + s.dels;
}

/// What one timed pass of the closed loop produced.
struct Pass {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t gets = 0;
  double wall_s = 0.0;
  /// Client-side latency per measurement slice (by completion time; the
  /// last one collects the drain after the timed window).
  std::vector<LatencyHist> slices;
  std::vector<double> job_s;
  std::vector<std::string> failures;
  std::uint64_t store_calls = 0;  ///< ShardedStore calls during the pass

  double throughput() const {
    return wall_s > 0 ? static_cast<double>(completed) / wall_s : 0.0;
  }
  explicit Pass(double seconds = 0.0)
      : slices(static_cast<std::size_t>(std::ceil(seconds / kSliceS)) + 1) {}

  void record(Clock::time_point t_start, Clock::time_point t0,
              Clock::time_point done) {
    const auto w = static_cast<std::size_t>(seconds_between(t_start, done) /
                                            kSliceS);
    slices[std::min(w, slices.size() - 1)].add(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns_between(t0, done))));
  }
  LatencyHist all() const {
    LatencyHist h;
    for (const auto& s : slices) h.merge(s);
    return h;
  }
  /// An op that failed, was shed or rejected (counts against error_ratio).
  void fail(std::string what) {
    ++failed;
    bad(std::move(what));
  }
  /// A wrong answer or broken protocol: a failed correctness check.
  void bad(std::string what) {
    if (failures.size() < kMaxFailureNotes) failures.push_back(std::move(what));
  }
  void merge(Pass&& o) {
    attempted += o.attempted;
    completed += o.completed;
    failed += o.failed;
    wall_s += o.wall_s;
    store_calls += o.store_calls;
    gets += o.gets;
    if (slices.size() < o.slices.size()) slices.resize(o.slices.size());
    for (std::size_t i = 0; i < o.slices.size(); ++i) slices[i].merge(o.slices[i]);
    job_s.insert(job_s.end(), o.job_s.begin(), o.job_s.end());
    for (auto& f : o.failures)
      if (failures.size() < kMaxFailureNotes) failures.push_back(std::move(f));
  }
};

/// Check one get result against the payload(s) that may be under `key`.
/// `exact`: per-key order is fixed, so it must be the last put submitted
/// before the get (`expect`); otherwise any payload ever put to the key.
void check_get(const Deployment& d, std::size_t key, bool exact,
               std::uint32_t expect, std::span<const std::uint8_t> got,
               std::uint64_t checksum, Pass& p) {
  std::uint32_t idx = expect;
  if (!exact) {
    const auto it = d.pool_by_checksum.find(checksum);
    if (it == d.pool_by_checksum.end()) {
      p.bad("get returned a value that was never put (key " +
             std::to_string(key) + ")");
      return;
    }
    idx = it->second;
    if (!d.was_put(key, idx)) {
      p.bad("get returned a value never put to key " + std::to_string(key));
      return;
    }
  }
  const auto want = d.pool[idx].bytes();
  if (got.size() != want.size() ||
      std::memcmp(got.data(), want.data(), want.size()) != 0 ||
      checksum != d.pool[idx].checksum())
    p.bad("get of key " + std::to_string(key) + " did not return the bytes " +
          (exact ? "of its last put" : "its checksum names"));
}

struct Done {
  std::uint32_t slot = 0;
  Clock::time_point at;
  rt::OpResult r;
};

/// Completions of one in-process client; the server's callback pushes
/// here and the client thread blocks until something arrives.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Done> q;
};

/// One in-process client's closed loop over `stream` until `t_end`.
Pass inproc_client(Deployment& d, const RtShape& sh, const Inputs& in,
                   std::size_t c, Clock::time_point t_start,
                   Clock::time_point t_end, SpanLog* trace) {
  Pass p(seconds_between(t_start, t_end));
  const bool exact = sh.clients == 1;
  const auto& stream = in.streams[c];
  const auto& degrade = in.degrade[c];
  const std::string token = kToken;
  Inbox inbox;
  struct Slot {
    bool busy = false;
    std::size_t i = 0;
    Clock::time_point t0;
    std::uint32_t expect = 0;
  };
  std::vector<Slot> slots(sh.inflight);
  std::size_t next = 0;
  std::size_t outstanding = 0;

  auto submit = [&](std::uint32_t s, Clock::time_point client_t0) {
    const std::size_t i = next++;
    const GenOp& g = stream[i % stream.size()];
    Slot& slot = slots[s];
    if (degrade[i % stream.size()]) {
      // A victim reclaims memory: one data sibling of the key vanishes.
      const auto e0 = Clock::now();
      (void)d.store->evict(
          rt::ec::shard_key(in.keys[g.key_index], g.key_index % sh.rs.k));
      if (trace) {
        const auto e1 = Clock::now();
        trace->record("bench.client", i, client_t0, e0);
        trace->record("victim.evict", i, e0, e1);
        client_t0 = e1;
      }
    }
    Op op;
    op.type = g.type;
    op.key = in.keys[g.key_index];
    op.tenant = d.tenant;
    if (g.type == Op::Type::put) {
      const std::uint32_t idx = pool_index(sh, c, i);
      op.value = d.pool[idx];
      d.mark_put(g.key_index, idx, exact);
    } else if (exact) {
      slot.expect = d.expected[g.key_index];
    }
    slot.busy = true;
    slot.i = i;
    ++outstanding;
    ++p.attempted;
    slot.t0 = Clock::now();
    if (trace) trace->record("bench.client", i, client_t0, slot.t0);
    d.server->submit_async(token, std::move(op), [&inbox, s](rt::OpResult r) {
      const auto at = Clock::now();
      // Notify under the lock: the client may return (destroying the
      // inbox) as soon as it sees the last completion.
      std::lock_guard lk(inbox.mu);
      inbox.q.push_back({s, at, std::move(r)});
      inbox.cv.notify_one();
    });
    if (trace) trace->record("rt.server.submit", i, slot.t0, Clock::now());
  };

  for (std::uint32_t s = 0; s < sh.inflight; ++s) submit(s, Clock::now());
  std::vector<Done> batch;
  auto job_t0 = t_start;
  std::size_t in_job = 0;
  Clock::time_point last = t_start;
  while (outstanding > 0) {
    {
      std::unique_lock lk(inbox.mu);
      inbox.cv.wait(lk, [&] { return !inbox.q.empty(); });
      batch.swap(inbox.q);
    }
    for (Done& dn : batch) {
      const auto tc0 = Clock::now();
      Slot& slot = slots[dn.slot];
      if (!slot.busy) {
        p.bad("op answered twice");
        continue;
      }
      slot.busy = false;
      --outstanding;
      ++p.completed;
      last = dn.at;
      p.record(t_start, slot.t0, dn.at);
      if (trace) trace->record("op", slot.i, slot.t0, dn.at);
      const GenOp& g = stream[slot.i % stream.size()];
      if (dn.r.code != Errc::ok) {
        p.fail(std::string(rt::op_type_name(g.type)) + " failed: " +
               std::string(memfss::errc_name(dn.r.code)));
      } else if (g.type == Op::Type::get) {
        ++p.gets;
        check_get(d, g.key_index, exact, slot.expect, dn.r.value.bytes(),
                  dn.r.value.checksum(), p);
      }
      if (++in_job == sh.job_ops) {
        p.job_s.push_back(seconds_between(job_t0, dn.at));
        job_t0 = dn.at;
        in_job = 0;
      }
      if (tc0 < t_end) submit(dn.slot, tc0);
    }
    batch.clear();
  }
  p.wall_s = seconds_between(t_start, last);
  return p;
}

/// Run every client of an in-process workload for `seconds`.
Pass inproc_pass(Deployment& d, const RtShape& sh, const Inputs& in,
                 double seconds, std::vector<std::unique_ptr<SpanLog>>* logs,
                 Clock::time_point epoch) {
  Pass all;
  const auto calls0 = store_calls(d.store->stats());
  std::vector<Pass> per(sh.clients);
  const auto t_start = Clock::now();
  const auto t_end =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < sh.clients; ++c) {
    SpanLog* log = nullptr;
    if (logs) {
      logs->push_back(std::make_unique<SpanLog>(
          epoch, static_cast<std::uint32_t>(logs->size() + 1), kKeepSpans));
      log = logs->back().get();
    }
    threads.emplace_back([&, c, log] {
      per[c] = inproc_client(d, sh, in, c, t_start, t_end, log);
    });
  }
  for (auto& t : threads) t.join();
  double wall = 0.0;
  for (auto& p : per) {
    wall = std::max(wall, p.wall_s);
    all.merge(std::move(p));
  }
  all.wall_s = wall;
  all.store_calls = store_calls(d.store->stats()) - calls0;
  return all;
}

/// The kv-tcp client: one thread, kTcpConnections pipelined sockets, keys
/// partitioned by connection so each key's ops keep their order.
Pass tcp_pass(Deployment& d, const RtShape& sh, const Inputs& in,
              double seconds, SpanLog* trace) {
  Pass p(seconds);
  const auto calls0 = store_calls(d.store->stats());
  const std::size_t nconn = kTcpConnections;
  const std::size_t per_conn = std::max<std::size_t>(1, sh.inflight / nconn);
  struct Slot {
    std::uint64_t id = 0;
    std::size_t i = 0;
    Clock::time_point t0;
    std::uint32_t expect = 0;
  };
  struct Conn {
    netio::NetClient net;
    std::vector<std::size_t> ops;  ///< stream offsets whose key maps here
    std::size_t next = 0;
    std::vector<Slot> open;
  };
  std::vector<Conn> conns(nconn);
  const auto& stream = in.streams[0];
  for (std::size_t i = 0; i < stream.size(); ++i)
    conns[stream[i].key_index % nconn].ops.push_back(i);
  for (std::size_t c = 0; c < nconn; ++c) {
    auto& n = conns[c].net;
    const bool ok =
        n.connect(d.tcp->port()).ok() && n.set_recv_timeout(30.0).ok() &&
        n.send(netio::NetClient::make_auth((1ull << 62) | c, kToken)).ok();
    auto a = n.recv();
    if (!ok || !a.ok() || a.value().status != 0) {
      p.bad("connection " + std::to_string(c) + " failed to open");
      return p;
    }
  }
  std::uint64_t next_id = 1;
  std::vector<std::uint8_t> wire;
  std::size_t outstanding = 0;
  auto send_next = [&](Conn& cn, std::size_t seq_no, Clock::time_point ct0) {
    const std::size_t i = cn.ops[cn.next++ % cn.ops.size()];
    const GenOp& g = stream[i];
    Slot s;
    s.id = next_id++;
    netio::Frame f;
    if (g.type == Op::Type::put) {
      const std::uint32_t idx = pool_index(sh, 0, seq_no);
      const auto b = d.pool[idx].bytes();
      f = netio::NetClient::make_put(s.id, 0, in.keys[g.key_index],
                                     {b.begin(), b.end()});
      d.mark_put(g.key_index, idx, true);
    } else {
      f = netio::NetClient::make_get(s.id, 0, in.keys[g.key_index]);
      s.expect = d.expected[g.key_index];
    }
    const auto e0 = Clock::now();
    if (trace) trace->record("bench.client", s.id, ct0, e0);
    wire.clear();
    netio::encode_frame(f, wire);
    s.t0 = Clock::now();
    if (trace) trace->record("netio.encode", s.id, e0, s.t0);
    s.i = i;
    cn.open.push_back(s);
    ++outstanding;
    ++p.attempted;
    if (!cn.net.send_raw(wire).ok()) p.bad("send failed");
    if (trace) trace->record("netio.send", s.id, s.t0, Clock::now());
  };

  const auto t_start = Clock::now();
  const auto t_end =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  std::size_t seq_no = 0;
  for (auto& cn : conns)
    for (std::size_t k = 0; k < per_conn && !cn.ops.empty(); ++k)
      send_next(cn, seq_no++, Clock::now());
  auto job_t0 = t_start;
  std::size_t in_job = 0;
  Clock::time_point last = t_start;
  while (outstanding > 0 && p.failures.empty()) {
    for (auto& cn : conns) {
      if (cn.open.empty()) continue;
      const auto r0 = Clock::now();
      auto got = cn.net.recv();
      const auto at = Clock::now();
      if (trace) trace->record("netio.recv_wait", 0, r0, at);
      if (!got.ok()) {
        p.bad("recv failed: " + got.error().to_string());
        break;
      }
      const netio::Frame& rf = got.value();
      auto it = std::find_if(cn.open.begin(), cn.open.end(), [&](const Slot& s) {
        return s.id == rf.request_id;
      });
      if (it == cn.open.end()) {
        p.bad("response with an unknown or repeated request id");
        continue;
      }
      const Slot s = *it;
      cn.open.erase(it);
      --outstanding;
      ++p.completed;
      last = at;
      p.record(t_start, s.t0, at);
      if (trace) trace->record("op", s.id, s.t0, at);
      const GenOp& g = stream[s.i];
      const auto code = static_cast<Errc>(rf.status);
      if (code != Errc::ok) {
        p.fail(std::string(rt::op_type_name(g.type)) + " failed: " +
               std::string(memfss::errc_name(code)));
      } else if (g.type == Op::Type::get) {
        ++p.gets;
        check_get(d, g.key_index, true, s.expect, rf.value, rf.checksum, p);
      }
      if (++in_job == sh.job_ops) {
        p.job_s.push_back(seconds_between(job_t0, at));
        job_t0 = at;
        in_job = 0;
      }
      if (at < t_end) send_next(cn, seq_no++, at);
    }
  }
  for (auto& cn : conns) p.failed += cn.open.size();  // lost: never answered
  p.wall_s = seconds_between(t_start, last);
  p.store_calls = store_calls(d.store->stats()) - calls0;
  return p;
}

/// The timed window cut into fixed slices: ops completed and latency
/// quantiles per slice. Reporting the median slice keeps a burst of
/// outside load during part of a run from moving the result.
struct Windows {
  std::vector<double> ops_s, p50_us, p99_us;
};

Windows slice(const Pass& p, double seconds) {
  // Only slices wholly inside the timed window; the rest hold the drain.
  const auto n = std::min(p.slices.size(),
                          static_cast<std::size_t>(seconds / kSliceS));
  Windows ws;
  for (std::size_t i = 0; i < n; ++i) {
    const LatencyHist& h = p.slices[i];
    if (h.count() == 0) continue;
    ws.ops_s.push_back(static_cast<double>(h.count()) / kSliceS);
    ws.p50_us.push_back(h.quantile_ns(0.50) / 1e3);
    ws.p99_us.push_back(h.quantile_ns(0.99) / 1e3);
  }
  return ws;
}

/// After quiesce the store's byte accounting must match a re-sum.
void check_accounting(const rt::ShardedStore& store, Outcome& out) {
  Bytes resum = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s)
    resum += store.shard_recomputed_used(s);
  out.check(store.used() == resum,
            "used() " + std::to_string(store.used()) +
                " != sum of shard_recomputed_used " + std::to_string(resum));
}

/// Fold a pass into the outcome: every op must be answered exactly once
/// and none may fail, be shed or be lost.
void report_pass(const Pass& p, Outcome& out) {
  out.attempted += p.attempted;
  out.failed += p.failed;
  for (const auto& f : p.failures) out.failures.push_back(f);
  out.check(p.completed == p.attempted,
            "answered " + std::to_string(p.completed) + " of " +
                std::to_string(p.attempted) + " ops");
  out.check(p.failed == 0, std::to_string(p.failed) +
                               " ops failed, were shed or were lost");
}


// ---- layer replays (traced run) ---------------------------------------

struct Mean {
  double ns = 0;
  std::uint64_t n = 0;
  void add(Clock::time_point a, Clock::time_point b) {
    ns += static_cast<double>(ns_between(a, b));
    ++n;
  }
  double us() const { return n ? ns / 1e3 / static_cast<double>(n) : 0.0; }
};

/// Replay client streams straight into a fresh ShardedStore, one thread
/// per stream, for `seconds`. Returns {get, put} mean times.
std::pair<Mean, Mean> replay_store(const RtShape& sh, const Deployment& d,
                                   const Inputs& in, std::size_t threads,
                                   double seconds) {
  rt::ShardedStore::Options so;
  so.shards = sh.shards;
  so.capacity = 1024 * memfss::units::MiB;
  so.auth_token = kToken;
  rt::ShardedStore store(so);
  for (std::size_t k = 0; k < sh.keys; ++k)
    (void)store.put(kToken, in.keys[k], d.pool[k % sh.pool]);
  std::vector<std::pair<Mean, Mean>> per(threads);
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < threads; ++t)
    ts.emplace_back([&, t] {
      const auto& stream = in.streams[t % in.streams.size()];
      // A second thread over a single-client stream starts half-way in,
      // so the two do not walk the same keys in lockstep.
      std::size_t i = t * stream.size() / 2;
      for (; !stop.load(std::memory_order_relaxed); ++i) {
        const GenOp& g = stream[i % stream.size()];
        if (g.type == Op::Type::put) {
          Blob b = d.pool[pool_index(sh, t, i)];
          const auto a = Clock::now();
          (void)store.put(kToken, in.keys[g.key_index], std::move(b));
          per[t].second.add(a, Clock::now());
        } else {
          const auto a = Clock::now();
          auto r = store.get(kToken, in.keys[g.key_index]);
          per[t].first.add(a, Clock::now());
        }
      }
    });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& t : ts) t.join();
  std::pair<Mean, Mean> all;
  for (const auto& [g, p] : per) {
    all.first.ns += g.ns;
    all.first.n += g.n;
    all.second.ns += p.ns;
    all.second.n += p.n;
  }
  return all;
}

template <typename F>
double time_us(std::size_t reps, F&& f) {
  const auto a = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) f(i);
  return static_cast<double>(ns_between(a, Clock::now())) / 1e3 /
         static_cast<double>(reps);
}

/// Mean rt::ec call times of the replay, in microseconds.
struct EcTimes {
  double put = 0, get = 0, get_degraded = 0;
};

/// ec-degraded's layers: the stream replayed into rt::ec on one thread,
/// plus ReedSolomon coding and FNV-1a over one value.
EcTimes replay_ec(const RtShape& sh, const Deployment& d, const Inputs& in,
                  double seconds, Outcome& out) {
  rt::ShardedStore::Options so;
  so.shards = sh.shards;
  so.capacity = 1024 * memfss::units::MiB;
  so.auth_token = kToken;
  rt::ShardedStore store(so);
  const auto& rs = *d.coder();
  for (std::size_t k = 0; k < sh.keys; ++k)
    (void)rt::ec::put(store, kToken, in.keys[k], d.pool[k % sh.pool], rs);
  Mean put, get, get_degraded;
  const auto& stream = in.streams[0];
  const auto t_end = Clock::now() +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; Clock::now() < t_end; ++i) {
    const GenOp& g = stream[i % stream.size()];
    const std::string& key = in.keys[g.key_index];
    if (g.type == Op::Type::put) {
      const auto a = Clock::now();
      (void)rt::ec::put(store, kToken, key, d.pool[pool_index(sh, 0, i)], rs);
      put.add(a, Clock::now());
      continue;
    }
    if (in.degrade[0][i % stream.size()])
      (void)store.evict(rt::ec::shard_key(key, g.key_index % rs.data_shards()));
    bool rebuilt = false;
    const auto a = Clock::now();
    auto r = rt::ec::get(store, kToken, key, nullptr, &rebuilt);
    (rebuilt ? get_degraded : get).add(a, Clock::now());
    out.check(r.ok(), "ec replay get failed");
  }
  out.add("rt.ec.put_us", put.us(), "us");
  out.add("rt.ec.get_us", get.us(), "us");
  out.add("rt.ec.get_degraded_us", get_degraded.us(), "us");

  const auto value = d.pool[0].bytes();
  const std::size_t ss = rs.shard_size(value.size());
  std::vector<std::uint8_t> arena(rs.total_shards() * ss);
  std::vector<std::uint8_t*> ptrs(rs.total_shards());
  for (std::size_t i = 0; i < ptrs.size(); ++i) ptrs[i] = arena.data() + i * ss;
  out.add("erasure.encode_us", time_us(2000, [&](std::size_t) {
            (void)rs.encode_into(value, ptrs.data(), ss);
          }), "us");
  auto shards = rs.encode(value);
  shards[1].clear();  // one data shard lost, as on a degraded get
  std::uint64_t sink = 0;
  out.add("erasure.decode_us", time_us(2000, [&](std::size_t) {
            auto dec = rs.decode(shards, value.size());
            sink += dec.ok() ? dec.value().size() : 0;
          }), "us");
  out.add("erasure.coder_build_us", time_us(2000, [&](std::size_t) {
            const memfss::erasure::ReedSolomon c(sh.rs.k, sh.rs.m);
            sink += c.total_shards();
          }), "us");
  const std::string_view bytes(reinterpret_cast<const char*>(value.data()),
                               value.size());
  out.add("hash.checksum_us", time_us(2000, [&](std::size_t i) {
            sink += memfss::hash::fnv1a(bytes.substr(i % 2));
          }), "us");
  out.check(sink != 0, "replay produced no output");
  return {put.us(), get.us(), get_degraded.us()};
}

/// kv-tcp's codec: the stream's request frames encoded, and the matching
/// response frames decoded, as the client does per op. Returns the two
/// per-op times summed, in microseconds.
double replay_codec(const RtShape& sh, const Deployment& d, const Inputs& in,
                    Outcome& out) {
  const auto& stream = in.streams[0];
  const std::size_t n = std::min<std::size_t>(stream.size(), 50000);
  std::vector<std::uint8_t> wire;
  const auto a = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const GenOp& g = stream[i];
    wire.clear();
    netio::Frame f;
    if (g.type == Op::Type::put) {
      const auto b = d.pool[pool_index(sh, 0, i)].bytes();
      f = netio::NetClient::make_put(i, 0, in.keys[g.key_index],
                                     {b.begin(), b.end()});
    } else {
      f = netio::NetClient::make_get(i, 0, in.keys[g.key_index]);
    }
    netio::encode_frame(f, wire);
  }
  const double encode_us = static_cast<double>(ns_between(a, Clock::now())) /
                           1e3 / static_cast<double>(n);
  out.add("netio.encode_us", encode_us, "us");
  std::vector<std::uint8_t> responses;
  // encode_frame reserves exactly one frame more on each call, so
  // appending many frames to one buffer must reserve the total first.
  responses.reserve(n * (netio::kHeaderLen + netio::kResponseFixedLen +
                         sh.value_size));
  for (std::size_t i = 0; i < n; ++i) {
    netio::Frame f;
    f.kind = netio::Frame::Kind::response;
    f.request_id = i;
    f.flags = netio::kFlagHasSeq;
    f.seq = i;
    if (stream[i].type == Op::Type::get) {
      const Blob& b = d.pool[stream[i].key_index % sh.pool];
      f.value.assign(b.bytes().begin(), b.bytes().end());
      f.value_size = static_cast<std::uint32_t>(b.size());
      f.checksum = b.checksum();
    }
    netio::encode_frame(f, responses);
  }
  netio::FrameDecoder dec;
  constexpr std::size_t kChunk = 64 * 1024;
  netio::Frame f;
  std::size_t decoded = 0;
  const auto b0 = Clock::now();
  for (std::size_t off = 0; off < responses.size(); off += kChunk) {
    dec.feed(responses.data() + off, std::min(kChunk, responses.size() - off));
    while (dec.next(f) == netio::Decode::frame) ++decoded;
  }
  const double decode_us = static_cast<double>(ns_between(b0, Clock::now())) /
                           1e3 / static_cast<double>(n);
  out.add("netio.decode_us", decode_us, "us");
  out.check(decoded == n, "codec replay decoded " + std::to_string(decoded) +
                              " of " + std::to_string(n) + " frames");
  return encode_us + decode_us;
}

double counter(const Deployment& d, const char* name) {
  return static_cast<double>(d.server->metrics().counter_value(name));
}

// ---- the workloads --------------------------------------------------

void run_rt(const RtShape& sh, const Args& args, Outcome& out) {
  const Inputs in = make_inputs(sh, args.seed, sh.clients);
  const std::size_t setups = args.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (std::size_t k = 0; k < setups; ++k) {
    d.reset();
    const auto t0 = Clock::now();
    d = deploy(sh, args.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const auto epoch = Clock::now();
  auto pass = [&](double secs, std::vector<std::unique_ptr<SpanLog>>* logs) {
    if (!sh.tcp) return inproc_pass(*d, sh, in, secs, logs, epoch);
    SpanLog* log = nullptr;
    if (logs) {
      logs->push_back(std::make_unique<SpanLog>(epoch, 1, kKeepSpans));
      log = logs->back().get();
    }
    return tcp_pass(*d, sh, in, secs, log);
  };

  if (!args.trace) {
    Pass p = pass(args.seconds, nullptr);
    report_pass(p, out);
    check_accounting(*d->store, out);
    const Windows ws = slice(p, args.seconds);
    out.add("throughput_ops_s", median(ws.ops_s), "1/s");
    out.add("latency_p50_us", median(ws.p50_us), "us");
    out.add("latency_p99_us", median(ws.p99_us), "us");
    out.add("wall_s", median(p.job_s), "s");
    out.add("space_amp",
            static_cast<double>(d->store->used()) /
                static_cast<double>(sh.keys * sh.value_size),
            "ratio");
    out.add("setup_s", median(setup_s), "s");
    std::printf("latency samples: %zu in %zu slices of %.2f s; "
                "wall_s jobs: %zu x %zu ops/client\n",
                static_cast<std::size_t>(p.all().count()), ws.ops_s.size(),
                kSliceS, p.job_s.size(),
                sh.job_ops);
    const LatencyHist run = p.all();
    std::printf("whole-run latency us p10/p50/p90/p99/p99.9: "
                "%.1f %.1f %.1f %.1f %.1f\n",
                run.quantile_ns(0.10) / 1e3, run.quantile_ns(0.50) / 1e3,
                run.quantile_ns(0.90) / 1e3, run.quantile_ns(0.99) / 1e3,
                run.quantile_ns(0.999) / 1e3);
    if (sh.rs.enabled())
      out.check(counter(*d, "rt.ec.reconstructed_gets") > 0,
                "no get took the reconstruct path");
    return;
  }

  const double share = args.seconds / (sh.tcp ? 3.0 : 2.0);
  // Untraced and traced halves alternate, so drift in the machine's speed
  // over the run does not read as tracing overhead.
  Pass plain, traced;
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (int round = 0; round < 2; ++round) {
    plain.merge(pass(share / 2, nullptr));
    traced.merge(pass(share / 2, &logs));
  }
  std::vector<const SpanLog*> views;
  for (const auto& l : logs) views.push_back(l.get());
  report_pass(plain, out);
  report_pass(traced, out);
  check_accounting(*d->store, out);
  const double ops = static_cast<double>(plain.completed + traced.completed);
  const double mean_lat = plain.all().mean_ns() / 1e3;

  const double submit_us = mean_span_us(views, "rt.server.submit");
  out.add("rt.server.submit_us", submit_us, "us");
  const auto snap = d->server->metrics().snapshot();
  const auto* depth = snap.find("rt.queue.depth");
  out.add("rt.server.queue_depth_peak", depth ? depth->peak : 0.0, "count");
  out.add("rt.server.shed_ratio",
          (counter(*d, "rt.ops.overloaded") + counter(*d, "rt.ops.rejected")) /
              ops,
          "ratio");
  out.add("latency_samples", static_cast<double>(plain.all().count()),
          "count");
  out.add("error_ratio", static_cast<double>(out.failed) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 out.attempted, 1)),
          "ratio");
  // Store calls per logical op, from the server's own store counters.
  out.add("rt.store.ops_per_op",
          static_cast<double>(plain.store_calls) /
              static_cast<double>(plain.completed),
          "count");

  // bench.client: the benchmark's own work per op (choosing, copying and
  // checking), outside any call into MemFSS.
  out.add("bench.client_us",
          total_span_us(views, "bench.client") /
              static_cast<double>(std::max<std::uint64_t>(traced.completed, 1)),
          "us");
  out.add("bench.trace_overhead", traced.throughput() / plain.throughput(),
          "ratio");

  const double get_share = static_cast<double>(plain.gets) /
                           static_cast<double>(plain.completed);
  const auto [sget, sput] = replay_store(sh, *d, in, 1, 0.4);
  out.add("rt.store.get_us", sget.us(), "us");
  out.add("rt.store.put_us", sput.us(), "us");
  out.add("rt.store.put_us_contended",
          replay_store(sh, *d, in, 2, 0.4).second.us(), "us");
  double layer_us = get_share * sget.us() + (1 - get_share) * sput.us();

  if (sh.rs.enabled()) {
    const EcTimes ec = replay_ec(sh, *d, in, 0.6, out);
    const double rebuilt = counter(*d, "rt.ec.reconstructed_gets");
    const double gets = static_cast<double>(plain.gets + traced.gets);
    out.add("rt.ec.reconstructed_ratio", rebuilt / gets, "ratio");
    out.add("rt.ec.gets", gets, "count");
    out.check(rebuilt > 0, "no get took the reconstruct path");
    const double r = rebuilt / gets;
    layer_us = get_share * ((1 - r) * ec.get + r * ec.get_degraded) +
               (1 - get_share) * ec.put;
  }
  out.add("rt.server.residual_us", mean_lat - layer_us, "us");

  if (sh.tcp) {
    const double codec_us = replay_codec(sh, *d, in, out);
    const auto fd = d->server->metrics().histogram_summary("rt.net.frame_decode_s");
    const double frame_decode_us = fd.mean() * 1e6;
    out.add("rt.tcp.frame_decode_us", frame_decode_us, "us");
    out.add("netio.recv_wait_us", mean_span_us(views, "netio.recv_wait"), "us");
    const double frames = counter(*d, "rt.net.frames_in");
    out.add("netio.bytes_per_op",
            (counter(*d, "rt.net.bytes_in") + counter(*d, "rt.net.bytes_out")) /
                frames,
            "B");
    // The same stream in process (1 client, same in-flight, 1 worker):
    // what the socket path adds on top is rt.tcp.residual_us.
    RtShape local = sh;
    local.tcp = false;
    auto ld = deploy(local, args.seed);
    Pass lp = inproc_pass(*ld, local, in, share, nullptr, epoch);
    report_pass(lp, out);
    out.add("rt.tcp.residual_us", mean_lat - lp.all().mean_ns() / 1e3, "us");
    layer_us += codec_us + frame_decode_us;
  }
  out.add("residual_us", mean_lat - layer_us - submit_us, "us");
  if (!args.trace_out.empty() && !write_chrome_trace(args.trace_out, views))
    out.failures.push_back("could not write " + args.trace_out);
}

}  // namespace

void run_kv_inproc(const Args& args, Outcome& out) {
  run_rt(kv_inproc_shape(), args, out);
}
void run_kv_tcp(const Args& args, Outcome& out) {
  run_rt(kv_tcp_shape(), args, out);
}
void run_ec_degraded(const Args& args, Outcome& out) {
  run_rt(ec_degraded_shape(), args, out);
}

}  // namespace perfbench
