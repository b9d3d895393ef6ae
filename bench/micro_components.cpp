// micro_components — google-benchmark microbenchmarks of the hot
// components: event scheduling, queue operations, congestion-control
// updates, whisker-tree lookups, context-server round trips, IPFIX
// sampling, and an end-to-end mini scenario.
#include <benchmark/benchmark.h>

#include <array>
#include <limits>
#include <memory>
#include <string>

#include "flow/bottleneck.hpp"
#include "flow/heavy_hitters.hpp"
#include "flow/ipfix.hpp"
#include "phi/context_server.hpp"
#include "phi/scenario.hpp"
#include "phi/secure_agg.hpp"
#include "remy/remycc.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "sim/parking_lot.hpp"
#include "sim/queue.hpp"
#include "sim/queue_disc.hpp"
#include "tcp/cc.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "util/rng.hpp"

using namespace phi;

namespace {

void BM_SchedulerScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    long executed = 0;
    for (int i = 0; i < state.range(0); ++i)
      s.schedule_at(i * 100, [&executed] { ++executed; });
    s.run_until(state.range(0) * 100);
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(10000);

// The retransmit-timer pattern: every "ack" cancels the pending timer and
// re-arms it. This is the scheduler's allocation-sensitive path — with
// slot recycling and SmallFn inline captures, steady state allocates
// nothing. items_per_second here is events/sec (one schedule + one cancel
// per item).
void BM_SchedulerTimerChurn(benchmark::State& state) {
  sim::Scheduler s;
  util::Time now = 0;
  long fired = 0;
  sim::EventId pending = 0;
  for (auto _ : state) {
    if (pending != 0) s.cancel(pending);
    now += 1000;
    pending = s.schedule_at(now + 250'000'000, [&fired] { ++fired; });
    benchmark::DoNotOptimize(pending);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("events/sec");
}
BENCHMARK(BM_SchedulerTimerChurn);

// Self-rescheduling event chain (the cbr/monitor pattern): measures
// steady-state dispatch throughput, heap push/pop plus one SmallFn
// invocation per event, with the slot slab warm.
void BM_SchedulerSelfReschedule(benchmark::State& state) {
  sim::Scheduler s;
  const long n = state.range(0);
  struct Chain {
    sim::Scheduler& s;
    long left;
    void arm() {
      s.schedule_in(1000, [this] {
        if (--left > 0) arm();
      });
    }
  };
  for (auto _ : state) {
    Chain chain{s, n};
    chain.arm();
    s.run_until(s.now() + n * 1000 + 1);
    benchmark::DoNotOptimize(chain.left);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("events/sec");
}
BENCHMARK(BM_SchedulerSelfReschedule)->Arg(10000);

// Same-deadline storm: many events sharing one exact timestamp (a
// synchronized window of deliveries landing together). The wheel
// collects the whole bucket in one sweep and sorts it once; the old heap
// paid a log-n pop per event.
void BM_SchedulerSameDeadlineStorm(benchmark::State& state) {
  const long n = state.range(0);
  for (auto _ : state) {
    sim::Scheduler s;
    long executed = 0;
    for (long i = 0; i < n; ++i)
      s.schedule_at(10'000, [&executed] { ++executed; });
    s.run_until(20'000);
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("events/sec");
}
BENCHMARK(BM_SchedulerSameDeadlineStorm)->Arg(64)->Arg(1024);

// Far-future timer churn across wheel levels: re-armed deadlines spread
// over seconds land on upper wheel levels or the overflow heap, then
// cascade down as time advances. Exercises placement, cascade, and
// overflow migration together — the costs a near-future-only bench
// never sees.
void BM_SchedulerCrossLevelChurn(benchmark::State& state) {
  sim::Scheduler s;
  util::Rng rng(0xC0DE);
  long fired = 0;
  // Keep a working set of timers spanning ~4 s (level 2 / overflow
  // territory at 1.024 us ticks), advancing time in 1 ms steps.
  constexpr int kTimers = 256;
  std::array<sim::EventId, kTimers> ids{};
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.below(kTimers));
    if (ids[static_cast<std::size_t>(slot)] != 0)
      s.cancel(ids[static_cast<std::size_t>(slot)]);
    const util::Time t =
        s.now() + 1'000'000 +
        static_cast<util::Time>(rng.below(4'000'000'000ull));
    ids[static_cast<std::size_t>(slot)] =
        s.schedule_at(t, [&fired] { ++fired; });
    s.run_until(s.now() + 1'000'000);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("rearm+advance/sec");
}
BENCHMARK(BM_SchedulerCrossLevelChurn);

void BM_DropTailQueue(benchmark::State& state) {
  sim::PacketPool pool;
  sim::DropTailQueue q(1500 * 64);
  const sim::PacketHandle h = pool.acquire(sim::Packet{});
  for (auto _ : state) {
    q.enqueue(pool, h, 0);
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailQueue);

// The per-packet datapath in isolation: a saturated link serializing
// back-to-back segments into a counting agent. Every packet costs one
// delivery event and one transmit-complete event, so items/sec here is
// the simulator's raw packet-transit throughput (the PR 5 tentpole
// metric, recorded before/after in BENCH_PR5.json).
void BM_LinkPacketTransit(benchmark::State& state) {
  sim::Network net;
  sim::Node& a = net.add_node("a");
  sim::Node& b = net.add_node("b");
  sim::Link& l = net.add_link(a, b, 1.0 * util::kGbps,
                              util::microseconds(10), 64 * 1024 * 1024);
  a.add_route(b.id(), &l);
  struct Count : sim::Agent {
    std::uint64_t n = 0;
    void on_packet(const sim::Packet&) override { ++n; }
  } sink;
  b.attach(1, &sink);
  sim::Packet p;
  p.src = a.id();
  p.dst = b.id();
  p.flow = 1;
  constexpr int kBatch = 512;
  // 512 x 1500 B at 1 Gbps is ~6.1 ms of serialization per batch.
  const util::Duration batch_horizon = util::milliseconds(10);
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      p.seq = i;
      a.send(p);
    }
    net.run_until(net.now() + batch_horizon);
  }
  benchmark::DoNotOptimize(sink.n);
  b.detach(1);
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel("packets/sec");
}
BENCHMARK(BM_LinkPacketTransit);

// End-to-end packets/sec: a full TCP transfer (Cubic sender, per-packet
// ACKs) over a duplex pair of links, counting every data packet and ACK
// that crossed the network. Exercises the whole per-packet path: send ->
// queue -> serialize -> deliver -> agent -> reverse path.
void BM_EndToEndPacketTransit(benchmark::State& state) {
  sim::Network net;
  sim::Node& a = net.add_node("a");
  sim::Node& b = net.add_node("b");
  auto [fwd, rev] = net.add_duplex(a, b, 100.0 * util::kMbps,
                                   util::milliseconds(1), 1'000'000, "e2e");
  a.add_route(b.id(), fwd);
  b.add_route(a.id(), rev);
  tcp::TcpSender sender(net.scheduler(), a, b.id(), 1,
                        std::make_unique<tcp::Cubic>());
  tcp::TcpSink sink(net.scheduler(), b, 1);
  std::uint64_t packets = 0;
  constexpr std::int64_t kSegments = 2000;
  for (auto _ : state) {
    bool done = false;
    tcp::ConnStats stats;
    sender.start_connection(kSegments, [&](const tcp::ConnStats& s) {
      done = true;
      stats = s;
    });
    while (!done) net.run_until(net.now() + util::seconds(1));
    packets += stats.packets_sent;
  }
  packets += sink.acks_sent();
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.SetLabel("packets/sec");
}
BENCHMARK(BM_EndToEndPacketTransit)->Unit(benchmark::kMillisecond);

// Steady-state sender cost of processing one ACK, with the network
// removed entirely: a routeless node discards every data packet the
// sender emits (counted as no_route_drops), and the loop hand-crafts
// cumulative ACKs straight into the agent. Each ACK exercises the full
// sender path — RTT sampling, cwnd update, retransmit-timer re-arm, and
// the transmit burst the freed window allows. ECN is enabled and every
// ACK carries ECE so cwnd follows a bounded sawtooth (one cut per
// window) instead of growing without limit.
void BM_TcpSenderAckClock(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Node node(0, "ackclock");
  tcp::TcpSender sender(sched, node, /*dst=*/1, /*flow=*/1,
                        std::make_unique<tcp::Cubic>());
  sender.set_ecn(true);
  sender.start_connection(std::numeric_limits<std::int64_t>::max() / 2,
                          [](const tcp::ConnStats&) {});
  sim::Packet ack;
  ack.flow = 1;
  ack.conn = 1;
  ack.is_ack = true;
  ack.ece = true;
  std::int64_t acked = 0;
  for (auto _ : state) {
    // 100µs of simulated time per ACK: enough to fire pacing/timer
    // callbacks without the clock outrunning the retransmit timeout.
    sched.run_until(sched.now() + util::microseconds(100));
    ack.ack = ++acked;
    ack.echo = sched.now() > util::milliseconds(100)
                   ? sched.now() - util::milliseconds(100)
                   : 0;
    sender.on_packet(ack);
  }
  benchmark::DoNotOptimize(node.no_route_drops());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("acks/sec");
}
BENCHMARK(BM_TcpSenderAckClock);

// A window policy with the congestion dynamics removed: the scoreboard
// benches hold the in-flight window at a realistic fleet-path size so
// items/sec isolates loss-recovery bookkeeping, not Cubic's sawtooth.
class FixedWindowCc final : public tcp::CongestionControl {
 public:
  explicit FixedWindowCc(double w) : w_(w) {}
  void reset(util::Time) override {}
  void on_ack(std::int64_t, double, util::Time) override {}
  void on_loss_event(util::Time, std::int64_t) override {}
  void on_timeout(util::Time, std::int64_t) override {}
  double window() const override { return w_; }
  double ssthresh() const override { return w_; }
  std::string name() const override { return "fixed"; }

 private:
  double w_;
};

// The lossy counterpart of BM_TcpSenderAckClock: SACK is on and the ACK
// stream replays a recurring loss episode — every 8th segment of a
// ~512-segment in-flight window is "lost", the rest arrive and are
// SACKed in rotating 3-block dup-ACKs (RFC 2018 style), then a
// cumulative ACK closes the episode. Each dup-ACK drives absorb_sack +
// the try_send_sack loop (sack_pipe / next_hole per released segment),
// which is exactly the per-ACK scoreboard cost that dominates
// loss-recovery-heavy fleet runs.
void BM_TcpSenderSackRecovery(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Node node(0, "sackclock");
  tcp::TcpSender sender(sched, node, /*dst=*/1, /*flow=*/1,
                        std::make_unique<FixedWindowCc>(600));
  sender.set_sack(true);
  sender.start_connection(std::numeric_limits<std::int64_t>::max() / 2,
                          [](const tcp::ConnStats&) {});
  sim::Packet ack;
  ack.flow = 1;
  ack.conn = 1;
  ack.is_ack = true;
  std::int64_t una = 0;
  // Rotating cursor over the episode's SACKed runs; persists across
  // episodes so successive dup-ACKs report successive runs, like a real
  // sink walking through the arrival sequence.
  std::int64_t run_cursor = 0;
  const auto feed = [&](std::int64_t cum, int blocks,
                        std::int64_t lo, std::int64_t hi) {
    sched.run_until(sched.now() + util::microseconds(100));
    ack.ack = cum;
    ack.echo = sched.now() > util::milliseconds(100)
                   ? sched.now() - util::milliseconds(100)
                   : 0;
    ack.sack_count = 0;
    for (int b = 0; b < blocks; ++b) {
      // Runs of 7 arrived segments between lost every-8th holes.
      const std::int64_t base =
          lo + ((run_cursor + b) % ((hi - lo) / 8)) * 8;
      ack.sack[ack.sack_count++] = {base + 1, base + 8};
    }
    if (blocks > 0) ++run_cursor;
    sender.on_packet(ack);
  };
  for (auto _ : state) {
    const std::int64_t inflight = sender.segments_in_flight();
    if (inflight < 512) {
      // Refill the fixed window with clean cumulative ACKs (each releases
      // a burst of new data) until the next episode is worth staging.
      feed(++una, 0, 0, 0);
      continue;
    }
    // Loss episode over [una, una+span): every 8th segment lost.
    const std::int64_t span = (inflight / 8) * 8;
    feed(una, 3, una, una + span);
    if (run_cursor % (span / 8) == 0) {
      // Holes retransmitted and delivered: a cumulative ACK closes the
      // episode and the next one stages on fresh data.
      una += span;
      feed(una, 0, 0, 0);
    }
  }
  benchmark::DoNotOptimize(node.no_route_drops());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("acks/sec");
}
BENCHMARK(BM_TcpSenderSackRecovery);

// Sink-side scoreboard cost: deliver a window with every 8th segment
// missing, then fill the holes. Every arrival makes the sink rebuild its
// out-of-order view and emit an ACK carrying up to 3 SACK blocks, so
// items/sec measures the per-packet cost of SACK-block generation with a
// scoreboard full of holes.
void BM_TcpSinkSackAcks(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Node node(0, "sinksack");
  tcp::TcpSink sink(sched, node, /*flow=*/1);
  sink.set_sack(true);
  sim::Packet p;
  p.src = 1;
  p.dst = 0;
  p.flow = 1;
  p.conn = 1;
  constexpr std::int64_t kWindow = 512;
  std::int64_t base = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    // First pass: holes at every 8th seq -> 64 runs on the scoreboard.
    for (std::int64_t s = base; s < base + kWindow; ++s) {
      if ((s - base) % 8 == 0) continue;
      p.seq = s;
      sink.on_packet(p);
      ++delivered;
    }
    // Second pass: fill the holes (each fill collapses a run).
    for (std::int64_t s = base; s < base + kWindow; s += 8) {
      p.seq = s;
      sink.on_packet(p);
      ++delivered;
    }
    base += kWindow;
  }
  benchmark::DoNotOptimize(sink.acks_sent());
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  state.SetLabel("packets/sec");
}
BENCHMARK(BM_TcpSinkSackAcks);

void BM_CubicOnAck(benchmark::State& state) {
  tcp::Cubic cc;
  cc.reset(0);
  util::Time now = 0;
  for (auto _ : state) {
    now += 1000000;
    cc.on_ack(1, 0.15, now);
    benchmark::DoNotOptimize(cc.window());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CubicOnAck);

void BM_WhiskerLookup(benchmark::State& state) {
  remy::WhiskerTree tree({}, 0b1111);
  for (int i = 0; i < 4; ++i) tree.split(tree.size() / 2);  // ~64 whiskers
  remy::SignalVector v{12.0, 15.0, 1.7, 0.4};
  util::Rng rng(1);
  for (auto _ : state) {
    v[0] = rng.uniform(0, 100);
    benchmark::DoNotOptimize(tree.find(v));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(tree.size()) + " whiskers");
}
BENCHMARK(BM_WhiskerLookup);

void BM_ContextServerRoundTrip(benchmark::State& state) {
  core::ContextServer server;
  server.set_path_capacity(1, 15e6);
  util::Time now = 0;
  std::uint64_t sender = 0;
  for (auto _ : state) {
    now += util::kMillisecond;
    const auto reply =
        server.lookup(core::LookupRequest{1, sender, now});
    benchmark::DoNotOptimize(reply);
    core::Report r;
    r.path = 1;
    r.sender_id = sender;
    r.started = now;
    r.ended = now + util::kSecond;
    r.bytes = 100000;
    r.min_rtt_s = 0.15;
    r.mean_rtt_s = 0.18;
    server.report(r);
    sender = (sender + 1) % 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContextServerRoundTrip);

void BM_IpfixSampling(benchmark::State& state) {
  flow::PacketSampler sampler(4096);
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.observe(1 + rng.below(100)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IpfixSampling);

void BM_RedQueueEnqueue(benchmark::State& state) {
  sim::PacketPool pool;
  sim::RedQueue::Config cfg;
  cfg.capacity_bytes = 64 * sim::kSegmentBytes;
  sim::RedQueue q(cfg);
  sim::Packet p;
  p.ect = true;
  util::Time now = 0;
  for (auto _ : state) {
    const sim::PacketHandle h = pool.acquire(p);
    if (!q.enqueue(pool, h, now += 1000)) pool.release(h);
    if (q.packets() > 32) {
      const sim::Queued d = q.dequeue();
      if (d.handle != sim::kNullPacket) pool.release(d.handle);
      benchmark::DoNotOptimize(d.size_bytes);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedQueueEnqueue);

void BM_SecureAggShare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto seeds = core::derive_pairwise_seeds(n, 0xABCD);
  core::SecureParticipant p(0, seeds[0]);
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.masked_share(0.5, ++round));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(n) + " participants");
}
BENCHMARK(BM_SecureAggShare)->Arg(4)->Arg(64);

void BM_PearsonCorrelation(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<double> a, b;
  for (int i = 0; i < 600; ++i) {
    a.push_back(rng.uniform());
    b.push_back(rng.uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::pearson(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 600);
}
BENCHMARK(BM_PearsonCorrelation);

void BM_SpaceSavingAdd(benchmark::State& state) {
  util::Rng rng(5);
  util::ZipfSampler zipf(100000, 1.1);
  flow::SpaceSaving<std::size_t> ss(1000);
  for (auto _ : state) {
    ss.add(zipf(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingAdd);

void BM_MiniScenario(benchmark::State& state) {
  for (auto _ : state) {
    core::ScenarioConfig cfg;
    cfg.net.pairs = 4;
    cfg.workload.mean_on_bytes = 100e3;
    cfg.workload.mean_off_s = 0.5;
    cfg.duration = util::seconds(10);
    benchmark::DoNotOptimize(
        core::run_cubic_scenario(cfg, tcp::CubicParams{}));
  }
}
BENCHMARK(BM_MiniScenario)->Unit(benchmark::kMillisecond);

// The sharding headline: one parking-lot churn scenario run end to end at
// 1/2/4 shards. Items processed = simulator events dispatched, which a
// deterministic sharded run executes in exactly the serial count — so
// items/sec compares engine throughput directly across shard counts.
// On a single-core host this measures sharding overhead (barriers,
// boundary copies) rather than speedup; see BENCH_PR8.json.
void BM_ShardedEndToEndPacketTransit(benchmark::State& state) {
  core::ScenarioSpec spec;
  sim::ParkingLotConfig lot;
  lot.hops = 3;
  lot.cross_per_hop = 2;
  lot.long_flows = 1;
  spec.topology = lot;
  spec.workload.mean_on_bytes = 150e3;
  spec.workload.mean_off_s = 0.5;
  spec.duration = util::seconds(10);
  spec.seed = 7;
  spec.sharding.shards = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  int shards_used = 0;
  for (auto _ : state) {
    core::ScenarioMetrics m = core::run_cubic_scenario(spec, tcp::CubicParams{});
    events += m.events_executed;
    shards_used = m.shards_used;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("events/sec @" + std::to_string(shards_used) + " shard(s)");
}
BENCHMARK(BM_ShardedEndToEndPacketTransit)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
