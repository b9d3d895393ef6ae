// Deterministic intra-run sharding: per-window boundary-channel
// mechanics (parity separation, FIFO order, reuse), the
// auto-partitioner's cut selection and serial fallbacks, the scenario
// engine's sharded-mode gating, and the headline determinism contract —
// multi-seed random churn must produce byte-identical ScenarioMetrics at
// shard counts 1, 2 and 4 on both dumbbell and parking-lot topologies.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "phi/scenario.hpp"
#include "sim/network.hpp"
#include "sim/sharding.hpp"
#include "sim/topology.hpp"
#include "phi/fault_injection.hpp"
#include "sim/parking_lot.hpp"
#include "tcp/cc.hpp"

namespace phi::sim {
namespace {

BoundaryMessage msg(util::Time arrival, std::uint64_t seq) {
  BoundaryMessage m;
  m.arrival = arrival;
  m.seq = seq;
  m.src_shard = 0;
  m.link = nullptr;
  m.pkt = Packet{};
  return m;
}

TEST(BoundaryChannel, EachParityDrainsItsOwnPushesInOrder) {
  // Interleaved pushes to both window parities: each drain must return
  // exactly its own parity's messages, in push order, none lost or
  // duplicated, and leave that buffer empty.
  BoundaryChannel ch;
  for (std::uint64_t i = 0; i < 20; ++i)
    ch.push(static_cast<unsigned>(i & 1), msg(util::Time(i), i));
  EXPECT_EQ(ch.pushed(), 20u);

  for (const unsigned parity : {0u, 1u}) {
    std::vector<std::uint64_t> seqs;
    ch.drain(parity,
             [&](const BoundaryMessage& m) { seqs.push_back(m.seq); });
    ASSERT_EQ(seqs.size(), 10u) << "parity " << parity;
    for (std::size_t k = 0; k < seqs.size(); ++k)
      EXPECT_EQ(seqs[k], 2 * k + parity) << "parity " << parity;
    std::size_t again = 0;
    ch.drain(parity, [&](const BoundaryMessage&) { ++again; });
    EXPECT_EQ(again, 0u) << "parity " << parity << " not emptied";
  }

  // A drained buffer is reused by a later window of the same parity,
  // and the other parity stays empty.
  ch.push(0, msg(7, 42));
  std::vector<std::uint64_t> seqs;
  ch.drain(1, [&](const BoundaryMessage& m) { seqs.push_back(m.seq); });
  EXPECT_TRUE(seqs.empty());
  ch.drain(0, [&](const BoundaryMessage& m) { seqs.push_back(m.seq); });
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0], 42u);
  EXPECT_EQ(ch.pushed(), 21u);
}

TEST(ShardPlanner, DumbbellTwoWayCutIsTheBottleneck) {
  // rtt=150ms, edge_delay=1ms per hop each way -> bottleneck one-way
  // propagation is 150/2 - 2*1 = 73ms. The two-shard cut must be the
  // duplex bottleneck pair (the highest-latency links), giving the
  // widest possible lookahead window.
  Dumbbell d{DumbbellConfig{.pairs = 4}};
  const ShardPlan plan = plan_shards(d.net(), 2);
  ASSERT_EQ(plan.shards, 2);
  EXPECT_EQ(plan.window, util::milliseconds(73));
  EXPECT_EQ(plan.cut_links, 2u);  // bottleneck forward + reverse
  const auto& links = d.net().links();
  ASSERT_EQ(plan.link_cut.size(), links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (plan.link_cut[i])
      EXPECT_EQ(links[i]->propagation_delay(), util::milliseconds(73));
  }
  // Every sender lands with its router; every receiver with the other.
  ASSERT_EQ(plan.node_shard.size(), d.net().node_count());
  for (std::size_t i = 0; i < d.pairs(); ++i) {
    EXPECT_EQ(plan.node_shard[d.sender(i).id()],
              plan.node_shard[d.sender(0).id()]);
    EXPECT_EQ(plan.node_shard[d.receiver(i).id()],
              plan.node_shard[d.receiver(0).id()]);
    EXPECT_NE(plan.node_shard[d.sender(i).id()],
              plan.node_shard[d.receiver(i).id()]);
  }
}

TEST(ShardPlanner, RequestAboveFeasibleComponentsIsClamped) {
  // Two nodes connected by a duplex pair can split at most two ways.
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.add_duplex(a, b, util::kMbps, util::milliseconds(5), 64000);
  const ShardPlan plan = plan_shards(net, 8);
  EXPECT_EQ(plan.shards, 2);
  EXPECT_EQ(plan.window, util::milliseconds(5));
  EXPECT_NE(plan.node_shard[a.id()], plan.node_shard[b.id()]);
}

TEST(ShardPlanner, ZeroDelayCutFallsBackToSerial) {
  // Every possible cut crosses a zero-propagation link: zero lookahead
  // admits no conservative parallelism, so the plan degrades to serial.
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.add_duplex(a, b, util::kMbps, 0, 64000);
  const ShardPlan plan = plan_shards(net, 2);
  EXPECT_EQ(plan.shards, 1);
  EXPECT_EQ(plan.cut_links, 0u);
}

TEST(ShardPlanner, SingleNodeIsSerial) {
  Network net;
  net.add_node("only");
  EXPECT_EQ(plan_shards(net, 4).shards, 1);
}

// ---------------------------------------------------------------------------
// Scenario-engine integration: gating and the determinism contract.

core::ScenarioSpec churn_spec(std::uint64_t seed, int shards) {
  core::ScenarioSpec spec;
  spec.topology = DumbbellConfig{.pairs = 4};
  spec.workload.mean_on_bytes = 150e3;
  spec.workload.mean_off_s = 0.5;
  spec.duration = util::seconds(12);
  spec.warmup = util::seconds(2);
  spec.seed = seed;
  spec.sharding.shards = shards;
  return spec;
}

TEST(ShardedScenario, RejectsFeaturesThatObserveCrossShardState) {
  core::ScenarioSpec spec = churn_spec(1, 2);
  spec.telemetry.trace_one_in = 64;
  EXPECT_THROW(run_cubic_scenario(spec, tcp::CubicParams{}),
               std::invalid_argument);

  spec = churn_spec(1, 2);
  spec.telemetry.timeseries_dt = util::milliseconds(100);
  EXPECT_THROW(run_cubic_scenario(spec, tcp::CubicParams{}),
               std::invalid_argument);

  spec = churn_spec(1, 2);
  spec.faults = core::FaultConfig{};
  EXPECT_THROW(run_cubic_scenario(spec, tcp::CubicParams{}),
               std::invalid_argument);

  spec = churn_spec(1, 2);
  EXPECT_THROW(
      core::run_scenario(
          spec,
          [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
          [](std::size_t) -> std::unique_ptr<tcp::ConnectionAdvisor> {
            return nullptr;
          }),
      std::invalid_argument);
}

void expect_identical(const core::ScenarioMetrics& a,
                      const core::ScenarioMetrics& b, int shards) {
  // Bit-exact double comparison on purpose: the determinism contract is
  // byte identity with the serial run, not approximate agreement.
  EXPECT_EQ(a.throughput_bps, b.throughput_bps) << shards << " shards";
  EXPECT_EQ(a.mean_queue_delay_s, b.mean_queue_delay_s);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_rtt_s, b.mean_rtt_s);
  EXPECT_EQ(a.min_rtt_s, b.min_rtt_s);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.timeouts, b.timeouts);
  // A sharded run executes exactly the serial event count: every
  // delivery, tx-complete and timer fires once, whichever shard.
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.per_sender.size(), b.per_sender.size());
  for (std::size_t i = 0; i < a.per_sender.size(); ++i) {
    const auto& x = a.per_sender[i];
    const auto& y = b.per_sender[i];
    EXPECT_EQ(x.bits, y.bits) << "sender " << i << ", " << shards
                              << " shards";
    EXPECT_EQ(x.on_time_s, y.on_time_s);
    EXPECT_EQ(x.connections, y.connections);
    EXPECT_EQ(x.rtt_mean_s, y.rtt_mean_s);
    EXPECT_EQ(x.rtt_min_s, y.rtt_min_s);
    EXPECT_EQ(x.retransmits, y.retransmits);
    EXPECT_EQ(x.packets_sent, y.packets_sent);
    EXPECT_EQ(x.timeouts, y.timeouts);
    EXPECT_EQ(x.live_bits, y.live_bits);
    EXPECT_EQ(x.srtt_s, y.srtt_s);
  }
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].mean_queue_delay_s, b.paths[i].mean_queue_delay_s);
    EXPECT_EQ(a.paths[i].loss_rate, b.paths[i].loss_rate);
    EXPECT_EQ(a.paths[i].utilization, b.paths[i].utilization);
    EXPECT_EQ(a.paths[i].bytes_transmitted, b.paths[i].bytes_transmitted);
  }
}

TEST(ShardedScenario, DumbbellChurnIsByteIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 42ull, 977ull}) {
    const core::ScenarioMetrics serial =
        run_cubic_scenario(churn_spec(seed, 1), tcp::CubicParams{});
    EXPECT_EQ(serial.shards_used, 1);
    EXPECT_EQ(serial.boundary_messages, 0u);
    for (const int shards : {2, 4}) {
      const core::ScenarioMetrics sharded =
          run_cubic_scenario(churn_spec(seed, shards), tcp::CubicParams{});
      EXPECT_EQ(sharded.shards_used, shards) << "seed " << seed;
      EXPECT_GT(sharded.boundary_messages, 0u);
      expect_identical(serial, sharded, shards);
    }
  }
}

TEST(ShardedScenario, ParkingLotChurnIsByteIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {3ull, 1009ull}) {
    core::ScenarioSpec spec;
    spec.topology =
        ParkingLotConfig{.hops = 3, .cross_per_hop = 2, .long_flows = 1};
    spec.workload.mean_on_bytes = 200e3;
    spec.workload.mean_off_s = 0.5;
    spec.duration = util::seconds(10);
    spec.seed = seed;

    const core::ScenarioMetrics serial =
        run_cubic_scenario(spec, tcp::CubicParams{});
    for (const int shards : {2, 4}) {
      spec.sharding.shards = shards;
      const core::ScenarioMetrics sharded =
          run_cubic_scenario(spec, tcp::CubicParams{});
      EXPECT_GT(sharded.shards_used, 1) << "seed " << seed;
      expect_identical(serial, sharded, shards);
    }
  }
}

TEST(ShardedScenario, EcnRedDumbbellStaysDeterministic) {
  // RED+ECN exercises marking decisions that depend on queue state —
  // the most timing-sensitive datapath the dumbbell offers.
  core::ScenarioSpec spec = churn_spec(11, 1);
  auto& cfg = std::get<DumbbellConfig>(spec.topology);
  cfg.queue = DumbbellConfig::Queue::kRedEcn;
  spec.ecn = true;
  const core::ScenarioMetrics serial =
      run_cubic_scenario(spec, tcp::CubicParams{});
  spec.sharding.shards = 2;
  const core::ScenarioMetrics sharded =
      run_cubic_scenario(spec, tcp::CubicParams{});
  EXPECT_EQ(sharded.shards_used, 2);
  expect_identical(serial, sharded, 2);
}

TEST(ShardedScenario, BoundaryBuffersGrowMidRunAndStayDeterministic) {
  // Every sender opens with an off period, so the first windows carry no
  // boundary traffic and the per-window buffers start empty; they grow
  // only once flows start and ramp through slow start, so later windows
  // carry more than any earlier one. The quiet start is checked, not
  // assumed: a 4-shard run cut off after it crosses nothing.
  core::ScenarioSpec spec = churn_spec(5, 4);
  spec.workload.mean_off_s = 2.0;
  spec.workload.mean_on_bytes = 1e6;
  spec.warmup = 0;
  spec.duration = util::milliseconds(100);
  const core::ScenarioMetrics quiet =
      run_cubic_scenario(spec, tcp::CubicParams{});
  ASSERT_EQ(quiet.shards_used, 4);
  ASSERT_EQ(quiet.boundary_messages, 0u);

  spec.duration = util::seconds(10);
  const core::ScenarioMetrics sharded =
      run_cubic_scenario(spec, tcp::CubicParams{});
  EXPECT_GT(sharded.boundary_messages, 0u);
  spec.sharding.shards = 1;
  const core::ScenarioMetrics serial =
      run_cubic_scenario(spec, tcp::CubicParams{});
  expect_identical(serial, sharded, 4);
}

TEST(ShardedScenario, InfeasiblePlanFallsBackToSerialResults) {
  // A request the partitioner cannot honor must run serially and still
  // produce the serial numbers (shards_used reports the fallback).
  core::ScenarioSpec spec = churn_spec(9, 1);
  const core::ScenarioMetrics serial =
      run_cubic_scenario(spec, tcp::CubicParams{});
  // pairs=4 dumbbell has 10 nodes; ask for more shards than feasible
  // components once only zero-delay edge links could be cut further.
  spec.sharding.shards = 64;
  const core::ScenarioMetrics sharded =
      run_cubic_scenario(spec, tcp::CubicParams{});
  expect_identical(serial, sharded, sharded.shards_used);
}

}  // namespace
}  // namespace phi::sim
