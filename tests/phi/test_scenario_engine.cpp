// The topology-generic scenario engine: default and explicit (grouped)
// ScenarioSpec populations, parking-lot runs, bulk probe senders,
// zero-activity group accounting, fault wiring, and the preset registry
// + override grammar behind tools/run_scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "phi/context_server.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"

namespace phi::core {
namespace {

ScenarioSpec small_dumbbell_spec() {
  ScenarioSpec spec;
  spec.topology = sim::DumbbellConfig{.pairs = 4};
  spec.workload.mean_on_bytes = 200e3;
  spec.workload.mean_off_s = 1.0;
  spec.duration = util::seconds(20);
  spec.seed = 7;
  return spec;
}

TEST(ScenarioEngine, DefaultPopulationIsOneSenderPerEndpoint) {
  const ScenarioMetrics m =
      run_cubic_scenario(small_dumbbell_spec(), tcp::CubicParams{});
  ASSERT_EQ(m.per_sender.size(), 4u);
  ASSERT_EQ(m.paths.size(), 1u);
  EXPECT_GT(m.throughput_bps, 0.0);
  for (std::size_t i = 0; i < m.per_sender.size(); ++i) {
    EXPECT_EQ(m.per_sender[i].endpoint, i);
    EXPECT_EQ(m.per_sender[i].flow, sim::FlowId(1000 + i));
    EXPECT_EQ(m.per_sender[i].group, -1);
  }
}

TEST(ScenarioEngine, GroupedExplicitPopulationMatchesDefault) {
  // Listing the default population explicitly, with reporting groups,
  // changes no sender's traffic, and the group rows add up to the whole.
  const ScenarioSpec plain = small_dumbbell_spec();
  ScenarioSpec grouped = plain;
  for (std::size_t i = 0; i < 4; ++i)
    grouped.senders.push_back(
        {.endpoint = i, .group = static_cast<int>(i % 2)});

  const ScenarioMetrics a = run_cubic_scenario(plain, tcp::CubicParams{});
  const ScenarioMetrics b = run_cubic_scenario(grouped, tcp::CubicParams{});
  EXPECT_TRUE(a.groups.empty());
  ASSERT_EQ(a.per_sender.size(), 4u);
  ASSERT_EQ(b.per_sender.size(), 4u);
  std::int64_t conns_by_group[2] = {0, 0};
  for (std::size_t i = 0; i < 4; ++i) {
    const SenderMetrics& x = a.per_sender[i];
    const SenderMetrics& y = b.per_sender[i];
    EXPECT_EQ(x.group, -1);
    EXPECT_EQ(y.group, static_cast<int>(i % 2));
    EXPECT_EQ(x.endpoint, y.endpoint);
    EXPECT_EQ(x.flow, y.flow);
    EXPECT_EQ(x.bits, y.bits);
    EXPECT_EQ(x.on_time_s, y.on_time_s);
    EXPECT_EQ(x.connections, y.connections);
    EXPECT_EQ(x.rtt_mean_s, y.rtt_mean_s);
    EXPECT_EQ(x.rtt_count, y.rtt_count);
    EXPECT_EQ(x.rtt_min_s, y.rtt_min_s);
    EXPECT_EQ(x.retransmits, y.retransmits);
    EXPECT_EQ(x.packets_sent, y.packets_sent);
    EXPECT_EQ(x.timeouts, y.timeouts);
    EXPECT_EQ(x.live_bits, y.live_bits);
    EXPECT_EQ(x.srtt_s, y.srtt_s);
    conns_by_group[i % 2] += y.connections;
  }
  EXPECT_EQ(a.throughput_bps, b.throughput_bps);
  EXPECT_EQ(a.mean_rtt_s, b.mean_rtt_s);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.events_executed, b.events_executed);

  ASSERT_EQ(b.groups.size(), 2u);
  EXPECT_EQ(b.groups[0].connections, conns_by_group[0]);
  EXPECT_EQ(b.groups[1].connections, conns_by_group[1]);
  EXPECT_EQ(b.groups[0].connections + b.groups[1].connections,
            b.connections);
}

TEST(ScenarioEngine, ParkingLotSpecRunsPerPathMetrics) {
  ScenarioSpec spec;
  spec.topology = sim::ParkingLotConfig{.hops = 2, .cross_per_hop = 2,
                                        .long_flows = 1};
  spec.workload.mean_on_bytes = 300e3;
  spec.workload.mean_off_s = 1.0;
  spec.duration = util::seconds(20);
  spec.seed = 3;

  const ScenarioMetrics m = run_cubic_scenario(spec, tcp::CubicParams{});
  ASSERT_EQ(m.per_sender.size(), 5u);
  ASSERT_EQ(m.paths.size(), 2u);
  EXPECT_GT(m.throughput_bps, 0.0);
  for (const auto& p : m.paths) {
    EXPECT_GE(p.utilization, 0.0);
    EXPECT_LE(p.utilization, 1.05);
    EXPECT_TRUE(std::isfinite(p.mean_queue_delay_s));
  }
}

TEST(ScenarioEngine, BulkSenderTransfersAndDrawsNoSeed) {
  // A population mixing one bulk probe with one on/off sender; the probe
  // must complete bits without disturbing the on/off sender's seeding
  // (bulk senders draw nothing, so the on/off draw matches a population
  // where the probe slot simply doesn't exist in the seed stream).
  ScenarioSpec spec = small_dumbbell_spec();
  spec.senders = {
      SenderSpec{.endpoint = 0, .flow = 1, .bulk_segments = 2000, .group = 0},
      SenderSpec{.endpoint = 1, .flow = 2, .group = 1},
  };

  const ScenarioMetrics m = run_cubic_scenario(spec, tcp::CubicParams{});
  ASSERT_EQ(m.per_sender.size(), 2u);
  EXPECT_GE(m.per_sender[0].connections, 1);
  EXPECT_GT(m.per_sender[0].bits, 0.0);
  EXPECT_GT(m.per_sender[1].bits, 0.0);
  ASSERT_EQ(m.groups.size(), 2u);
}

TEST(ScenarioEngine, ZeroActivityGroupReportsZerosNotNaN) {
  // Group 1's sender starts "off" with a ~1e9 s mean off period: it will
  // not complete (or start) a connection in 10 s. Its group row must be
  // all finite zeros, never NaN from a 0/0.
  tcp::OnOffConfig idle;
  idle.mean_on_bytes = 100e3;
  idle.mean_off_s = 1e9;
  idle.start_with_off = true;

  ScenarioSpec spec = small_dumbbell_spec();
  spec.duration = util::seconds(10);
  spec.senders = {
      SenderSpec{.endpoint = 0, .group = 0},
      SenderSpec{.endpoint = 1, .workload = idle, .group = 1},
  };

  const ScenarioMetrics m = run_cubic_scenario(spec, tcp::CubicParams{});
  ASSERT_EQ(m.groups.size(), 2u);
  const GroupMetrics& idle_g = m.groups[1];
  EXPECT_EQ(idle_g.group, 1);
  EXPECT_EQ(idle_g.connections, 0);
  EXPECT_EQ(idle_g.throughput_bps, 0.0);
  EXPECT_EQ(idle_g.mean_rtt_s, 0.0);
  EXPECT_EQ(idle_g.retransmit_rate, 0.0);
  EXPECT_TRUE(std::isfinite(idle_g.throughput_bps));
  EXPECT_TRUE(std::isfinite(idle_g.mean_rtt_s));
  EXPECT_TRUE(std::isfinite(idle_g.retransmit_rate));
}

TEST(ScenarioEngine, FaultInjectorOfferedOnlyWhenSpecHasFaults) {
  ScenarioSpec spec = small_dumbbell_spec();
  spec.duration = util::seconds(5);
  spec.faults = FaultConfig{.drop_report = 0.5, .seed = 9};

  std::optional<ContextServer> server;
  FaultInjector* first = nullptr;
  FaultInjector* second = nullptr;
  run_scenario_with_setup(
      spec, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](LiveScenario& live) -> AdvisorFactory {
        server.emplace(ContextServerConfig{},
                       [&live] { return live.topology->scheduler().now(); });
        first = live.fault_injector(*server);
        second = live.fault_injector(*server);
        return nullptr;
      });
  EXPECT_NE(first, nullptr);
  EXPECT_EQ(first, second) << "engine must build the injector once";

  // Without a fault plan the engine offers nothing.
  spec.faults.reset();
  FaultInjector* none = reinterpret_cast<FaultInjector*>(&spec);
  run_scenario_with_setup(
      spec, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](LiveScenario& live) -> AdvisorFactory {
        none = live.fault_injector(*server);
        return nullptr;
      });
  EXPECT_EQ(none, nullptr);
}

TEST(ScenarioPresets, RegistryCoversBothTopologyClassesUniquely) {
  const auto& reg = presets::registry();
  ASSERT_GE(reg.size(), 4u);
  bool saw_dumbbell = false;
  bool saw_lot = false;
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_FALSE(reg[i].name.empty());
    EXPECT_FALSE(reg[i].summary.empty());
    const char* cls = sim::topology_class(reg[i].spec.topology);
    saw_dumbbell |= std::string(cls) == "dumbbell";
    saw_lot |= std::string(cls) == "parking-lot";
    for (std::size_t j = i + 1; j < reg.size(); ++j)
      EXPECT_NE(reg[i].name, reg[j].name);
    EXPECT_EQ(presets::find(reg[i].name), &reg[i]);
  }
  EXPECT_TRUE(saw_dumbbell);
  EXPECT_TRUE(saw_lot);
  EXPECT_EQ(presets::find("no-such-preset"), nullptr);
}

TEST(ScenarioPresets, OverridesMutateAndValidate) {
  ScenarioSpec spec = presets::find("dumbbell-paper")->spec;
  std::string err;

  ASSERT_TRUE(presets::apply_override(spec, "seed=42", &err)) << err;
  ASSERT_TRUE(presets::apply_override(spec, "duration_s=7.5", &err)) << err;
  ASSERT_TRUE(presets::apply_override(spec, "pairs=12", &err)) << err;
  ASSERT_TRUE(presets::apply_override(spec, "rate_mbps=30", &err)) << err;
  ASSERT_TRUE(presets::apply_override(spec, "queue=red-ecn", &err)) << err;
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.duration, util::from_seconds(7.5));
  const auto& net = std::get<sim::DumbbellConfig>(spec.topology);
  EXPECT_EQ(net.pairs, 12u);
  EXPECT_DOUBLE_EQ(net.bottleneck_rate, 30.0 * util::kMbps);
  EXPECT_EQ(net.queue, sim::DumbbellConfig::Queue::kRedEcn);

  // Rejections: unknown key, malformed value, wrong topology class, and
  // shape changes to a preset that pins an explicit sender list.
  EXPECT_FALSE(presets::apply_override(spec, "bogus=1", &err));
  EXPECT_FALSE(presets::apply_override(spec, "pairs=zero", &err));
  EXPECT_FALSE(presets::apply_override(spec, "hops=3", &err));
  ScenarioSpec pinned = presets::find("parking-hotcold")->spec;
  ASSERT_FALSE(pinned.senders.empty());
  EXPECT_FALSE(presets::apply_override(pinned, "cross_per_hop=4", &err));
  EXPECT_TRUE(presets::apply_override(pinned, "hop_rate_mbps=20", &err))
      << err;

  // Numbers that are not finite, not whole where a count or seed is
  // wanted, or too large to convert fail and leave the spec alone.
  for (const char* bad :
       {"duration_s=nan", "duration_s=inf", "warmup_s=-inf", "seed=1e30",
        "seed=-1", "seed=2.5", "pairs=2.5", "pairs=1e30", "rate_mbps=nan",
        "rtt_ms=inf", "rtt_ms=1e300", "jitter_ms=nan", "churn_per_s=nan",
        "churn_cap=1e30"})
    EXPECT_FALSE(presets::apply_override(spec, bad, &err)) << bad;
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.duration, util::from_seconds(7.5));
  EXPECT_EQ(std::get<sim::DumbbellConfig>(spec.topology).pairs, 12u);
  ScenarioSpec wan = presets::find("wan-churn")->spec;
  EXPECT_FALSE(presets::apply_override(wan, "wan_seed=1e30", &err));

  // Millisecond keys keep their fractions; whole values stay exact.
  ScenarioSpec ms = presets::find("dumbbell-low-util")->spec;
  const auto& dumb = std::get<sim::DumbbellConfig>(ms.topology);
  ASSERT_TRUE(presets::apply_override(ms, "rtt_ms=150.5", &err)) << err;
  EXPECT_EQ(dumb.rtt, 150'500'000);
  ASSERT_TRUE(presets::apply_override(ms, "rtt_ms=0.5", &err)) << err;
  EXPECT_EQ(dumb.rtt, 500'000);
  ASSERT_TRUE(presets::apply_override(ms, "jitter_ms=0.4", &err)) << err;
  EXPECT_EQ(dumb.bottleneck_jitter, 400'000);
  ASSERT_TRUE(presets::apply_override(ms, "rtt_ms=150", &err)) << err;
  EXPECT_EQ(dumb.rtt, util::milliseconds(150));
}

}  // namespace
}  // namespace phi::core
