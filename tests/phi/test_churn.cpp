// Open-loop flow churn through the scenario engine (phi/churn.hpp):
// trace-driven dynamic sessions over a generated topology, per-flow FCT
// accounting, sender retirement after the trace drains, serial-vs-
// sharded bit-identity, the churn half of the preset override grammar,
// and the session table: slot chains, in-place aggregation and the
// range guards of its narrow fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "phi/churn.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "tcp/cc.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "util/rng.hpp"

namespace phi::core {
namespace {

ScenarioSpec small_churn_spec() {
  ScenarioSpec spec;
  spec.topology = sim::FatTreeConfig{};  // k = 4, 16 endpoints
  spec.duration = util::seconds(2);
  spec.warmup = util::from_seconds(0.5);
  spec.seed = 11;
  spec.churn.arrivals_per_s = 400;
  return spec;
}

PolicyFactory cubic() {
  return [](std::size_t) { return std::make_unique<tcp::Cubic>(); };
}

TEST(Churn, OpenLoopRunPopulatesChurnMetrics) {
  const ScenarioMetrics m = run_scenario(small_churn_spec(), cubic());
  ASSERT_TRUE(m.churn.enabled);
  // ~400/s over the 2.5 s horizon (warmup + duration).
  EXPECT_GT(m.churn.offered, 800u);
  EXPECT_LT(m.churn.offered, 1200u);
  EXPECT_GT(m.churn.completed, 0u);
  EXPECT_LE(m.churn.measured, m.churn.completed);
  EXPECT_LE(m.churn.completed, m.churn.started);
  EXPECT_LE(m.churn.started, m.churn.offered);
  EXPECT_GT(m.churn.fct_p50_s, 0.0);
  EXPECT_GE(m.churn.fct_p90_s, m.churn.fct_p50_s);
  EXPECT_GE(m.churn.fct_p99_s, m.churn.fct_p90_s);
  EXPECT_GT(m.churn.goodput_bps, 0.0);
}

TEST(Churn, SerialAndShardedRunsAreBitIdentical) {
  const ScenarioMetrics serial = run_scenario(small_churn_spec(), cubic());
  ScenarioSpec sharded_spec = small_churn_spec();
  sharded_spec.sharding.shards = 2;
  const ScenarioMetrics sharded = run_scenario(sharded_spec, cubic());
  EXPECT_GT(sharded.shards_used, 1);

  EXPECT_EQ(serial.churn.offered, sharded.churn.offered);
  EXPECT_EQ(serial.churn.started, sharded.churn.started);
  EXPECT_EQ(serial.churn.completed, sharded.churn.completed);
  EXPECT_EQ(serial.churn.measured, sharded.churn.measured);
  EXPECT_EQ(serial.churn.deferred, sharded.churn.deferred);
  EXPECT_EQ(serial.churn.retransmits, sharded.churn.retransmits);
  EXPECT_EQ(serial.churn.timeouts, sharded.churn.timeouts);
  EXPECT_DOUBLE_EQ(serial.churn.fct_p50_s, sharded.churn.fct_p50_s);
  EXPECT_DOUBLE_EQ(serial.churn.fct_p90_s, sharded.churn.fct_p90_s);
  EXPECT_DOUBLE_EQ(serial.churn.fct_p99_s, sharded.churn.fct_p99_s);
  EXPECT_DOUBLE_EQ(serial.churn.fct_mean_s, sharded.churn.fct_mean_s);
  EXPECT_DOUBLE_EQ(serial.churn.wait_mean_s, sharded.churn.wait_mean_s);
  EXPECT_DOUBLE_EQ(serial.churn.goodput_bps, sharded.churn.goodput_bps);
  EXPECT_DOUBLE_EQ(serial.throughput_bps, sharded.throughput_bps);
}

TEST(Churn, SendersRetireOnceTheTraceDrains) {
  // Cap the trace so every session finishes well before the horizon;
  // at on_complete time every slot sender must be idle again and every
  // session must have a recorded completion.
  ScenarioSpec spec = small_churn_spec();
  spec.warmup = 0;
  spec.churn.max_sessions = 50;

  std::size_t live_slots = 0;
  std::size_t busy_at_end = 999;
  auto setup = [&](LiveScenario& live) -> AdvisorFactory {
    live_slots = live.churn_senders.size();
    EXPECT_EQ(live.churn_senders.size(), live.churn_endpoints.size());
    live.on_complete = [&] {
      busy_at_end = 0;
      for (const tcp::TcpSender* s : live.churn_senders) {
        if (s->busy()) ++busy_at_end;
      }
    };
    return nullptr;
  };
  const ScenarioMetrics m = run_scenario_with_setup(spec, cubic(), setup);

  EXPECT_GT(live_slots, 0u);
  EXPECT_EQ(busy_at_end, 0u);
  EXPECT_EQ(m.churn.offered, 50u);
  EXPECT_EQ(m.churn.started, 50u);
  EXPECT_EQ(m.churn.completed, 50u);
  EXPECT_EQ(m.churn.measured, 50u);
}

TEST(Churn, ChurnOverridesApplyAndRejectWithKeyList) {
  const presets::Preset* p = presets::find("fat_tree_churn");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name, "fat-tree-churn");
  EXPECT_EQ(presets::find("no-such-preset"), nullptr);

  ScenarioSpec spec = p->spec;
  std::string err;
  ASSERT_TRUE(presets::apply_override(spec, "churn_per_s=250", &err)) << err;
  EXPECT_DOUBLE_EQ(spec.churn.arrivals_per_s, 250.0);
  ASSERT_TRUE(presets::apply_override(spec, "churn_cap=1000", &err)) << err;
  EXPECT_EQ(spec.churn.max_sessions, 1000u);

  EXPECT_FALSE(presets::apply_override(spec, "bogus_knob=1", &err));
  EXPECT_NE(err.find("valid keys"), std::string::npos);
  EXPECT_NE(err.find("churn_per_s"), std::string::npos);
  EXPECT_NE(err.find("k"), std::string::npos);

  // Keys from another topology class name the class in the rejection.
  const presets::Preset* wan = presets::find("wan-churn");
  ASSERT_NE(wan, nullptr);
  ScenarioSpec wspec = wan->spec;
  EXPECT_FALSE(presets::apply_override(wspec, "k=6", &err));
  EXPECT_NE(err.find("wan"), std::string::npos);
}

TEST(Churn, WanChurnPresetRunsAtReducedScale) {
  const presets::Preset* p = presets::find("wan-churn");
  ASSERT_NE(p, nullptr);
  ScenarioSpec spec = p->spec;
  std::string err;
  ASSERT_TRUE(presets::apply_override(spec, "duration_s=1", &err)) << err;
  ASSERT_TRUE(presets::apply_override(spec, "churn_per_s=200", &err)) << err;
  spec.warmup = 0;
  const ScenarioMetrics m = run_scenario(spec, cubic());
  EXPECT_TRUE(m.churn.enabled);
  EXPECT_GT(m.churn.completed, 0u);
  EXPECT_GT(m.churn.goodput_bps, 0.0);
}

TEST(Churn, SpecsBeyondTheSessionRowThrowBeforeGenerating) {
  // A row holds a uint32 chain index and an int32 segment count. Specs
  // that cannot fit are refused from the spec alone: generating them
  // first would try to allocate without bound.
  ScenarioSpec spec = small_churn_spec();
  spec.warmup = 0;
  spec.duration = util::seconds(30);
  spec.churn.arrivals_per_s = 1e12;  // 3e13 sessions
  EXPECT_THROW(run_scenario(spec, cubic()), std::invalid_argument);

  spec = small_churn_spec();
  spec.churn.max_bytes = 1e13;  // 6.8e9 segments
  EXPECT_THROW(run_scenario(spec, cubic()), std::invalid_argument);

  // Swapped size bounds: the bounded Pareto needs min_bytes < max_bytes.
  spec = small_churn_spec();
  spec.churn.min_bytes = 3e6;
  spec.churn.max_bytes = 2e6;
  EXPECT_THROW(run_scenario(spec, cubic()), std::invalid_argument);
}

/// `at_ms`-arrival, `segments`-long session for hand-built tables.
flow::Session session(double at_ms, std::int64_t segments) {
  flow::Session s;
  s.at_s = at_ms / 1e3;
  s.bytes = segments * sim::kDefaultMss;
  return s;
}

TEST(ChurnSessions, InterleavedSlotsLaunchAndWriteOnlyTheirOwnRows) {
  // Two slots share one table, their rows interleaved: A owns rows 0, 2,
  // 4; B owns 1, 3, 5 (row 5 arrives after the run); row 6 heads a chain
  // no slot walks. Sessions last longer than the gaps between arrivals,
  // so each slot queues its own rows and must replay them in order.
  sim::Network net;
  sim::Node& a = net.add_node("tx");
  sim::Node& b = net.add_node("rx");
  sim::Link& fwd = net.add_link(a, b, 1.0 * util::kGbps,
                                util::microseconds(50), 1024 * 1024);
  sim::Link& rev = net.add_link(b, a, 1.0 * util::kGbps,
                                util::microseconds(50), 1024 * 1024);
  a.add_route(b.id(), &fwd);
  b.add_route(a.id(), &rev);
  tcp::TcpSink sink_a(net.scheduler(), b, /*flow=*/7);
  tcp::TcpSink sink_b(net.scheduler(), b, /*flow=*/8);
  tcp::TcpSender tx_a(net.scheduler(), a, b.id(), /*flow=*/7,
                      std::make_unique<tcp::Cubic>());
  tcp::TcpSender tx_b(net.scheduler(), a, b.id(), /*flow=*/8,
                      std::make_unique<tcp::Cubic>());

  ChurnSessions table;
  constexpr std::uint32_t kEnd = ChurnSessions::kEnd;
  std::uint32_t last_a = table.append(session(0.0, 100), kEnd);
  std::uint32_t last_b = table.append(session(0.5, 100), kEnd);
  last_a = table.append(session(1.0, 100), last_a);
  last_b = table.append(session(1.5, 100), last_b);
  last_a = table.append(session(2.0, 100), last_a);
  last_b = table.append(session(10e3, 100), last_b);
  table.append(session(10e3, 100), kEnd);
  ASSERT_EQ(last_a, 4u);
  ASSERT_EQ(last_b, 5u);
  const std::vector<std::uint32_t> rows_a{0, 2, 4}, rows_b{1, 3, 5};
  const auto rows = table.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].segments, 100);
    EXPECT_EQ(rows[i].fct_s, -1.0);
    EXPECT_EQ(rows[i].wait_s, -1.0);
  }
  // Each slot's rows ran back to back, in chain order: a row launches at
  // or after its arrival and after the previous row finished.
  const auto expect_replayed_in_order =
      [&](const std::vector<std::uint32_t>& chain) {
        double done_prev = 0;
        for (const std::uint32_t i : chain) {
          const double at = util::to_seconds(rows[i].at);
          ASSERT_GE(rows[i].wait_s, 0.0) << "row " << i;
          ASSERT_GT(rows[i].fct_s, rows[i].wait_s) << "row " << i;
          EXPECT_GE(at + rows[i].wait_s, done_prev - 1e-12) << "row " << i;
          done_prev = at + rows[i].fct_s;
        }
      };

  ChurnSlot slot_a(table, 0);
  slot_a.bind(net.scheduler(), tx_a, /*measure_from=*/0);
  slot_a.start();
  net.run_until(util::seconds(1));
  EXPECT_EQ(slot_a.started(), 3u);
  EXPECT_EQ(slot_a.completed(), 3u);
  expect_replayed_in_order(rows_a);
  EXPECT_GT(rows[2].wait_s, 0.0);  // queued behind row 0
  EXPECT_GT(rows[4].wait_s, 0.0);
  for (const std::uint32_t i : {1u, 3u, 5u, 6u}) {
    EXPECT_EQ(rows[i].fct_s, -1.0) << "row " << i;
    EXPECT_EQ(rows[i].wait_s, -1.0) << "row " << i;
  }
  std::vector<ChurnSessions::Row> after_a(rows.begin(), rows.end());

  ChurnSlot slot_b(table, 1);
  slot_b.bind(net.scheduler(), tx_b, /*measure_from=*/0);
  slot_b.start();
  net.run_until(util::seconds(2));
  EXPECT_EQ(slot_b.started(), 2u);
  EXPECT_EQ(slot_b.completed(), 2u);
  expect_replayed_in_order({1, 3});
  EXPECT_GT(rows[1].wait_s, 0.9);  // arrived a second before B started
  for (const std::uint32_t i : rows_a) {
    EXPECT_EQ(rows[i].fct_s, after_a[i].fct_s) << "row " << i;
    EXPECT_EQ(rows[i].wait_s, after_a[i].wait_s) << "row " << i;
  }
  for (const std::uint32_t i : {5u, 6u}) {
    EXPECT_EQ(rows[i].fct_s, -1.0) << "row " << i;
    EXPECT_EQ(rows[i].wait_s, -1.0) << "row " << i;
  }
}

TEST(ChurnSessions, AggregateMatchesAPlainVectorReference) {
  // Warm-up rows, done rows (some of them deferred), rows still running
  // and rows never started, with tied FCTs; the in-place aggregate must
  // equal the copy-and-sort it replaced, bit for bit.
  ChurnSessions table;
  util::Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const std::uint32_t row =
        table.append(session(i * 0.5, 4), ChurnSessions::kEnd);
    ChurnSessions::Row& r = table.rows()[row];
    const double u = rng.uniform();
    if (u < 0.1) continue;  // never started
    r.wait_s = u < 0.5 ? 0.0 : rng.exponential(0.2);
    if (u < 0.2) continue;  // still running
    r.fct_s = r.wait_s + (u < 0.6 ? std::round(rng.exponential(0.05) * 1e3) /
                                        1e3
                                  : rng.exponential(0.05));
  }
  const util::Time measure_from = util::from_seconds(0.3);
  const std::vector<ChurnSessions::Row> copy(table.rows().begin(),
                                             table.rows().end());

  std::vector<double> fct;
  double fct_sum = 0, wait_sum = 0;
  std::uint64_t deferred = 0;
  for (const ChurnSessions::Row& r : copy) {
    if (r.at < measure_from || r.fct_s < 0) continue;
    fct.push_back(r.fct_s);
    fct_sum += r.fct_s;
    if (r.wait_s > 0) {
      wait_sum += r.wait_s;
      ++deferred;
    }
  }
  std::sort(fct.begin(), fct.end());
  const auto nearest_rank = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(fct.size()));
    return fct[std::min(idx, fct.size() - 1)];
  };

  const ChurnMetrics m =
      aggregate_churn({}, table, measure_from, /*duration_s=*/1.0);
  EXPECT_EQ(m.offered, copy.size());
  EXPECT_EQ(m.measured, fct.size());
  EXPECT_GT(m.measured, 1000u);
  EXPECT_LT(m.measured, copy.size());
  EXPECT_EQ(m.deferred, deferred);
  EXPECT_GT(m.deferred, 0u);
  EXPECT_EQ(m.fct_p50_s, nearest_rank(50));
  EXPECT_EQ(m.fct_p90_s, nearest_rank(90));
  EXPECT_EQ(m.fct_p99_s, nearest_rank(99));
  EXPECT_EQ(m.fct_mean_s, fct_sum / static_cast<double>(fct.size()));
  EXPECT_EQ(m.wait_mean_s, wait_sum / static_cast<double>(fct.size()));
}

}  // namespace
}  // namespace phi::core
