// The observability layer: deterministic flow sampling, the event path's
// routing contract (what the log and the flight recorder each keep),
// flight-recorder ring semantics and one-shot arming, event-loop
// self-profiling, time-series merge determinism, and the contract that
// none of it perturbs the simulation — plus the PHI_TELEMETRY_OFF stubs
// compiling to no-ops.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "phi/scenario.hpp"
#include "sim/event.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace phi::telemetry {
namespace {

core::ScenarioSpec tiny_dumbbell() {
  core::ScenarioSpec spec;
  spec.topology = sim::DumbbellConfig{.pairs = 4};
  spec.workload.mean_on_bytes = 100e3;
  spec.workload.mean_off_s = 0.5;
  spec.duration = util::seconds(5);
  spec.seed = 11;
  return spec;
}

// --- Flow sampling (both modes: the log's sampler is plain code) -------

TEST(SpanSampling, PureFunctionOfFlowSeedRate) {
  const EventLog a(0, 8, /*seed=*/42, /*capacity=*/0);
  const EventLog b(0, 8, /*seed=*/42, /*capacity=*/0);
  for (std::uint64_t flow = 0; flow < 4096; ++flow)
    EXPECT_EQ(a.trace_of(flow), b.trace_of(flow)) << flow;
}

TEST(SpanSampling, RateEndpoints) {
  const EventLog none(0, 0, 0, 0), all(0, 1, 0, 0);
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    EXPECT_EQ(none.trace_of(flow), 0u);
    EXPECT_NE(all.trace_of(flow), 0u);
  }
  // The trace id is the flow id (flow 0 maps to 1 so "sampled" stays
  // synonymous with "nonzero").
  EXPECT_EQ(all.trace_of(7), 7u);
  EXPECT_EQ(all.trace_of(0), 1u);
}

TEST(SpanSampling, OneInNHitsRoughlyOneInN) {
  const EventLog log(0, 64, /*seed=*/3, 0);
  int sampled = 0;
  constexpr int kFlows = 64 * 1024;
  for (std::uint64_t flow = 1; flow <= kFlows; ++flow)
    if (log.trace_of(flow) != 0) ++sampled;
  // Binomial(64k, 1/64): mean 1024, sd ~32. Allow +-6 sd.
  EXPECT_GT(sampled, 1024 - 192);
  EXPECT_LT(sampled, 1024 + 192);
}

TEST(SpanSampling, SeedSelectsDifferentFlows) {
  const EventLog s1(0, 64, 1, 0), s2(0, 64, 2, 0);
  bool differ = false;
  for (std::uint64_t flow = 1; flow < 4096 && !differ; ++flow)
    differ = (s1.trace_of(flow) != 0) != (s2.trace_of(flow) != 0);
  EXPECT_TRUE(differ);
}

// --- Flight recorder rings (both modes: fed directly) ------------------

TEST(FlightRecorderTest, RingKeepsLastDepthEvents) {
  FlightRecorder fr(/*depth=*/4);
  for (int i = 0; i < 10; ++i)
    fr.record({.name = "tcp.evt", .cat = Category::kTcp, .t0 = i,
               .flow = 9, .k0 = "i", .a0 = static_cast<double>(i)});
  EXPECT_EQ(fr.recorded(), 10u);
  ASSERT_EQ(fr.ring(Category::kTcp).size(), 4u);
  EXPECT_EQ(fr.ring(Category::kTcp).front().event.t0, 6);  // oldest evicted
  const std::string dump = fr.dump();
  EXPECT_NE(dump.find("tcp.evt"), std::string::npos);
  EXPECT_NE(dump.find("flow=9 i=9"), std::string::npos);
  // Oldest events evicted: the per-category section reports 4 of 10.
  EXPECT_NE(dump.find("(4)"), std::string::npos);
}

TEST(FlightRecorderTest, CategoriesHaveIndependentRings) {
  FlightRecorder fr(2);
  fr.record({.name = "link.drop", .cat = Category::kLink, .t0 = 1});
  fr.record({.name = "red.mark", .cat = Category::kQueue, .t0 = 2});
  fr.record({.name = "red.mark", .cat = Category::kQueue, .t0 = 3});
  fr.record({.name = "red.mark", .cat = Category::kQueue, .t0 = 4});
  EXPECT_EQ(fr.ring(Category::kLink).size(), 1u);
  EXPECT_EQ(fr.ring(Category::kQueue).size(), 2u);
}

TEST(FlightRecorderTest, ArmFiresOnceOnMatchingCategory) {
  const std::string path =
      ::testing::TempDir() + "/phi_flight_arm_test.txt";
  std::remove(path.c_str());
  FlightRecorder fr(8);
  fr.arm(mask_of(Category::kFault), path);
  EXPECT_TRUE(fr.armed());
  fr.record({.name = "tcp.evt", .cat = Category::kTcp, .t0 = 1});
  EXPECT_TRUE(fr.armed());  // not in the mask: no dump
  EXPECT_EQ(fr.last_dump_path(), "");
  fr.record({.name = "fault.report_drop", .cat = Category::kFault, .t0 = 2});
  EXPECT_FALSE(fr.armed());  // one-shot latch consumed
  EXPECT_EQ(fr.last_dump_path(), path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  // A second fault writes nothing: the latch fired once.
  std::remove(path.c_str());
  fr.record({.name = "fault.crash", .cat = Category::kFault, .t0 = 3});
  EXPECT_EQ(std::fopen(path.c_str(), "r"), nullptr);
}

// --- Event log recording (both modes: fed directly) --------------------

TEST(EventLog, RecordsAllPhases) {
  EventLog log(0, 1, 0, 16);
  log.record({.name = "link.transit", .cat = Category::kPacket,
              .phase = 'X', .t0 = 100, .t1 = 200, .trace = 5,
              .k0 = "bytes", .a0 = 1500.0});
  log.record({.name = "tcp.conn_start", .cat = Category::kTcp, .t0 = 150,
              .trace = 5, .k0 = "cwnd", .a0 = 2.0});
  const std::uint32_t bind = log.next_bind();
  log.record({.name = "phi.ctx", .cat = Category::kContext, .phase = 's',
              .t0 = 200, .trace = 5, .bind = bind});
  log.record({.name = "phi.ctx", .cat = Category::kContext, .phase = 'f',
              .t0 = 300, .trace = 5, .bind = bind});
  ASSERT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.events()[0].phase, 'X');
  EXPECT_EQ(log.events()[0].t1, 200);
  EXPECT_STREQ(log.events()[0].k0, "bytes");
  EXPECT_DOUBLE_EQ(log.events()[0].a0, 1500.0);
  EXPECT_EQ(log.events()[1].phase, 'i');
  EXPECT_EQ(log.events()[2].phase, 's');
  EXPECT_EQ(log.events()[3].phase, 'f');
  EXPECT_EQ(log.events()[2].bind, log.events()[3].bind);
}

#ifndef PHI_TELEMETRY_OFF

// --- Routing: what emit() hands each view ------------------------------

/// (category, name, time) of every entry in this thread's rings, in
/// category then recording order.
std::vector<std::tuple<Category, std::string, util::Time>> ring_contents() {
  std::vector<std::tuple<Category, std::string, util::Time>> out;
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const auto& ring = flight().ring(static_cast<Category>(1u << i));
    for (std::size_t j = 0; j < ring.size(); ++j) {
      const Event& e = ring[j].event;
      out.emplace_back(e.cat, e.name, e.t0);
    }
  }
  return out;
}

TEST(EventLog, ThreadLocalInstallAndRestore) {
  EXPECT_EQ(event_log(), nullptr);
  EventLog outer(0, 1, 0, 4), inner(0, 1, 0, 4);
  EXPECT_EQ(set_event_log(&outer), nullptr);
  EXPECT_EQ(set_event_log(&inner), &outer);
  EXPECT_EQ(event_log(), &inner);
  EventLog* seen_elsewhere = &inner;
  std::thread([&] { seen_elsewhere = event_log(); }).join();
  EXPECT_EQ(seen_elsewhere, nullptr);  // other threads see no log
  EXPECT_EQ(set_event_log(&outer), &inner);
  EXPECT_EQ(set_event_log(nullptr), &outer);
  EXPECT_EQ(event_log(), nullptr);
}

TEST(EventRouting, SampledInstantIsRecordedOnceInLogAndRing) {
  EventLog log(mask_of(Category::kTcp), /*trace_one_in=*/1, 0, 16);
  set_event_log(&log);
  flight().clear();
  emit({.name = "tcp.rto", .cat = Category::kTcp, .t0 = 5,
        .trace = trace_of(42), .flow = 42, .k0 = "cwnd", .a0 = 1.0});
  set_event_log(nullptr);
  ASSERT_EQ(log.events().size(), 1u);
  EXPECT_STREQ(log.events()[0].name, "tcp.rto");
  EXPECT_EQ(log.events()[0].trace, 42u);
  const auto rings = ring_contents();
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0], std::make_tuple(Category::kTcp, std::string("tcp.rto"),
                                      util::Time{5}));
  flight().clear();
}

TEST(EventRouting, MaskZeroKeepsExactlyTheSampledFlows) {
  // The --trace-flows shape: no category mask, 1-in-4 flow sampling.
  EventLog log(/*mask=*/0, /*trace_one_in=*/4, /*seed=*/9, 1 << 12);
  set_event_log(&log);
  std::size_t sampled = 0;
  for (std::uint64_t flow = 1; flow <= 256; ++flow) {
    const std::uint32_t trace = trace_of(flow);
    sampled += trace != 0;
    emit({.name = "tcp.rto", .cat = Category::kTcp, .t0 = 1, .trace = trace,
          .flow = flow});
    emit({.name = "link.transit", .cat = Category::kPacket, .phase = 'X',
          .t0 = 1, .t1 = 2, .trace = trace, .flow = flow});
    emit({.name = "tcp.conn_done", .cat = Category::kTcp, .t0 = 2,
          .flow = flow});  // untraced: the mask alone decides, and drops it
  }
  set_event_log(nullptr);
  flight().clear();
  ASSERT_GT(sampled, 0u);
  ASSERT_LT(sampled, 256u);
  ASSERT_EQ(log.events().size(), 2 * sampled);
  for (const Event& e : log.events()) {
    EXPECT_NE(e.trace, 0u);
    EXPECT_EQ(e.trace, log.trace_of(e.flow)) << e.flow;
  }
}

TEST(EventRouting, FlowTracingLeavesTheRingsUnchanged) {
  // Spans, arrows, counters and per-packet points never enter the rings,
  // and every instant that does is emitted whether or not its flow is
  // traced — so tracing every flow or none leaves identical rings.
  auto rings_after = [](std::uint32_t trace_one_in) {
    core::ScenarioSpec spec = tiny_dumbbell();
    spec.telemetry.trace_one_in = trace_one_in;
    MetricRegistry mine;
    ScopedRegistry scope(mine);
    flight().clear();
    (void)core::run_cubic_scenario(spec, tcp::CubicParams{});
    auto out = ring_contents();
    flight().clear();
    return out;
  };
  const auto untraced = rings_after(0);
  const auto traced = rings_after(1);
  EXPECT_FALSE(untraced.empty());
  EXPECT_EQ(traced, untraced);
  for (const auto& [cat, name, t] : untraced) {
    EXPECT_NE(cat, Category::kPacket) << name;
  }
}

// --- Event-loop self-profiling ----------------------------------------

TEST(LoopProfileTest, CallbackCountsAreExact) {
  LoopProfile prof;
  sim::Scheduler s;
  s.set_profile(&prof);
  constexpr int kEvents = 500;
  long ran = 0;
  for (int i = 0; i < kEvents; ++i)
    s.schedule_at(i * 1000, [&ran] { ++ran; });
  s.run_until(kEvents * 1000);
  s.set_profile(nullptr);
  EXPECT_EQ(ran, kEvents);
  EXPECT_EQ(prof.events(LoopProfile::kCallback),
            static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(prof.events(LoopProfile::kDelivery), 0u);
  EXPECT_GT(prof.wall_ns(), 0u);
  const std::string table = prof.table();
  EXPECT_NE(table.find("callback"), std::string::npos);
  EXPECT_NE(table.find("wheel advance"), std::string::npos);
}

TEST(LoopProfileTest, MergeAddsCountsAndTimes) {
  LoopProfile a, b;
  a.count(LoopProfile::kDelivery, 10);
  a.add_time(LoopProfile::kDelivery, 100, 2);
  b.count(LoopProfile::kDelivery, 5);
  b.add_wall(77);
  a.merge(b);
  EXPECT_EQ(a.events(LoopProfile::kDelivery), 15u);
  EXPECT_EQ(a.sampled(LoopProfile::kDelivery), 2u);
  EXPECT_EQ(a.sampled_ns(LoopProfile::kDelivery), 100u);
  EXPECT_EQ(a.wall_ns(), 77u);
}

// --- Time series -------------------------------------------------------

TEST(TimeSeriesTest, MergeAppendsInSubmissionOrder) {
  TimeSeries whole, part1, part2;
  part1.sample(0.0, 1.0);
  part1.sample(0.1, 2.0);
  part2.sample(0.0, 10.0);
  whole.merge(part1);
  whole.merge(part2);
  ASSERT_EQ(whole.size(), 3u);
  EXPECT_DOUBLE_EQ(whole.values()[0], 1.0);
  EXPECT_DOUBLE_EQ(whole.values()[2], 10.0);
}

TEST(TimeSeriesTest, RegistryFoldIsDeterministic) {
  auto part = [](int which) {
    MetricRegistry r;
    auto& ts = r.timeseries("scenario.queue_bytes",
                            {{"path", std::to_string(which)}});
    for (int i = 0; i < 8; ++i) ts.sample(i * 0.1, which * 100.0 + i);
    return r;
  };
  auto fold = [&] {
    MetricRegistry acc;
    for (int w = 0; w < 3; ++w) acc.merge(part(w));
    return acc.timeseries_csv();
  };
  const std::string csv = fold();
  EXPECT_EQ(csv, fold());
  EXPECT_NE(csv.find("series,labels,t_s,value"), std::string::npos);
  EXPECT_NE(csv.find("scenario.queue_bytes"), std::string::npos);
  EXPECT_NE(csv.find("path=0"), std::string::npos);
}

TEST(TimeSeriesTest, ForEachVisitsInKeyOrder) {
  MetricRegistry r;
  r.timeseries("b.series").sample(0, 1);
  r.timeseries("a.series").sample(0, 2);
  std::string order;
  r.for_each_timeseries(
      [&](const std::string& name, const Labels&, const TimeSeries&) {
        order += name + ";";
      });
  EXPECT_EQ(order, "a.series;b.series;");
}

// --- Scenario-level contracts ------------------------------------------

TEST(ScenarioTelemetry, CaptureIsBitIdenticalAcrossRuns) {
  core::ScenarioSpec spec = tiny_dumbbell();
  spec.telemetry.trace_one_in = 1;
  spec.telemetry.timeseries_dt = util::milliseconds(100);
  spec.telemetry.span_capacity = 1 << 18;

  auto run = [&](std::string* ts_csv) {
    MetricRegistry mine;
    ScopedRegistry scope(mine);
    const core::ScenarioMetrics m =
        core::run_cubic_scenario(spec, tcp::CubicParams{});
    *ts_csv = mine.timeseries_csv();
    return m;
  };
  std::string csv1, csv2;
  const core::ScenarioMetrics m1 = run(&csv1);
  const core::ScenarioMetrics m2 = run(&csv2);

  ASSERT_NE(m1.capture, nullptr);
  ASSERT_NE(m2.capture, nullptr);
  EXPECT_GT(m1.capture->log.events().size(), 0u);
  EXPECT_EQ(m1.capture->log.chrome_json(), m2.capture->log.chrome_json());
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv2);
}

TEST(ScenarioTelemetry, TracingDoesNotPerturbTheSimulation) {
  const core::ScenarioMetrics plain =
      core::run_cubic_scenario(tiny_dumbbell(), tcp::CubicParams{});

  core::ScenarioSpec spec = tiny_dumbbell();
  spec.telemetry.trace_one_in = 1;
  spec.telemetry.timeseries_dt = util::milliseconds(100);
  spec.telemetry.profile = true;
  spec.telemetry.span_capacity = 1 << 18;
  core::ScenarioMetrics traced;
  {
    MetricRegistry mine;
    ScopedRegistry scope(mine);
    traced = core::run_cubic_scenario(spec, tcp::CubicParams{});
  }

  EXPECT_DOUBLE_EQ(traced.throughput_bps, plain.throughput_bps);
  EXPECT_DOUBLE_EQ(traced.loss_rate, plain.loss_rate);
  EXPECT_DOUBLE_EQ(traced.utilization, plain.utilization);
  EXPECT_DOUBLE_EQ(traced.mean_rtt_s, plain.mean_rtt_s);
  EXPECT_EQ(traced.connections, plain.connections);
  EXPECT_EQ(traced.timeouts, plain.timeouts);
  EXPECT_EQ(plain.capture, nullptr);  // no flags, no capture
}

TEST(ScenarioTelemetry, TracedRunCoversTheDatapath) {
  core::ScenarioSpec spec = tiny_dumbbell();
  spec.telemetry.trace_one_in = 1;
  spec.telemetry.span_capacity = 1 << 18;
  core::ScenarioMetrics m;
  {
    MetricRegistry mine;
    ScopedRegistry scope(mine);
    m = core::run_cubic_scenario(spec, tcp::CubicParams{});
  }
  ASSERT_NE(m.capture, nullptr);
  bool conn_start = false, link_transit = false;
  for (const auto& e : m.capture->log.events()) {
    conn_start = conn_start || std::string(e.name) == "tcp.conn_start";
    link_transit = link_transit || std::string(e.name) == "link.transit";
  }
  EXPECT_TRUE(conn_start);
  EXPECT_TRUE(link_transit);
  EXPECT_EQ(m.capture->log.dropped(), 0u);
}

#else  // PHI_TELEMETRY_OFF — the whole layer must be inert no-op stubs.

TEST(ObservabilityStubs, LoopProfileAndTimeSeriesAreInert) {
  LoopProfile prof;
  prof.count(LoopProfile::kDelivery, 100);
  prof.add_wall(100);
  EXPECT_EQ(prof.events(LoopProfile::kDelivery), 0u);
  EXPECT_TRUE(prof.table().empty());
  MetricRegistry r;
  r.timeseries("t").sample(0, 1);
  EXPECT_EQ(r.timeseries("t").size(), 0u);
  EXPECT_TRUE(r.timeseries_csv().empty());
}

TEST(ObservabilityStubs, TelemetrySpecFlagsAreHarmless) {
  core::ScenarioSpec spec = tiny_dumbbell();
  const core::ScenarioMetrics plain =
      core::run_cubic_scenario(spec, tcp::CubicParams{});
  spec.telemetry.trace_one_in = 1;
  spec.telemetry.timeseries_dt = util::milliseconds(100);
  spec.telemetry.profile = true;
  const core::ScenarioMetrics flagged =
      core::run_cubic_scenario(spec, tcp::CubicParams{});
  EXPECT_DOUBLE_EQ(flagged.throughput_bps, plain.throughput_bps);
  EXPECT_EQ(flagged.connections, plain.connections);
  if (flagged.capture != nullptr) {
    EXPECT_TRUE(flagged.capture->log.events().empty());
  }
}

#endif  // PHI_TELEMETRY_OFF

}  // namespace
}  // namespace phi::telemetry
