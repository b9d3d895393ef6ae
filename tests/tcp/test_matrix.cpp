// Property matrix: the transport must deliver every segment exactly once
// to the application, for every congestion controller, under hostile
// path conditions (tiny buffers, reordering jitter, RED+ECN, delayed
// ACKs) — and the simulation must stay conservative (no packet created
// or destroyed unaccounted).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "phi/coordination.hpp"
#include "remy/remycc.hpp"
#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "tcp/pcc.hpp"
#include "tcp/vegas.hpp"

namespace phi::tcp {
namespace {

enum class Cc { kCubic, kNewReno, kVegas, kAimd, kRemy, kPcc };
enum class Path { kClean, kTinyBuffer, kJitter, kRedEcn, kDelAck, kSack };

std::string cc_name(Cc cc) {
  switch (cc) {
    case Cc::kCubic: return "cubic";
    case Cc::kNewReno: return "newreno";
    case Cc::kVegas: return "vegas";
    case Cc::kAimd: return "aimd";
    case Cc::kRemy: return "remy";
    case Cc::kPcc: return "pcc";
  }
  return "?";
}

std::string path_name(Path p) {
  switch (p) {
    case Path::kClean: return "clean";
    case Path::kTinyBuffer: return "tinybuf";
    case Path::kJitter: return "jitter";
    case Path::kRedEcn: return "redecn";
    case Path::kDelAck: return "delack";
    case Path::kSack: return "sack";
  }
  return "?";
}

std::unique_ptr<CongestionControl> make_cc(Cc cc) {
  switch (cc) {
    case Cc::kCubic:
      return std::make_unique<Cubic>(CubicParams{64, 8, 0.2});
    case Cc::kNewReno:
      return std::make_unique<NewReno>();
    case Cc::kVegas:
      return std::make_unique<Vegas>();
    case Cc::kAimd:
      return std::make_unique<core::WeightedAimd>(1.0, 0.5);
    case Cc::kPcc:
      return std::make_unique<Pcc>();
    case Cc::kRemy: {
      remy::Action a;
      a.window_multiple = 1.0;
      a.window_increment = 1.0;
      a.intersend_ms = 0.5;
      return std::make_unique<remy::RemyCC>(
          std::make_shared<remy::WhiskerTree>(a));
    }
  }
  return nullptr;
}

class TransportMatrix
    : public ::testing::TestWithParam<std::tuple<Cc, Path>> {};

TEST_P(TransportMatrix, ExactlyOnceDeliveryAndConservation) {
  const auto [cc, path] = GetParam();

  sim::DumbbellConfig cfg;
  cfg.pairs = 2;  // a competing default flow keeps the path busy
  switch (path) {
    case Path::kClean:
      break;
    case Path::kTinyBuffer:
      cfg.buffer_bdp_multiple = 0.15;
      break;
    case Path::kJitter:
      cfg.bottleneck_jitter = util::milliseconds(10);
      break;
    case Path::kRedEcn:
      cfg.queue = sim::QueueKind::kRedEcn;
      break;
    case Path::kDelAck:
    case Path::kSack:
      break;
  }
  sim::GraphTopology d(sim::dumbbell_graph(cfg));

  TcpSender sender(d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 1,
                   make_cc(cc));
  TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  if (path == Path::kRedEcn) sender.set_ecn(true);
  if (path == Path::kDelAck) sink.set_delayed_ack(2);
  if (path == Path::kSack) {
    sender.set_sack(true);
    sink.set_sack(true);
  }

  // Background competitor.
  TcpSender rival(d.scheduler(), *d.endpoint(1).tx, d.endpoint(1).rx->id(), 2,
                  std::make_unique<Cubic>());
  TcpSink rival_sink(d.scheduler(), *d.endpoint(1).rx, 2);
  rival.start_connection(1'000'000, [](const ConnStats&) {});

  constexpr std::int64_t kSegments = 1500;
  bool done = false;
  ConnStats stats;
  sender.start_connection(kSegments, [&](const ConnStats& s) {
    done = true;
    stats = s;
  });
  d.net().run_until(util::seconds(600));

  const std::string label = cc_name(cc) + "/" + path_name(path);
  ASSERT_TRUE(done) << label << ": transfer never completed";
  EXPECT_EQ(stats.segments, kSegments) << label;
  // Exactly-once at the application level: receiver advanced precisely
  // to the transfer length.
  EXPECT_EQ(sink.next_expected(), kSegments) << label;
  // The sender never claims more deliveries than it made transmissions.
  EXPECT_GE(stats.packets_sent, static_cast<std::uint64_t>(kSegments))
      << label;
  // Sane throughput (bounded by the bottleneck, above a trickle).
  EXPECT_LT(stats.throughput_bps(), cfg.bottleneck_rate * 1.01) << label;
  EXPECT_GT(stats.throughput_bps(), 0.05 * util::kMbps) << label;
  // RTT samples exist and respect the propagation floor.
  EXPECT_GT(stats.rtt_samples, 0u) << label;
  EXPECT_GE(stats.min_rtt_s, 0.149) << label;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TransportMatrix,
    ::testing::Combine(::testing::Values(Cc::kCubic, Cc::kNewReno,
                                         Cc::kVegas, Cc::kAimd, Cc::kRemy,
                                         Cc::kPcc),
                       ::testing::Values(Path::kClean, Path::kTinyBuffer,
                                         Path::kJitter, Path::kRedEcn,
                                         Path::kDelAck, Path::kSack)),
    [](const ::testing::TestParamInfo<std::tuple<Cc, Path>>& info) {
      return cc_name(std::get<0>(info.param)) + "_" +
             path_name(std::get<1>(info.param));
    });

TEST(DelayedAck, HalvesAckVolume) {
  sim::DumbbellConfig cfg;
  cfg.pairs = 1;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));
  TcpSender sender(d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 1,
                   std::make_unique<Cubic>(CubicParams{64, 8, 0.2}));
  TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  sink.set_delayed_ack(2);
  bool done = false;
  sender.start_connection(2000, [&](const ConnStats&) { done = true; });
  d.net().run_until(util::seconds(60));
  ASSERT_TRUE(done);
  // Roughly one ACK per two segments (plus timer flushes).
  EXPECT_LT(sink.acks_sent(), 1400u);
  EXPECT_GT(sink.acks_sent(), 900u);
}

TEST(DelayedAck, TimerFlushesLoneSegment) {
  sim::DumbbellConfig cfg;
  cfg.pairs = 1;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));
  TcpSender sender(d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 1,
                   std::make_unique<Cubic>(CubicParams{64, 1, 0.2}));
  TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  sink.set_delayed_ack(2);
  bool done = false;
  // A single segment: only the delack timer (or FIN rule) can ACK it.
  sender.start_connection(1, [&](const ConnStats&) { done = true; });
  d.net().run_until(util::seconds(10));
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace phi::tcp
