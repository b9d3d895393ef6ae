#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "sim/cbr.hpp"
#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "tcp/tracer.hpp"

namespace phi::sim {
namespace {

TEST(Cbr, FramesOnSchedule) {
  DumbbellConfig cfg;
  cfg.pairs = 1;
  GraphTopology d(dumbbell_graph(cfg));
  CbrSource src(d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 5,
                util::milliseconds(20));
  CbrReceiver rx(d.scheduler(), *d.endpoint(0).rx, 5);
  src.start();
  d.net().run_until(util::seconds(10));
  src.stop();
  // 10 s / 20 ms = 500 frames (+1 for the frame at t=0).
  EXPECT_NEAR(static_cast<double>(src.frames_sent()), 500.0, 2.0);
  // The last few frames may still be in flight at the horizon.
  EXPECT_GE(rx.frames_received(), src.frames_sent() - 5);
  EXPECT_LE(rx.frames_received(), src.frames_sent());
}

TEST(Cbr, QuietPathHasNearZeroJitter) {
  DumbbellConfig cfg;
  cfg.pairs = 1;
  GraphTopology d(dumbbell_graph(cfg));
  CbrSource src(d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 5);
  CbrReceiver rx(d.scheduler(), *d.endpoint(0).rx, 5);
  src.start();
  d.net().run_until(util::seconds(5));
  const auto jitter = rx.jitter_ms();
  ASSERT_FALSE(jitter.empty());
  for (const double j : jitter) EXPECT_LT(j, 1.0);
}

TEST(Cbr, StopHaltsEmission) {
  DumbbellConfig cfg;
  cfg.pairs = 1;
  GraphTopology d(dumbbell_graph(cfg));
  CbrSource src(d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 5);
  src.start();
  d.net().run_until(util::seconds(1));
  src.stop();
  const auto sent = src.frames_sent();
  d.net().run_until(util::seconds(5));
  EXPECT_EQ(src.frames_sent(), sent);
}

TEST(LateFraction, CountsExceedances) {
  const std::vector<double> jitter{0, 5, 10, 25, 50};
  EXPECT_NEAR(late_fraction(jitter, 20.0), 0.4, 1e-12);
  EXPECT_EQ(late_fraction(jitter, 100.0), 0.0);
  EXPECT_NEAR(late_fraction(jitter, -1.0), 1.0, 1e-12);
  EXPECT_EQ(late_fraction({}, 10.0), 0.0);
}

TEST(SenderTracer, SamplesWindowEvolution) {
  DumbbellConfig cfg;
  cfg.pairs = 1;
  GraphTopology d(dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>(
                            tcp::CubicParams{64, 2, 0.2}));
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  tcp::SenderTracer tracer(d.scheduler(), sender, util::milliseconds(100));
  sender.start_connection(3000, [](const tcp::ConnStats&) {});
  d.net().run_until(util::seconds(10));
  tracer.stop();

  ASSERT_GT(tracer.samples().size(), 50u);
  // cwnd grew from 2 during the run.
  double max_cwnd = 0;
  for (const auto& s : tracer.samples())
    max_cwnd = std::max(max_cwnd, s.cwnd);
  EXPECT_GT(max_cwnd, 10.0);
  // Monotone timestamps.
  for (std::size_t i = 1; i < tracer.samples().size(); ++i)
    ASSERT_GT(tracer.samples()[i].t, tracer.samples()[i - 1].t);
}

TEST(SenderTracer, CsvAndSparkline) {
  DumbbellConfig cfg;
  cfg.pairs = 1;
  GraphTopology d(dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>());
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  tcp::SenderTracer tracer(d.scheduler(), sender);
  sender.start_connection(500, [](const tcp::ConnStats&) {});
  d.net().run_until(util::seconds(5));

  const std::string path = ::testing::TempDir() + "/trace.csv";
  ASSERT_TRUE(tracer.write_csv(path));
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "t_s,cwnd,ssthresh,srtt_ms,inflight");

  const std::string spark = tracer.sparkline(0, 40);
  EXPECT_EQ(spark.size(), 40u);
  EXPECT_NE(spark.find_first_not_of(' '), std::string::npos);
}

TEST(SenderTracer, StopCeasesSampling) {
  DumbbellConfig cfg;
  cfg.pairs = 1;
  GraphTopology d(dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>());
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  tcp::SenderTracer tracer(d.scheduler(), sender);
  d.net().run_until(util::seconds(1));
  tracer.stop();
  const auto n = tracer.samples().size();
  d.net().run_until(util::seconds(3));
  EXPECT_EQ(tracer.samples().size(), n);
}

}  // namespace
}  // namespace phi::sim
