// Transport-level tests: TcpSender + TcpSink over real (mini) topologies,
// exercising loss recovery, timeouts, connection epochs, and stats.
#include <gtest/gtest.h>

#include <memory>

#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::tcp {
namespace {

struct Harness {
  explicit Harness(sim::DumbbellConfig cfg = make_default())
      : d(sim::dumbbell_graph(cfg)) {
    sender = std::make_unique<TcpSender>(d.scheduler(), *d.endpoint(0).tx,
                                         d.endpoint(0).rx->id(), 1,
                                         std::make_unique<Cubic>());
    sink = std::make_unique<TcpSink>(d.scheduler(), *d.endpoint(0).rx, 1);
  }
  static sim::DumbbellConfig make_default() {
    sim::DumbbellConfig cfg;
    cfg.pairs = 1;
    return cfg;
  }
  ConnStats transfer(std::int64_t segments, util::Duration horizon =
                                                util::seconds(120)) {
    ConnStats out;
    bool done = false;
    sender->start_connection(segments, [&](const ConnStats& s) {
      out = s;
      done = true;
    });
    d.net().run_until(d.scheduler().now() + horizon);
    EXPECT_TRUE(done) << "transfer did not complete";
    return out;
  }
  sim::GraphTopology d;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpSink> sink;
};

TEST(Transport, SmallTransferNoLoss) {
  Harness h;
  const ConnStats s = h.transfer(10);
  EXPECT_EQ(s.segments, 10);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_EQ(s.packets_sent, 10u);
  EXPECT_GT(s.rtt_samples, 0u);
  EXPECT_NEAR(s.min_rtt_s, 0.15, 0.01);
  EXPECT_EQ(h.sink->packets_received(), 10u);
  EXPECT_EQ(h.sink->duplicates(), 0u);
}

TEST(Transport, SingleSegment) {
  Harness h;
  const ConnStats s = h.transfer(1);
  EXPECT_EQ(s.segments, 1);
  EXPECT_GT(s.duration_s(), 0.14);  // at least one RTT
  EXPECT_LT(s.duration_s(), 0.30);
}

TEST(Transport, ThroughputBoundedByBottleneck) {
  Harness h;
  const ConnStats s = h.transfer(5000);
  EXPECT_LT(s.throughput_bps(), 15.0 * util::kMbps * 1.01);
  EXPECT_GT(s.throughput_bps(), 1.0 * util::kMbps);
}

TEST(Transport, RecoversFromHeavyLossTinyBuffer) {
  sim::DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.buffer_bdp_multiple = 0.1;  // brutal: ~19 segments of buffer
  Harness h(cfg);
  const ConnStats s = h.transfer(2000, util::seconds(300));
  EXPECT_EQ(s.segments, 2000);
  EXPECT_GT(s.retransmits + s.timeouts, 0u);  // loss definitely happened
  // All data delivered exactly once at the app level: receiver advanced
  // to 2000.
  EXPECT_EQ(h.sink->next_expected(), 2000);
}

TEST(Transport, ConnectionEpochsIsolateStaleState) {
  Harness h;
  (void)h.transfer(50);
  // Second connection on the same flow: sink resets, transfer completes.
  const ConnStats s2 = h.transfer(50);
  EXPECT_EQ(s2.conn, 2u);
  EXPECT_EQ(s2.segments, 50);
  EXPECT_EQ(h.sink->next_expected(), 50);
}

TEST(Transport, StartWhileBusyThrows) {
  Harness h;
  h.sender->start_connection(100, [](const ConnStats&) {});
  EXPECT_THROW(h.sender->start_connection(1, [](const ConnStats&) {}),
               std::logic_error);
}

TEST(Transport, InvalidSegmentCountThrows) {
  Harness h;
  EXPECT_THROW(h.sender->start_connection(0, [](const ConnStats&) {}),
               std::invalid_argument);
  EXPECT_THROW(h.sender->start_connection(-5, [](const ConnStats&) {}),
               std::invalid_argument);
}

TEST(Transport, SetCcWhileBusyThrows) {
  Harness h;
  h.sender->start_connection(100, [](const ConnStats&) {});
  EXPECT_THROW(h.sender->set_cc(std::make_unique<Cubic>()),
               std::logic_error);
}

TEST(Transport, SetCcAppliesOnNextConnection) {
  Harness h;
  h.sender->set_cc(std::make_unique<Cubic>(CubicParams{64, 32, 0.5}));
  bool checked = false;
  h.sender->start_connection(5, [&](const ConnStats&) { checked = true; });
  EXPECT_EQ(h.sender->cc().window(), 32.0);
  h.d.net().run_until(util::seconds(10));
  EXPECT_TRUE(checked);
}

TEST(Transport, DoneCallbackCanChainConnections) {
  Harness h;
  int completed = 0;
  std::function<void(const ConnStats&)> next = [&](const ConnStats&) {
    ++completed;
    if (completed < 3) h.sender->start_connection(10, next);
  };
  h.sender->start_connection(10, next);
  h.d.net().run_until(util::seconds(30));
  EXPECT_EQ(completed, 3);
}

TEST(Transport, LifetimeAckedAccumulates) {
  Harness h;
  (void)h.transfer(25);
  EXPECT_EQ(h.sender->lifetime_acked_segments(), 25);
  (void)h.transfer(10);
  EXPECT_EQ(h.sender->lifetime_acked_segments(), 35);
}

TEST(Transport, PriorityStampsPackets) {
  // Priority is carried through to the sink's ACKs (observable via a tap
  // on the receiving node's agent).
  Harness h;
  h.sender->set_priority(3);
  struct Tap : sim::Agent {
    std::uint32_t seen = 0;
    sim::Agent* inner;
    void on_packet(const sim::Packet& p) override {
      seen = p.priority;
      inner->on_packet(p);
    }
  } tap;
  tap.inner = h.sink.get();
  h.d.endpoint(0).rx->attach(1, &tap);  // replaces sink registration
  (void)h.transfer(5);
  EXPECT_EQ(tap.seen, 3u);
}

TEST(Transport, DupAckThresholdConfigurable) {
  Harness h;
  EXPECT_EQ(h.sender->dupack_threshold(), 3);
  h.sender->set_dupack_threshold(5);
  EXPECT_EQ(h.sender->dupack_threshold(), 5);
  const ConnStats s = h.transfer(100);
  EXPECT_EQ(s.segments, 100);
}

class TransferSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TransferSizes, CompletesExactly) {
  Harness h;
  const ConnStats s = h.transfer(GetParam(), util::seconds(600));
  EXPECT_EQ(s.segments, GetParam());
  EXPECT_EQ(h.sink->next_expected(), GetParam());
  EXPECT_GE(s.packets_sent, static_cast<std::uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransferSizes,
                         ::testing::Values(1, 2, 3, 17, 128, 1000, 4096));

TEST(Sink, OutOfOrderReassembly) {
  // Drive the sink directly with out-of-order segments.
  sim::Network net;
  sim::Node& host = net.add_node("rx");
  sim::Node& peer = net.add_node("tx");
  auto [fwd, rev] = net.add_duplex(host, peer, 100.0 * util::kMbps,
                                   util::milliseconds(1), 1'000'000);
  host.add_route(peer.id(), fwd);
  peer.add_route(host.id(), rev);
  TcpSink sink(net.scheduler(), host, 1);

  auto deliver = [&](std::int64_t seq) {
    sim::Packet p;
    p.src = peer.id();
    p.dst = host.id();
    p.flow = 1;
    p.conn = 1;
    p.seq = seq;
    p.sent_at = net.now();
    host.deliver(p);
  };
  deliver(0);
  EXPECT_EQ(sink.next_expected(), 1);
  deliver(3);  // hole at 1,2
  EXPECT_EQ(sink.next_expected(), 1);
  deliver(1);
  EXPECT_EQ(sink.next_expected(), 2);
  deliver(2);  // absorbs buffered 3
  EXPECT_EQ(sink.next_expected(), 4);
  deliver(0);  // duplicate
  EXPECT_EQ(sink.duplicates(), 1u);
  EXPECT_EQ(sink.next_expected(), 4);
}

TEST(Sink, NewEpochResetsState) {
  sim::Network net;
  sim::Node& host = net.add_node("rx");
  TcpSink sink(net.scheduler(), host, 1);
  sim::Packet p;
  p.dst = host.id();
  p.flow = 1;
  p.conn = 1;
  p.seq = 0;
  host.deliver(p);
  EXPECT_EQ(sink.next_expected(), 1);
  p.conn = 2;
  p.seq = 0;
  host.deliver(p);
  EXPECT_EQ(sink.next_expected(), 1);  // restarted from 0, got seq 0
}

}  // namespace
}  // namespace phi::tcp
