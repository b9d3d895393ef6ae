// SACK: sink block generation and sender scoreboard recovery.
#include <gtest/gtest.h>

#include <memory>

#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::tcp {
namespace {

struct SackHarness {
  explicit SackHarness(sim::DumbbellConfig cfg = def())
      : d(sim::dumbbell_graph(cfg)) {
    sender = std::make_unique<TcpSender>(
        d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 1,
        std::make_unique<Cubic>(CubicParams{}));
    sink = std::make_unique<TcpSink>(d.scheduler(), *d.endpoint(0).rx, 1);
    sender->set_sack(true);
    sink->set_sack(true);
  }
  static sim::DumbbellConfig def() {
    sim::DumbbellConfig c;
    c.pairs = 1;
    return c;
  }
  ConnStats transfer(std::int64_t segments,
                     util::Duration horizon = util::seconds(300)) {
    ConnStats out;
    bool done = false;
    sender->start_connection(segments, [&](const ConnStats& s) {
      out = s;
      done = true;
    });
    d.net().run_until(d.scheduler().now() + horizon);
    EXPECT_TRUE(done) << "SACK transfer did not complete";
    return out;
  }
  sim::GraphTopology d;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpSink> sink;
};

TEST(SackSink, BlocksDescribeOutOfOrderRanges) {
  sim::Network net;
  sim::Node& host = net.add_node("rx");
  sim::Node& peer = net.add_node("tx");
  auto [fwd, rev] = net.add_duplex(host, peer, 100.0 * util::kMbps,
                                   util::milliseconds(1), 1'000'000);
  host.add_route(peer.id(), fwd);
  peer.add_route(host.id(), rev);

  struct AckTap : sim::Agent {
    sim::Packet last;
    void on_packet(const sim::Packet& p) override { last = p; }
  } tap;
  peer.attach(1, &tap);

  TcpSink sink(net.scheduler(), host, 1);
  sink.set_sack(true);
  auto deliver = [&](std::int64_t seq) {
    sim::Packet p;
    p.src = peer.id();
    p.dst = host.id();
    p.flow = 1;
    p.conn = 1;
    p.seq = seq;
    host.deliver(p);
    net.run_until(net.now() + util::milliseconds(5));
  };
  deliver(0);
  EXPECT_EQ(tap.last.sack_count, 0);  // no holes yet
  deliver(2);
  deliver(3);
  deliver(6);
  // RFC 2018: the block containing the most recent arrival comes first.
  ASSERT_EQ(tap.last.sack_count, 2);
  EXPECT_EQ(tap.last.sack[0].start, 6);
  EXPECT_EQ(tap.last.sack[0].end, 7);
  EXPECT_EQ(tap.last.sack[1].start, 2);
  EXPECT_EQ(tap.last.sack[1].end, 4);
  deliver(1);  // fills first hole; 2,3 absorbed; 6 remains
  EXPECT_EQ(tap.last.ack, 4);
  ASSERT_EQ(tap.last.sack_count, 1);
  EXPECT_EQ(tap.last.sack[0].start, 6);
  peer.detach(1);
}

TEST(SackSink, OlderEpochStragglerIsDroppedNotAdopted) {
  // ChurnSlots reuse one flow id for back-to-back connections; a delayed
  // retransmit from connection N can land after connection N+1 started.
  // The sink must drop it — adopting it used to rewind conn_/expected_
  // and corrupt the live transfer's ACK stream.
  sim::Network net;
  sim::Node& host = net.add_node("rx");
  sim::Node& peer = net.add_node("tx");
  auto [fwd, rev] = net.add_duplex(host, peer, 100.0 * util::kMbps,
                                   util::milliseconds(1), 1'000'000);
  host.add_route(peer.id(), fwd);
  peer.add_route(host.id(), rev);

  struct AckTap : sim::Agent {
    sim::Packet last;
    int count = 0;
    void on_packet(const sim::Packet& p) override {
      last = p;
      ++count;
    }
  } tap;
  peer.attach(1, &tap);

  TcpSink sink(net.scheduler(), host, 1);
  auto deliver = [&](std::uint32_t conn, std::int64_t seq) {
    sim::Packet p;
    p.src = peer.id();
    p.dst = host.id();
    p.flow = 1;
    p.conn = conn;
    p.seq = seq;
    host.deliver(p);
    net.run_until(net.now() + util::milliseconds(5));
  };

  // Live connection: epoch 2 has made progress.
  deliver(2, 0);
  deliver(2, 1);
  EXPECT_EQ(sink.next_expected(), 2);

  // Straggler retransmit from the finished epoch 1: dropped silently —
  // no state reset, no ACK (a stale-epoch ACK would confuse nobody, but
  // the reset it used to cause rewound the live connection).
  const int acks_before = tap.count;
  deliver(1, 5);
  EXPECT_EQ(sink.next_expected(), 2);
  EXPECT_EQ(sink.stale_epoch_drops(), 1u);
  EXPECT_EQ(tap.count, acks_before);

  // The live epoch continues unharmed...
  deliver(2, 2);
  EXPECT_EQ(sink.next_expected(), 3);
  EXPECT_EQ(tap.last.ack, 3);
  EXPECT_EQ(tap.last.conn, 2u);

  // ...and a genuinely newer epoch still resets receive state.
  deliver(3, 0);
  EXPECT_EQ(sink.next_expected(), 1);
  EXPECT_EQ(tap.last.conn, 3u);
  peer.detach(1);
}

TEST(Sack, CleanPathBehavesNormally) {
  SackHarness h;
  const ConnStats s = h.transfer(500);
  EXPECT_EQ(s.segments, 500);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.timeouts, 0u);
}

TEST(Sack, MultiLossWindowRetransmitsHolesSelectively) {
  // A deep slow-start overshoot drops hundreds of segments. SACK
  // retransmits the holes from the scoreboard instead of NewReno's
  // one-hole-per-partial-ACK trickle / go-back-N, compressing the loss
  // episode into (mostly) one recovery.
  SackHarness h;  // default params: ssthresh 65536 -> overshoot
  const ConnStats s = h.transfer(12000, util::seconds(120));
  EXPECT_EQ(s.segments, 12000);
  EXPECT_GT(s.retransmits, 500u);  // the holes were retransmitted directly
  EXPECT_LE(s.loss_events, 2u);    // ~one window cut for the whole episode
  EXPECT_EQ(h.sink->next_expected(), 12000);
}

TEST(Sack, NotWorseThanNewRenoUnderOvershoot) {
  auto run = [](bool sack) {
    sim::DumbbellConfig cfg;
    cfg.pairs = 1;
    sim::GraphTopology d(sim::dumbbell_graph(cfg));
    TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                     d.endpoint(0).rx->id(), 1,
                     std::make_unique<Cubic>());
    TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
    sender.set_sack(sack);
    sink.set_sack(sack);
    ConnStats out;
    sender.start_connection(8000, [&](const ConnStats& s) { out = s; });
    d.net().run_until(util::seconds(600));
    return out;
  };
  const ConnStats with_sack = run(true);
  const ConnStats without = run(false);
  ASSERT_GT(with_sack.duration_s(), 0.0);
  ASSERT_GT(without.duration_s(), 0.0);
  // On the heavy-overshoot path SACK completes at least as fast (usually
  // faster) and concentrates the episode into fewer window cuts.
  EXPECT_LE(with_sack.duration_s(), without.duration_s() * 1.10);
  EXPECT_LE(with_sack.loss_events, without.loss_events);
}

TEST(Sack, NoSpuriousRetransmitsOnPureReordering) {
  // With jitter-induced reordering and no real loss, the scoreboard sees
  // holes fill quickly; recovery may trigger but go-back-N storms don't.
  sim::DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.bottleneck_jitter = util::milliseconds(8);
  SackHarness h{cfg};
  const ConnStats s = h.transfer(3000, util::seconds(120));
  EXPECT_EQ(s.segments, 3000);
  EXPECT_EQ(s.timeouts, 0u);
  // Duplicate deliveries at the receiver stay rare.
  EXPECT_LT(h.sink->duplicates(), 100u);
}

TEST(Sack, SurvivesOutage) {
  SackHarness h;
  bool done = false;
  h.sender->start_connection(4000, [&](const ConnStats&) { done = true; });
  h.d.scheduler().schedule_at(util::seconds(1),
                              [&] { h.d.path_link(0).set_up(false); });
  h.d.scheduler().schedule_at(util::seconds(4),
                              [&] { h.d.path_link(0).set_up(true); });
  h.d.net().run_until(util::seconds(120));
  EXPECT_TRUE(done);
  EXPECT_EQ(h.sink->next_expected(), 4000);
}

}  // namespace
}  // namespace phi::tcp
