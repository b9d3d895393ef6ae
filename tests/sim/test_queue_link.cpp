#include <gtest/gtest.h>

#include <cmath>

#include "sim/link.hpp"
#include "sim/monitor.hpp"
#include "sim/network.hpp"
#include "sim/queue.hpp"

namespace phi::sim {
namespace {

Packet make_packet(NodeId src, NodeId dst, std::int32_t bytes = kSegmentBytes) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  return p;
}

TEST(DropTailQueue, EnqueueDequeueFifo) {
  PacketPool pool;
  DropTailQueue q(10000);
  for (int i = 0; i < 3; ++i) {
    Packet p = make_packet(0, 1);
    p.seq = i;
    EXPECT_TRUE(q.enqueue(pool, pool.acquire(p), i * 10));
  }
  EXPECT_EQ(q.packets(), 3u);
  EXPECT_EQ(q.bytes(), 3 * kSegmentBytes);
  for (int i = 0; i < 3; ++i) {
    const Queued d = q.dequeue();
    ASSERT_NE(d.handle, kNullPacket);
    EXPECT_EQ(pool.get(d.handle).seq, i);
    EXPECT_EQ(d.enqueued_at, i * 10);
    pool.release(d.handle);
  }
  EXPECT_EQ(q.dequeue().handle, kNullPacket);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(DropTailQueue, DropsWhenFull) {
  PacketPool pool;
  DropTailQueue q(2 * kSegmentBytes);
  EXPECT_TRUE(q.enqueue(pool, pool.acquire(make_packet(0, 1)), 0));
  EXPECT_TRUE(q.enqueue(pool, pool.acquire(make_packet(0, 1)), 0));
  // A rejected handle stays with the caller, who must release it.
  const PacketHandle rejected = pool.acquire(make_packet(0, 1));
  EXPECT_FALSE(q.enqueue(pool, rejected, 0));
  pool.release(rejected);
  EXPECT_EQ(q.stats().enqueued, 2u);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_NEAR(q.stats().drop_rate(), 1.0 / 3.0, 1e-12);
  // Space frees after dequeue.
  pool.release(q.dequeue().handle);
  EXPECT_TRUE(q.enqueue(pool, pool.acquire(make_packet(0, 1)), 0));
}

TEST(DropTailQueue, ByteGranularCapacity) {
  PacketPool pool;
  DropTailQueue q(kSegmentBytes + kAckBytes);
  EXPECT_TRUE(q.enqueue(pool, pool.acquire(make_packet(0, 1, kSegmentBytes)), 0));
  EXPECT_TRUE(q.enqueue(pool, pool.acquire(make_packet(0, 1, kAckBytes)), 0));
  const PacketHandle rejected = pool.acquire(make_packet(0, 1, kAckBytes));
  EXPECT_FALSE(q.enqueue(pool, rejected, 0));
  pool.release(rejected);
  EXPECT_NEAR(q.occupancy(), 1.0, 1e-9);
}

TEST(DropTailQueue, ResetStatsKeepsContents) {
  PacketPool pool;
  DropTailQueue q(10000);
  q.enqueue(pool, pool.acquire(make_packet(0, 1)), 0);
  q.reset_stats();
  EXPECT_EQ(q.stats().enqueued, 0u);
  EXPECT_EQ(q.packets(), 1u);
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 15.0 * util::kMbps, util::milliseconds(10),
                         1'000'000);
  a.add_route(b.id(), &l);

  struct Probe : Agent {
    util::Time arrived = -1;
    Network* net;
    void on_packet(const Packet&) override { arrived = net->now(); }
  } probe;
  probe.net = &net;
  b.attach(7, &probe);

  Packet p = make_packet(a.id(), b.id());
  p.flow = 7;
  a.send(p);
  net.run_until(util::seconds(1));
  // 1500 B at 15 Mbps = 800 us serialization + 10 ms propagation.
  EXPECT_EQ(probe.arrived, util::microseconds(800) + util::milliseconds(10));
  b.detach(7);
}

TEST(Link, SerializesBackToBack) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 15.0 * util::kMbps, 0, 1'000'000);
  a.add_route(b.id(), &l);

  struct Probe : Agent {
    std::vector<util::Time> arrivals;
    Network* net;
    void on_packet(const Packet&) override {
      arrivals.push_back(net->now());
    }
  } probe;
  probe.net = &net;
  b.attach(7, &probe);

  for (int i = 0; i < 3; ++i) {
    Packet p = make_packet(a.id(), b.id());
    p.flow = 7;
    a.send(p);
  }
  net.run_until(util::seconds(1));
  ASSERT_EQ(probe.arrivals.size(), 3u);
  // Arrivals spaced exactly one serialization time (800 us) apart.
  EXPECT_EQ(probe.arrivals[1] - probe.arrivals[0], util::microseconds(800));
  EXPECT_EQ(probe.arrivals[2] - probe.arrivals[1], util::microseconds(800));
  EXPECT_EQ(l.packets_transmitted(), 3u);
  EXPECT_EQ(l.bytes_transmitted(), 3u * kSegmentBytes);
  b.detach(7);
}

TEST(Link, EveryPacketSizeSerializesForItsTransmissionTime) {
  // Full segments and ACKs take the link's precomputed serialization
  // times, any other size the general formula; an awkward rate makes any
  // difference between the two show up in the nanoseconds.
  const util::Rate rate = 7.3 * util::kMbps;
  const util::Duration prop = util::microseconds(3'001);
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, rate, prop, 1'000'000);
  a.add_route(b.id(), &l);

  struct Probe : Agent {
    util::Time arrived = -1;
    Network* net;
    void on_packet(const Packet&) override { arrived = net->now(); }
  } probe;
  probe.net = &net;
  b.attach(7, &probe);

  util::Time horizon = 0;
  for (const std::int32_t bytes : {kSegmentBytes, kAckBytes, 777}) {
    const util::Time sent_at = net.now();
    Packet p = make_packet(a.id(), b.id(), bytes);
    p.flow = 7;
    a.send(p);
    horizon += util::seconds(1);
    net.run_until(horizon);
    EXPECT_EQ(probe.arrived,
              sent_at + util::transmission_time(bytes, rate) + prop)
        << bytes << " B";
  }
  b.detach(7);
}

TEST(Link, QueueOverflowDrops) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  // Buffer holds exactly 2 segments; 1 more can be in serialization.
  Link& l = net.add_link(a, b, 15.0 * util::kMbps, 0, 2 * kSegmentBytes);
  a.add_route(b.id(), &l);
  for (int i = 0; i < 5; ++i) a.send(make_packet(a.id(), b.id()));
  net.run_until(util::seconds(1));
  EXPECT_EQ(l.queue().stats().dropped, 2u);
  EXPECT_EQ(l.packets_transmitted(), 3u);
}

TEST(Link, UtilizationFraction) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 12.0 * util::kMbps, 0, 1'000'000);
  a.add_route(b.id(), &l);
  // 1 packet of 1500 B = 1 ms busy at 12 Mbps.
  a.send(make_packet(a.id(), b.id()));
  net.run_until(util::milliseconds(10));
  EXPECT_NEAR(l.utilization(net.now()), 0.1, 1e-9);
}

TEST(Link, SchedulerChurnGrowsWrappedRingAndFeedsSmallP2) {
  // Drive the drop-tail ring and the link's P2 tail estimator through
  // real scheduler churn. The drain between the two bursts rotates the
  // ring's head; the second burst then forces 16 -> 32 growth while the
  // live window is wrapped around the physical end of the buffer (the
  // RingDeque edge the unit tests pin down, reached here through the
  // datapath). Dequeue sampling (1-in-8) leaves the p99 estimator with
  // fewer than five samples, exercising its exact small-count path.
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  // 12 Mbps: one 1500 B packet serializes in exactly 1 ms.
  Link& l = net.add_link(a, b, 12.0 * util::kMbps, 0, 1'000'000);
  a.add_route(b.id(), &l);
  // Burst 1: 12 packets — 1 serializing, 11 queued (ring capacity 16).
  for (int i = 0; i < 12; ++i) a.send(make_packet(a.id(), b.id()));
  // Second burst arrives via a scheduled event, mid-drain: 6 packets
  // have left the queue by then, so head sits 6 slots in.
  net.scheduler().schedule_at(util::microseconds(6'500), [&] {
    for (int i = 0; i < 13; ++i) a.send(make_packet(a.id(), b.id()));
  });
  net.run_until(util::microseconds(6'600));
  // 5 left from burst 1 + 13 new = 18 > 16: the ring grew while split.
  EXPECT_EQ(l.queue().packets(), 18u);
  net.run_until(util::seconds(1));
  EXPECT_EQ(l.packets_transmitted(), 25u);
  EXPECT_EQ(l.queue().stats().dropped, 0u);
  EXPECT_EQ(l.queue().packets(), 0u);
  // 24 packets waited in queue (all but the first); each dequeue fed the
  // mean, a 1-in-8 subsample (3 samples) fed the p99 estimator.
  EXPECT_EQ(l.queueing_delay().count(), 24u);
  EXPECT_GT(l.queueing_delay().mean(), 0.0);
  const double p99 = l.queueing_delay_p99_s();
  EXPECT_TRUE(std::isfinite(p99));
  EXPECT_GT(p99, 0.0);
  EXPECT_LE(p99, l.queueing_delay().max());
}

TEST(Link, UtilizationZeroLengthWindowIsZeroNotNaN) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 12.0 * util::kMbps, 0, 1'000'000);
  a.add_route(b.id(), &l);
  // Fresh link queried at t == 0: window length 0 and busy time 0 — the
  // unguarded division was 0/0 (NaN), which poisoned any utilization
  // aggregate it fed into.
  const double fresh = l.utilization(net.now());
  EXPECT_TRUE(std::isfinite(fresh));
  EXPECT_EQ(fresh, 0.0);
  // Mid-serialization reset, queried at the exact reset instant: window
  // length 0 but busy_time_ holds the pro-rated in-flight remainder, so
  // the unguarded form was x/0 (inf).
  a.send(make_packet(a.id(), b.id()));
  net.run_until(util::microseconds(250));
  l.reset_stats();
  const double at_reset = l.utilization(net.now());
  EXPECT_TRUE(std::isfinite(at_reset));
  EXPECT_EQ(at_reset, 0.0);
  // A query from "before" the window start (caller holding a stale
  // timestamp) must not return a negative or infinite fraction either.
  const double stale = l.utilization(net.now() - 1);
  EXPECT_TRUE(std::isfinite(stale));
  EXPECT_EQ(stale, 0.0);
}

TEST(Link, UtilizationMidSerializationCountsOnlyElapsedTime) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 12.0 * util::kMbps, 0, 1'000'000);
  a.add_route(b.id(), &l);
  // Serialization takes 1 ms; query halfway through. The full 1 ms is
  // charged to busy_time_ at tx start, but only the elapsed 0.5 ms may
  // count, so the link reads fully-but-not-over utilized.
  a.send(make_packet(a.id(), b.id()));
  net.run_until(util::microseconds(500));
  EXPECT_NEAR(l.utilization(net.now()), 1.0, 1e-9);
}

TEST(Link, ResetStatsMidSerializationProRatesBusyTime) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 12.0 * util::kMbps, 0, 1'000'000);
  a.add_route(b.id(), &l);
  a.send(make_packet(a.id(), b.id()));
  // Reset 0.25 ms into the 1 ms serialization: the remaining 0.75 ms of
  // tx time belongs to the new window.
  net.run_until(util::microseconds(250));
  l.reset_stats();
  EXPECT_NEAR(l.utilization(net.now()), 0.0, 1e-9);
  net.run_until(util::microseconds(500));
  // Halfway through the remainder: busy for all of the 0.25 ms elapsed.
  EXPECT_NEAR(l.utilization(net.now()), 1.0, 1e-9);
  net.run_until(util::milliseconds(3));
  // Window is [0.25 ms, 3 ms]; transmitter was busy for 0.75 ms of it.
  EXPECT_NEAR(l.utilization(net.now()), 0.75 / 2.75, 1e-9);
}

TEST(Node, NoRouteCountsDrop) {
  Network net;
  Node& a = net.add_node("a");
  a.send(make_packet(a.id(), 42));
  EXPECT_EQ(a.no_route_drops(), 1u);
}

TEST(Node, RoutesOverrideAndFallBackToTheDefault) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Node& c = net.add_node("c");
  Link& ab = net.add_link(a, b, 15.0 * util::kMbps, 0, 1'000'000);
  Link& ac = net.add_link(a, c, 15.0 * util::kMbps, 0, 1'000'000);
  const NodeId far = c.id() + 1000;  // beyond every routed id

  // Re-adding a route for the same destination replaces the old one.
  a.add_route(c.id(), &ac);
  a.add_route(c.id(), &ab);
  a.send(make_packet(a.id(), c.id()));
  net.run_until(util::milliseconds(10));
  EXPECT_EQ(ab.packets_transmitted(), 1u);
  EXPECT_EQ(ac.packets_transmitted(), 0u);

  // No route and no default route: an unrouted id inside the table and
  // one beyond it are both dropped and counted.
  a.send(make_packet(a.id(), b.id()));
  a.send(make_packet(a.id(), far));
  EXPECT_EQ(a.no_route_drops(), 2u);

  // With a default route, both take it; routed ids keep their route.
  a.set_default_route(&ac);
  a.send(make_packet(a.id(), b.id()));
  a.send(make_packet(a.id(), far));
  a.send(make_packet(a.id(), c.id()));
  net.run_until(util::milliseconds(20));
  EXPECT_EQ(a.no_route_drops(), 2u);
  EXPECT_EQ(ac.packets_transmitted(), 2u);
  EXPECT_EQ(ab.packets_transmitted(), 2u);
}

TEST(Node, UnclaimedPacketCounted) {
  Network net;
  Node& a = net.add_node("a");
  Packet p = make_packet(0, a.id());
  p.flow = 99;  // no agent attached
  a.deliver(p);
  EXPECT_EQ(a.unclaimed_packets(), 1u);
}

TEST(LinkMonitor, MeasuresWindowedUtilization) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 15.0 * util::kMbps, 0, 10'000'000);
  a.add_route(b.id(), &l);
  LinkMonitor mon(net.scheduler(), l, util::milliseconds(100));

  // Saturate the link for 1 second: 15 Mbps = 1250 pkts/s.
  for (int i = 0; i < 1250; ++i) a.send(make_packet(a.id(), b.id()));
  net.run_until(util::seconds(1));
  EXPECT_GT(mon.samples(), 5u);
  EXPECT_NEAR(mon.recent_utilization(), 1.0, 0.05);
  EXPECT_GT(mon.recent_occupancy(), 0.0);

  // Go idle: windowed utilization decays to 0.
  net.run_until(util::seconds(3));
  EXPECT_NEAR(mon.recent_utilization(), 0.0, 0.05);
}

TEST(LinkMonitor, ResetSeriesClearsAggregates) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 15.0 * util::kMbps, 0, 10'000'000);
  a.add_route(b.id(), &l);
  LinkMonitor mon(net.scheduler(), l);
  for (int i = 0; i < 100; ++i) a.send(make_packet(a.id(), b.id()));
  net.run_until(util::seconds(1));
  EXPECT_GT(mon.utilization_series().count(), 0u);
  mon.reset_series();
  EXPECT_EQ(mon.utilization_series().count(), 0u);
}

}  // namespace
}  // namespace phi::sim
