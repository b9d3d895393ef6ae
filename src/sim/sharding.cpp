#include "sim/sharding.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>

#include "sim/node.hpp"

namespace phi::sim {

namespace detail {
void boundary_push(ShardBoundary& b, util::Time pushed_at,
                   util::Time arrival, Link* link, const Packet& p) {
  ShardExchange& x = *b.src;
  BoundaryMessage m;
  m.arrival = arrival;
  m.pushed_at = pushed_at;
  m.seq = x.seq++;
  m.src_shard = b.src_shard;
  m.link = link;
  m.pkt = p;
  b.channel.push(x.parity, m);
}
}  // namespace detail

namespace {

struct Dsu {
  std::vector<int> parent;
  explicit Dsu(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    // Deterministic representative: the smaller id wins, so the
    // component ordering below never depends on merge order.
    if (a > b) std::swap(a, b);
    parent[static_cast<std::size_t>(b)] = a;
    return true;
  }
};

}  // namespace

ShardPlan plan_shards(Network& net, int shards) {
  ShardPlan plan;
  const std::size_t n = net.node_count();
  const auto& links = net.links();
  plan.node_shard.assign(n, 0);
  plan.link_cut.assign(links.size(), 0);
  if (shards <= 1 || n < 2) return plan;

  // Per-link endpoints and delay, and the distinct delay tiers ascending.
  std::vector<int> src(links.size()), dst(links.size());
  std::vector<util::Duration> delay(links.size());
  std::vector<util::Duration> tiers;
  for (std::size_t i = 0; i < links.size(); ++i) {
    src[i] = static_cast<int>(net.link_src(i));
    dst[i] = static_cast<int>(links[i]->destination().id());
    delay[i] = links[i]->propagation_delay();
    tiers.push_back(delay[i]);
  }
  std::sort(tiers.begin(), tiers.end());
  tiers.erase(std::unique(tiers.begin(), tiers.end()), tiers.end());

  // Merge whole tiers, cheapest links first, while the component count
  // stays >= shards. All-or-nothing per tier: merging only part of a
  // tier would make the cut depend on link construction order instead
  // of latency, and would pull the window down to that tier's delay
  // anyway. The first tier that cannot be merged marks the cut
  // frontier; links below it are guaranteed intra-shard.
  Dsu dsu(n);
  std::size_t components = n;
  for (const util::Duration d : tiers) {
    Dsu trial = dsu;
    std::size_t c = components;
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (delay[i] == d && trial.unite(src[i], dst[i])) --c;
    }
    if (c < static_cast<std::size_t>(shards)) break;
    dsu = std::move(trial);
    components = c;
  }

  // Components in min-NodeId order, linear-packed into contiguous
  // shards balanced by node count.
  std::vector<int> comp_of(n, -1);
  std::vector<std::size_t> comp_size;
  for (std::size_t v = 0; v < n; ++v) {
    const int root = dsu.find(static_cast<int>(v));
    if (comp_of[static_cast<std::size_t>(root)] < 0) {
      comp_of[static_cast<std::size_t>(root)] =
          static_cast<int>(comp_size.size());
      comp_size.push_back(0);
    }
    comp_of[v] = comp_of[static_cast<std::size_t>(root)];
    ++comp_size[static_cast<std::size_t>(comp_of[v])];
  }
  const std::size_t c_total = comp_size.size();
  plan.shards = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(shards), c_total));
  if (plan.shards <= 1) {
    plan.shards = 1;
    return plan;
  }

  std::vector<int> comp_shard(c_total, 0);
  std::size_t ci = 0;
  std::size_t nodes_left = n;
  for (int s = 0; s < plan.shards; ++s) {
    const int shards_left = plan.shards - s;
    const std::size_t target =
        (nodes_left + static_cast<std::size_t>(shards_left) - 1) /
        static_cast<std::size_t>(shards_left);
    std::size_t got = 0;
    while (ci < c_total) {
      if (got > 0) {
        // Stop early to leave one component for each remaining shard,
        // and close the shard once it has met its fair share.
        if (c_total - ci <= static_cast<std::size_t>(shards_left - 1)) break;
        if (shards_left > 1 && got + comp_size[ci] > target) break;
      }
      comp_shard[ci] = s;
      got += comp_size[ci];
      nodes_left -= comp_size[ci];
      ++ci;
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    plan.node_shard[v] = comp_shard[static_cast<std::size_t>(comp_of[v])];

  // The cut set and the lookahead window it implies. A cut with zero
  // lookahead admits no parallelism — fall back to serial rather than
  // degenerate to lockstep single-event windows.
  bool any_cut = false;
  util::Duration window = 0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (plan.node_shard[static_cast<std::size_t>(src[i])] ==
        plan.node_shard[static_cast<std::size_t>(dst[i])])
      continue;
    plan.link_cut[i] = 1;
    ++plan.cut_links;
    if (delay[i] <= 0) {
      return ShardPlan{1, 0, std::vector<int>(n, 0),
                       std::vector<std::uint8_t>(links.size(), 0), 0};
    }
    if (!any_cut || delay[i] < window) window = delay[i];
    any_cut = true;
  }
  plan.window = any_cut ? window : 0;
  return plan;
}

ShardedRun::ShardedRun(Network& net, const ShardPlan& plan)
    : net_(net),
      plan_(plan),
      gang_(static_cast<std::size_t>(plan.shards)),
      barrier_(static_cast<std::size_t>(plan.shards)) {
  if (plan_.shards < 1) throw std::invalid_argument("bad shard plan");
  if (plan_.node_shard.size() != net_.node_count() ||
      plan_.link_cut.size() != net_.links().size())
    throw std::invalid_argument("shard plan does not match this network");
  const auto s_count = static_cast<std::size_t>(plan_.shards);
  regs_.reserve(s_count);
  scheds_.reserve(s_count);
  for (std::size_t s = 0; s < s_count; ++s) {
    regs_.push_back(std::make_unique<telemetry::MetricRegistry>());
    // Each shard scheduler's instruments live in that shard's registry;
    // merge_telemetry folds them back in shard order.
    telemetry::ScopedRegistry scope(*regs_[s]);
    scheds_.push_back(std::make_unique<Scheduler>());
  }
  xch_.resize(s_count);  // sized once: cut links keep pointers into it

  const auto& links = net_.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    Link& l = *links[i];
    const auto src_shard = static_cast<std::size_t>(
        plan_.node_shard[static_cast<std::size_t>(net_.link_src(i))]);
    {
      // A link is homed on its *source* shard: transmission state
      // (queue, busy flag, stats) is only ever touched by the shard
      // that owns the upstream node.
      telemetry::ScopedRegistry scope(*regs_[src_shard]);
      l.rebind(*scheds_[src_shard]);
    }
    if (plan_.link_cut[i] == 0) continue;
    const auto dst_shard = static_cast<std::size_t>(
        plan_.node_shard[static_cast<std::size_t>(l.destination().id())]);
    auto b = std::make_unique<ShardBoundary>();
    b->src = &xch_[src_shard];
    b->src_shard = static_cast<std::uint32_t>(src_shard);
    boundaries_.push_back(std::move(b));
    xch_[dst_shard].inbound.push_back(&boundaries_.back()->channel);
    l.set_boundary(boundaries_.back().get());
  }
}

ShardedRun::~ShardedRun() {
  // Restore the serial world in an order that never dangles: monitors
  // first (their pending tick lives in a shard scheduler), then links —
  // queued handles released while the owning shard pool is still alive,
  // boundary detached, transmitter re-homed onto the network scheduler.
  // The topology (which owns links and monitors) outlives this object;
  // the shard schedulers die with it, taking their un-run events along.
  for (LinkMonitor* m : monitors_) m->rebind(net_.scheduler());
  for (const auto& l : net_.links()) {
    l->set_boundary(nullptr);
    l->drop_queued();
    l->rebind(net_.scheduler());
  }
}

void ShardedRun::adopt_monitor(LinkMonitor& m, const Link& link) {
  const auto& links = net_.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (links[i].get() != &link) continue;
    const auto s = static_cast<std::size_t>(
        plan_.node_shard[static_cast<std::size_t>(net_.link_src(i))]);
    telemetry::ScopedRegistry scope(*regs_[s]);
    m.rebind(*scheds_[s]);
    monitors_.push_back(&m);
    return;
  }
  throw std::invalid_argument("monitor's link is not in this network");
}

void ShardedRun::drain_inbound(ShardExchange& x, Scheduler& sched,
                               util::Time bound) {
  // Inject what is due by `bound`; carry the rest to a later window.
  // Every message due by `bound` was pushed before the barrier just
  // passed (the window protocol's invariant), so the injected set is
  // deterministic.
  auto& due = x.due;
  due.clear();
  std::size_t keep = 0;
  for (const BoundaryMessage& m : x.carry) {
    if (m.arrival <= bound) {
      due.push_back(m);
    } else {
      x.carry[keep++] = m;
    }
  }
  x.carry.resize(keep);
  for (BoundaryChannel* ch : x.inbound) {
    ch->drain(x.parity, [&](const BoundaryMessage& m) {
      (m.arrival <= bound ? due : x.carry).push_back(m);
    });
  }
  if (due.empty()) return;
  // Serial insertion chronology: a serial run inserts each delivery at
  // the producer's transmission start, so (arrival, pushed_at) is the
  // dispatch-order key; (src_shard, seq) breaks the sub-ordering-tick
  // ties the serial interleave cannot be reconstructed for.
  std::sort(due.begin(), due.end(),
            [](const BoundaryMessage& a, const BoundaryMessage& b) {
              return std::tie(a.arrival, a.pushed_at, a.src_shard, a.seq) <
                     std::tie(b.arrival, b.pushed_at, b.src_shard, b.seq);
            });
  const util::Time now = sched.now();
  for (const BoundaryMessage& m : due) {
    assert(m.arrival > now);
    // Re-home into this shard's pool and reuse the zero-allocation
    // delivery fast path; the Link pointer is only delivery context
    // (destination node), never transmitter state, on this shard.
    const std::uint64_t ot = Scheduler::order_tick(m.pushed_at);
    if (ot != x.inj_tick) {
      x.inj_tick = ot;
      x.inj_intra = 0;
    }
    const PacketHandle h = sched.packet_pool().acquire(m.pkt);
    sched.schedule_injected_delivery(m.arrival - now, *m.link, h,
                                     m.pushed_at, x.inj_intra++);
  }
}

void ShardedRun::run_until(util::Time horizon) {
  const util::Time start = scheds_[0]->now();
  if (horizon <= start) return;
  const util::Duration w =
      plan_.window > 0 ? plan_.window : horizon - start;
  // Every worker derives the same iteration count from (start, horizon,
  // window) alone, so an exception on one shard cannot desynchronize
  // the barrier: failed workers keep arriving until the round ends.
  const auto windows = static_cast<std::uint64_t>((horizon - start + w - 1) / w);
  std::vector<std::exception_ptr> excs(
      static_cast<std::size_t>(plan_.shards));
  gang_.run([&](std::size_t shard) {
    telemetry::ScopedRegistry scope(*regs_[shard]);
    Scheduler& sched = *scheds_[shard];
    ShardExchange& x = xch_[shard];
    util::Time t = start;
    for (std::uint64_t i = 0; i < windows; ++i) {
      const util::Time wend = std::min<util::Time>(t + w, horizon);
      if (!abort_.load(std::memory_order_relaxed)) {
        try {
          sched.run_until(wend);
        } catch (...) {
          excs[shard] = std::current_exception();
          abort_.store(true, std::memory_order_relaxed);
        }
      }
      barrier_.arrive_and_wait();
      // Post-barrier, every producer has finished window i and writes
      // only the other parity's buffers until the next barrier; inject
      // everything due in window i+1 — which, by the lookahead bound,
      // is everything that can arrive there.
      if (!abort_.load(std::memory_order_relaxed)) {
        try {
          drain_inbound(x, sched, wend + w);
        } catch (...) {
          excs[shard] = std::current_exception();
          abort_.store(true, std::memory_order_relaxed);
        }
      }
      x.parity ^= 1u;
      t = wend;
    }
  });
  windows_run_ += windows;
  for (auto& e : excs) {
    if (e) std::rethrow_exception(e);
  }
}

void ShardedRun::merge_telemetry() {
  auto& reg = telemetry::registry();
  for (const auto& r : regs_) reg.merge(*r);
  reg.counter("sim.shard.boundary_msgs").add(boundary_messages());
  reg.counter("sim.shard.windows").add(windows_run_);
  for (int s = 0; s < plan_.shards; ++s) {
    const telemetry::Labels shard{{"shard", std::to_string(s)}};
    reg.counter("sim.shard.events", shard).add(executed_events(s));
    reg.counter("sim.shard.boundary_in", shard).add(boundary_in(s));
  }
}

std::uint64_t ShardedRun::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& s : scheds_) total += s->executed_count();
  return total;
}

std::uint64_t ShardedRun::executed_events(int s) const {
  return scheds_.at(static_cast<std::size_t>(s))->executed_count();
}

std::uint64_t ShardedRun::boundary_messages() const {
  std::uint64_t total = 0;
  for (const auto& b : boundaries_) total += b->channel.pushed();
  return total;
}

std::uint64_t ShardedRun::boundary_in(int s) const {
  std::uint64_t total = 0;
  for (const BoundaryChannel* c : xch_.at(static_cast<std::size_t>(s)).inbound)
    total += c->pushed();
  return total;
}

}  // namespace phi::sim
