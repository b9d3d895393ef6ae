#include "sim/graph_topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>
#include <tuple>

#include "sim/fq.hpp"
#include "util/rng.hpp"

namespace phi::sim {

TopologyShape graph_shape(const GraphSpec& spec) noexcept {
  TopologyShape s;
  s.klass = spec.klass;
  s.nodes = spec.nodes.size();
  s.links = 2 * spec.edges.size();
  s.endpoints = spec.endpoints.size();
  for (const GraphSpec::Edge& e : spec.edges)
    s.paths += e.monitored == Monitoring::kBoth      ? 2
               : e.monitored == Monitoring::kForward ? 1
                                                     : 0;
  return s;
}

namespace {

std::unique_ptr<QueueDisc> make_queue(const GraphSpec::Edge& e) {
  switch (e.queue) {
    case QueueKind::kRedEcn: {
      RedQueue::Config red;
      red.capacity_bytes = e.buffer_bytes;
      return std::make_unique<RedQueue>(red);
    }
    case QueueKind::kFq: {
      DrrQueue::Config fq;
      fq.capacity_bytes = e.buffer_bytes;
      return std::make_unique<DrrQueue>(fq);
    }
    case QueueKind::kDropTail:
      break;
  }
  return std::make_unique<DropTailDisc>(e.buffer_bytes);
}

/// Name every edge "a<->b" after its end nodes.
void name_by_ends(GraphSpec& g) {
  for (GraphSpec::Edge& e : g.edges)
    e.name = g.nodes[e.a] + "<->" + g.nodes[e.b];
}

}  // namespace

GraphTopology::GraphTopology(GraphSpec spec) : spec_(std::move(spec)) {
  const std::size_t n = spec_.nodes.size();
  if (n == 0) throw std::invalid_argument("graph topology needs nodes");
  for (const GraphSpec::Edge& e : spec_.edges)
    if (e.a >= n || e.b >= n || e.a == e.b)
      throw std::invalid_argument("graph edge endpoints out of range");
  for (const GraphSpec::EndpointSpec& ep : spec_.endpoints)
    if (ep.tx >= n || ep.rx >= n)
      throw std::invalid_argument("graph endpoint node out of range");

  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    nodes_.push_back(&net_.add_node(spec_.nodes[i]));
  fwd_.reserve(spec_.edges.size());
  rev_.reserve(spec_.edges.size());
  for (std::size_t i = 0; i < spec_.edges.size(); ++i) {
    const GraphSpec::Edge& e = spec_.edges[i];
    Node& a = *nodes_[e.a];
    Node& b = *nodes_[e.b];
    fwd_.push_back(
        &net_.add_link(a, b, e.rate, e.delay, make_queue(e), e.name));
    rev_.push_back(&net_.add_link(
        b, a, e.rate, e.delay, make_queue(e),
        e.name.empty() ? std::string{} : e.name + "-rev"));
    if (e.jitter > 0) {
      // Jitter seeds are a function of the edge index, distinct per edge
      // and direction; edge 0 (the dumbbell's bottleneck) draws from
      // 0xB0B and 0xB1B, which its jittered goldens depend on.
      const std::uint64_t seed = 0xB0B + 0x20 * std::uint64_t{i};
      fwd_.back()->set_jitter(e.jitter, seed);
      rev_.back()->set_jitter(e.jitter, seed + 0x10);
    }
  }
  enumerate_paths();
  install_routes();
}

Topology::Endpoint GraphTopology::endpoint(std::size_t i) {
  const GraphSpec::EndpointSpec& ep = spec_.endpoints.at(i);
  return Endpoint{nodes_[ep.tx], nodes_[ep.rx]};
}

void GraphTopology::enumerate_paths() {
  for (std::size_t e = 0; e < spec_.edges.size(); ++e) {
    if (spec_.edges[e].monitored == Monitoring::kNone) continue;
    paths_.push_back(fwd_[e]);
    if (spec_.edges[e].monitored == Monitoring::kBoth)
      paths_.push_back(rev_[e]);
  }
  monitors_.reserve(paths_.size());
  for (Link* l : paths_)
    monitors_.push_back(std::make_unique<LinkMonitor>(
        net_.scheduler(), *l, spec_.monitor_interval));
}

void GraphTopology::install_routes() {
  const std::size_t n = spec_.nodes.size();
  const std::vector<GraphSpec::Edge>& edges = spec_.edges;
  constexpr util::Duration kInf =
      std::numeric_limits<util::Duration>::max();

  // Adjacency (undirected view; the duplex edges are symmetric).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    adj[edges[e].a].emplace_back(edges[e].b, e);
    adj[edges[e].b].emplace_back(edges[e].a, e);
  }
  const auto leaf = [&](std::size_t u) { return adj[u].size() == 1; };
  const auto out_link = [&](std::size_t u, std::size_t e) {
    return edges[e].a == u ? fwd_[e] : rev_[e];
  };

  // A leaf has one way out: a default route, and no per-destination table.
  for (std::size_t u = 0; u < n; ++u)
    if (leaf(u)) nodes_[u]->set_default_route(out_link(u, adj[u][0].second));

  // Directional link -> path index, for the endpoint bottleneck walk.
  std::vector<std::size_t> fwd_path(edges.size(), Topology::kAllPaths);
  std::vector<std::size_t> rev_path(edges.size(), Topology::kAllPaths);
  {
    std::size_t p = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].monitored == Monitoring::kNone) continue;
      fwd_path[e] = p++;
      if (edges[e].monitored == Monitoring::kBoth) rev_path[e] = p++;
    }
  }

  // Destinations (ACKs route back to the sender, so both ends of every
  // endpoint), grouped by the node whose shortest-path labels they read.
  // Every route to a leaf ends on its one edge, so a leaf's labels are its
  // neighbour's plus that edge and its next-hop candidates are its
  // neighbour's: one Dijkstra serves all the leaves of a node.
  std::vector<std::vector<std::size_t>> dests(n);
  std::vector<std::vector<std::size_t>> arriving(n);  ///< endpoints by rx
  {
    std::vector<char> is_dest(n, 0);
    for (std::size_t i = 0; i < spec_.endpoints.size(); ++i) {
      is_dest[spec_.endpoints[i].tx] = 1;
      is_dest[spec_.endpoints[i].rx] = 1;
      arriving[spec_.endpoints[i].rx].push_back(i);
    }
    for (std::size_t d = 0; d < n; ++d)
      if (is_dest[d] != 0) dests[leaf(d) ? adj[d][0].first : d].push_back(d);
  }

  endpoint_paths_.assign(spec_.endpoints.size(), Topology::kAllPaths);
  hop_counts_.assign(spec_.endpoints.size(), 0);

  std::vector<util::Duration> dist(n);
  std::vector<std::size_t> hops(n);
  /// Equal-cost next hops (neighbour, edge) toward the label source.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> cands(n);

  for (std::size_t s = 0; s < n; ++s) {
    if (dests[s].empty()) continue;

    // Dijkstra from `s` (delay-weighted, hop-count tiebreak). The heap
    // pops in (delay, hops, node) order, so settling is deterministic.
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(hops.begin(), hops.end(), std::numeric_limits<std::size_t>::max());
    using Item = std::tuple<util::Duration, std::size_t, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    dist[s] = 0;
    hops[s] = 0;
    pq.emplace(0, 0, s);
    while (!pq.empty()) {
      const auto [du, hu, u] = pq.top();
      pq.pop();
      if (du != dist[u] || hu != hops[u]) continue;
      for (const auto& [v, e] : adj[u]) {
        const util::Duration dv = du + edges[e].delay;
        if (dv < dist[v] || (dv == dist[v] && hu + 1 < hops[v])) {
          dist[v] = dv;
          hops[v] = hu + 1;
          pq.emplace(dv, hu + 1, v);
        }
      }
    }

    // Candidates of every non-leaf node, sorted by neighbour, then edge.
    for (std::size_t u = 0; u < n; ++u) {
      cands[u].clear();
      if (u == s || leaf(u) || dist[u] == kInf) continue;
      for (const auto& [v, e] : adj[u])
        if (dist[v] != kInf && dist[v] + edges[e].delay == dist[u] &&
            hops[v] + 1 == hops[u])
          cands[u].emplace_back(v, e);
      if (cands[u].empty())
        throw std::logic_error("graph routing: no next hop");
      std::sort(cands[u].begin(), cands[u].end());
    }

    for (const std::size_t d : dests[s]) {
      // The edge `u` forwards on toward `d`: a leaf's one edge, the label
      // source's edge to its leaf `d`, else the candidate picked by `d`'s
      // own id (not the label source's).
      const auto next_edge = [&](std::size_t u) {
        if (leaf(u)) return adj[u][0].second;
        if (u == s) return adj[d][0].second;
        if (cands[u].empty())
          throw std::logic_error("graph routing: endpoint unreachable");
        return cands[u][d % cands[u].size()].second;
      };
      for (std::size_t u = 0; u < n; ++u)
        if (u != d && !leaf(u) && dist[u] != kInf)
          nodes_[u]->add_route(nodes_[d]->id(), out_link(u, next_edge(u)));

      // Endpoint bottleneck paths: walk each endpoint whose receiver is
      // `d` along the routes and pick the smallest-rate monitored link it
      // crosses (first on ties).
      for (const std::size_t i : arriving[d]) {
        std::size_t u = spec_.endpoints[i].tx;
        std::size_t best = Topology::kAllPaths;
        util::Rate best_rate = 0;
        std::size_t count = 0;
        while (u != d) {
          const std::size_t e = next_edge(u);
          const bool forward = edges[e].a == u;
          const std::size_t p = forward ? fwd_path[e] : rev_path[e];
          if (p != Topology::kAllPaths &&
              (best == Topology::kAllPaths || edges[e].rate < best_rate)) {
            best = p;
            best_rate = edges[e].rate;
          }
          u = forward ? edges[e].b : edges[e].a;
          if (++count > n) throw std::logic_error("graph routing: loop");
        }
        endpoint_paths_[i] = best;
        hop_counts_[i] = count;
      }
    }
  }
}

GraphSpec fat_tree_graph(const FatTreeConfig& cfg) {
  if (cfg.k < 2 || cfg.k % 2 != 0)
    throw std::invalid_argument("fat tree wants an even k >= 2");
  const std::size_t half = cfg.k / 2;
  const std::size_t pods = cfg.k;
  const std::size_t hosts_per_pod = half * half;
  const std::size_t hosts = pods * hosts_per_pod;
  const std::size_t cores = half * half;

  GraphSpec g;
  g.klass = "fat-tree";
  g.regions = static_cast<int>(pods);
  g.monitor_interval = cfg.monitor_interval;

  // Node order: hosts, then edge switches, aggs, cores (pod-major).
  for (std::size_t h = 0; h < hosts; ++h)
    g.nodes.push_back("host" + std::to_string(h));
  const std::size_t edge_base = hosts;
  for (std::size_t p = 0; p < pods; ++p)
    for (std::size_t j = 0; j < half; ++j)
      g.nodes.push_back("edge" + std::to_string(p) + "-" + std::to_string(j));
  const std::size_t agg_base = edge_base + pods * half;
  for (std::size_t p = 0; p < pods; ++p)
    for (std::size_t j = 0; j < half; ++j)
      g.nodes.push_back("agg" + std::to_string(p) + "-" + std::to_string(j));
  const std::size_t core_base = agg_base + pods * half;
  for (std::size_t c = 0; c < cores; ++c)
    g.nodes.push_back("core" + std::to_string(c));

  // Worst-case RTT for buffer sizing: both directions of
  // host->edge->agg->core->agg->edge->host.
  const util::Duration rtt_est =
      4 * (cfg.host_delay + cfg.fabric_delay + cfg.core_delay);
  const auto buf = [&](util::Rate r) {
    return static_cast<std::int64_t>(cfg.buffer_bdp_multiple *
                                     static_cast<double>(
                                         util::bdp_bytes(r, rtt_est)));
  };

  for (std::size_t h = 0; h < hosts; ++h) {
    const std::size_t pod = h / hosts_per_pod;
    const std::size_t rack = (h % hosts_per_pod) / half;
    g.edges.push_back({h, edge_base + pod * half + rack, cfg.host_rate,
                       cfg.host_delay, buf(cfg.host_rate)});
  }
  for (std::size_t p = 0; p < pods; ++p)
    for (std::size_t j = 0; j < half; ++j)
      for (std::size_t m = 0; m < half; ++m)
        g.edges.push_back({edge_base + p * half + j, agg_base + p * half + m,
                           cfg.fabric_rate, cfg.fabric_delay,
                           buf(cfg.fabric_rate)});
  // Agg m of every pod connects to cores [m*half, (m+1)*half).
  for (std::size_t p = 0; p < pods; ++p)
    for (std::size_t m = 0; m < half; ++m)
      for (std::size_t c = 0; c < half; ++c)
        g.edges.push_back({agg_base + p * half + m,
                           core_base + m * half + c, cfg.core_rate,
                           cfg.core_delay, buf(cfg.core_rate),
                           Monitoring::kBoth});

  for (std::size_t i = 0; i < hosts; ++i) {
    GraphSpec::EndpointSpec ep;
    ep.tx = i;
    ep.rx = (i + hosts / 2) % hosts;
    ep.region = static_cast<int>(i / hosts_per_pod);
    g.endpoints.push_back(ep);
  }
  name_by_ends(g);
  return g;
}

GraphSpec wan_graph(const WanGraphConfig& cfg) {
  if (cfg.sites < 3)
    throw std::invalid_argument("wan graph wants >= 3 sites");
  if (cfg.hosts_per_site == 0)
    throw std::invalid_argument("wan graph wants >= 1 host per site");
  const std::size_t sites = cfg.sites;
  const std::size_t hosts = sites * cfg.hosts_per_site;

  GraphSpec g;
  g.klass = "wan";
  g.regions = static_cast<int>(sites);
  g.monitor_interval = cfg.monitor_interval;

  for (std::size_t s = 0; s < sites; ++s)
    g.nodes.push_back("site" + std::to_string(s));
  const std::size_t host_base = sites;
  for (std::size_t h = 0; h < hosts; ++h)
    g.nodes.push_back("whost" + std::to_string(h));

  // Every inter-site edge draws rate and delay from the configured
  // ranges; the draws are a pure function of the topology seed.
  util::Rng rng(cfg.seed);
  const auto draw_edge = [&](std::size_t a, std::size_t b) {
    const util::Rate rate = rng.uniform(cfg.min_rate, cfg.max_rate);
    const double frac = rng.uniform();
    const util::Duration delay =
        cfg.min_delay + static_cast<util::Duration>(
                            frac * static_cast<double>(cfg.max_delay -
                                                       cfg.min_delay));
    const util::Duration rtt_est = 2 * (delay + 2 * cfg.access_delay);
    const auto buffer = static_cast<std::int64_t>(
        cfg.buffer_bdp_multiple *
        static_cast<double>(util::bdp_bytes(rate, rtt_est)));
    g.edges.push_back({a, b, rate, delay, buffer, Monitoring::kBoth});
  };

  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (std::size_t s = 0; s < sites; ++s) {
    const std::size_t t = (s + 1) % sites;
    seen.insert({std::min(s, t), std::max(s, t)});
    draw_edge(s, t);
  }
  for (std::size_t c = 0; c < cfg.extra_chords; ++c) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto a = static_cast<std::size_t>(rng.below(sites));
      const auto b = static_cast<std::size_t>(rng.below(sites));
      if (a == b) continue;
      if (!seen.insert({std::min(a, b), std::max(a, b)}).second) continue;
      draw_edge(a, b);
      break;
    }
  }

  const std::int64_t access_buf = static_cast<std::int64_t>(
      cfg.buffer_bdp_multiple *
      static_cast<double>(
          util::bdp_bytes(cfg.access_rate, 2 * cfg.max_delay)));
  for (std::size_t h = 0; h < hosts; ++h)
    g.edges.push_back({host_base + h, h / cfg.hosts_per_site,
                       cfg.access_rate, cfg.access_delay, access_buf});

  for (std::size_t i = 0; i < hosts; ++i) {
    GraphSpec::EndpointSpec ep;
    ep.tx = host_base + i;
    ep.rx = host_base + (i + hosts / 2) % hosts;
    ep.region = static_cast<int>(i / cfg.hosts_per_site);
    g.endpoints.push_back(ep);
  }
  name_by_ends(g);
  return g;
}

}  // namespace phi::sim
