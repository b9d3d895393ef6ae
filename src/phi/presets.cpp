#include "phi/presets.hpp"

#include <cmath>
#include <cstdlib>

namespace phi::core::presets {

namespace {

tcp::OnOffConfig onoff(double on_bytes, double off_s) {
  tcp::OnOffConfig oc;
  oc.mean_on_bytes = on_bytes;
  oc.mean_off_s = off_s;
  return oc;
}

}  // namespace

ScenarioSpec paper_dumbbell(std::size_t pairs) {
  ScenarioSpec s;
  sim::DumbbellConfig net;
  net.pairs = pairs;
  net.bottleneck_rate = 15.0 * util::kMbps;
  net.rtt = util::milliseconds(150);
  s.topology = net;
  s.workload = onoff(500e3, 2.0);
  s.duration = util::seconds(60);
  return s;
}

ScenarioSpec hotcold_parking_lot() {
  ScenarioSpec s;
  sim::ParkingLotConfig net;
  net.hops = 2;
  net.cross_per_hop = 8;
  net.long_flows = 2;
  s.topology = net;
  s.duration = util::seconds(60);
  // Interleaved hot/cold, then the long flows — the construction (and
  // seed-draw) order the multipath ablation established.
  sim::FlowId flow = 1;
  for (std::size_t i = 0; i < net.cross_per_hop; ++i) {
    SenderSpec hot;
    hot.endpoint = i;  // hop-0 cross pair i
    hot.flow = flow++;
    hot.workload = onoff(800e3, 0.5);
    hot.group = 0;
    s.senders.push_back(hot);
    SenderSpec cold;
    cold.endpoint = net.cross_per_hop + i;  // hop-1 cross pair i
    cold.flow = flow++;
    cold.workload = onoff(200e3, 6.0);
    cold.group = 1;
    s.senders.push_back(cold);
  }
  for (std::size_t j = 0; j < net.long_flows; ++j) {
    SenderSpec lng;
    lng.endpoint = net.hops * net.cross_per_hop + j;
    lng.flow = flow++;
    lng.workload = onoff(500e3, 2.0);
    s.senders.push_back(lng);
  }
  return s;
}

ScenarioSpec probe_parking_lot(std::size_t hops, std::size_t probes) {
  ScenarioSpec s;
  sim::ParkingLotConfig net;
  net.hops = hops;
  net.cross_per_hop = probes + 3;  // probes + bursty load flows
  s.topology = net;
  s.duration = util::seconds(60);
  for (std::size_t h = 0; h < hops; ++h) {
    for (std::size_t i = 0; i < net.cross_per_hop; ++i) {
      SenderSpec ss;
      ss.endpoint = h * net.cross_per_hop + i;
      ss.flow = 1000 * (h + 1) + i;
      ss.group = static_cast<int>(h);
      if (i < probes) {
        ss.bulk_segments = 10'000'000;  // effectively endless
      } else {
        ss.workload = onoff(600e3, 1.2);
      }
      s.senders.push_back(ss);
    }
  }
  return s;
}

// The intra-run sharding headline: a wide parking lot whose eight
// 20 ms hops give the auto-partitioner high-latency cuts in every
// direction, so `--shards 2..8` splits into balanced router clusters
// with a 20 ms lookahead window. Deliberately churny (short on/off
// cycles) to stress cross-shard traffic.
ScenarioSpec wide_parking_lot() {
  ScenarioSpec s;
  sim::ParkingLotConfig net;
  net.hops = 8;
  net.cross_per_hop = 4;
  net.long_flows = 4;
  s.topology = net;
  s.duration = util::seconds(30);
  s.workload = onoff(400e3, 0.8);
  return s;
}

// Fleet-scale churn presets: no static population at all — every flow is
// an open-loop arrival. Rates are sized so a default-length run offers
// ~10^5 sessions (scale duration or churn_per_s up for 10^6).
ScenarioSpec fat_tree_churn() {
  ScenarioSpec s;
  s.topology = sim::FatTreeConfig{};  // k=4: 16 hosts, 4 pods
  s.duration = util::seconds(30);
  s.churn.arrivals_per_s = 4000;      // ~120k sessions per run
  return s;
}

ScenarioSpec wan_churn() {
  ScenarioSpec s;
  s.topology = sim::WanGraphConfig{};  // 6 sites x 3 hosts
  s.duration = util::seconds(90);
  s.churn.arrivals_per_s = 1200;       // ~108k sessions per run
  return s;
}

const std::vector<Preset>& registry() {
  static const std::vector<Preset> presets = [] {
    std::vector<Preset> v;
    v.push_back({"dumbbell-paper",
                 "Figure-1 canon: 8 on/off senders, 15 Mbps / 150 ms",
                 paper_dumbbell(8)});
    v.push_back({"dumbbell-low-util",
                 "Figure 2a operating point: 4 on/off senders",
                 paper_dumbbell(4)});
    v.push_back({"dumbbell-high-util",
                 "Figure 2b operating point: 16 on/off senders",
                 paper_dumbbell(16)});
    {
      ScenarioSpec s = paper_dumbbell(100);
      s.workload = onoff(1e13, 1.0);
      s.workload.start_with_off = false;
      Preset p{"dumbbell-longrun",
               "Figure 2c: 100 long-running connections", s};
      v.push_back(p);
    }
    {
      ScenarioSpec s = paper_dumbbell(8);
      auto& net = std::get<sim::DumbbellConfig>(s.topology);
      net.queue = sim::DumbbellConfig::Queue::kRedEcn;
      s.ecn = true;
      v.push_back({"dumbbell-ecn",
                   "canon dumbbell with RED+ECN at the bottleneck", s});
    }
    {
      ScenarioSpec s = paper_dumbbell(8);
      for (std::size_t i = 0; i < 8; ++i) {
        SenderSpec ss;
        ss.endpoint = i;
        ss.group = static_cast<int>(i % 2);  // Fig-4 split: even=modified
        s.senders.push_back(ss);
      }
      v.push_back({"dumbbell-incremental",
                   "Figure-4 population: alternate senders grouped 0/1", s});
    }
    v.push_back({"parking-hotcold",
                 "two-hop lot, busy hop 0 vs idle hop 1 + long flows",
                 hotcold_parking_lot()});
    v.push_back({"parking-probes",
                 "per-hop bulk probes + bursty load (the §2.1 study)",
                 probe_parking_lot()});
    v.push_back({"parking-wide",
                 "eight-hop lot, 36 senders: the --shards headline",
                 wide_parking_lot()});
    v.push_back({"fat-tree-churn",
                 "k=4 fat tree under open-loop churn (~120k flows/run)",
                 fat_tree_churn()});
    v.push_back({"wan-churn",
                 "6-site WAN graph under open-loop churn (~108k flows/run)",
                 wan_churn()});
    return v;
  }();
  return presets;
}

const Preset* find(const std::string& name) {
  // Accept underscore spellings (fat_tree_churn == fat-tree-churn).
  std::string norm = name;
  for (char& c : norm)
    if (c == '_') c = '-';
  for (const auto& p : registry())
    if (p.name == norm) return &p;
  return nullptr;
}

namespace {

bool fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

// Finite numbers only: nan and inf fail like any other malformed value.
bool parse_double(const std::string& v, double* out) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || !std::isfinite(d)) return false;
  *out = d;
  return true;
}

// Whole numbers in [0, 2^64), the range a double converts to
// std::uint64_t exactly.
bool parse_whole(const std::string& v, std::uint64_t* out) {
  double d = 0;
  if (!parse_double(v, &d) || d < 0 || d >= 0x1p64 || d != std::floor(d))
    return false;
  *out = static_cast<std::uint64_t>(d);
  return true;
}

// `v` counted in `unit` (e.g. kMillisecond), converted in double so
// fractions survive; fails unless the product fits a Duration.
bool parse_duration(const std::string& v, util::Duration unit,
                    util::Duration* out) {
  double d = 0;
  if (!parse_double(v, &d)) return false;
  const double ns = d * static_cast<double>(unit);
  if (!(std::fabs(ns) < 0x1p63)) return false;
  *out = static_cast<util::Duration>(ns);
  return true;
}

bool parse_bool(const std::string& v, bool* out) {
  if (v == "1" || v == "true" || v == "on") {
    *out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "off") {
    *out = false;
    return true;
  }
  return false;
}

// Valid-key listings for the unknown-key error, per topology class.
constexpr const char* kScenarioKeys =
    "seed, duration_s, warmup_s, ecn, on_bytes, off_s, start_with_off, "
    "churn_per_s, churn_zipf, churn_alpha, churn_min_bytes, "
    "churn_max_bytes, churn_slots, churn_cap";
constexpr const char* kDumbbellKeys =
    "pairs, rate_mbps, rtt_ms, queue, jitter_ms, buffer_bdp";
constexpr const char* kLotKeys =
    "hops, cross_per_hop, long_flows, hop_rate_mbps, hop_delay_ms, "
    "buffer_bdp";
constexpr const char* kFatTreeKeys =
    "k, host_rate_mbps, fabric_rate_mbps, core_rate_mbps, core_delay_ms, "
    "buffer_bdp";
constexpr const char* kWanKeys =
    "sites, hosts_per_site, chords, wan_seed, min_rate_mbps, "
    "max_rate_mbps, min_delay_ms, max_delay_ms, buffer_bdp";

bool fail_unknown(std::string* err, const std::string& key,
                  const char* klass, const char* class_keys) {
  return fail(err, "unknown override key '" + key + "' for this " + klass +
                       " preset; valid keys: " + kScenarioKeys + "; " +
                       class_keys);
}

}  // namespace

bool apply_override(ScenarioSpec& spec, const std::string& assignment,
                    std::string* err) {
  const auto eq = assignment.find('=');
  if (eq == std::string::npos || eq == 0)
    return fail(err, "override '" + assignment + "' is not key=value");
  const std::string key = assignment.substr(0, eq);
  const std::string val = assignment.substr(eq + 1);

  double d = 0;
  std::uint64_t z = 0;
  util::Duration t = 0;
  bool b = false;

  // Scenario-wide keys.
  if (key == "seed") {
    if (!parse_whole(val, &z))
      return fail(err, "seed wants an integer >= 0, got '" + val + "'");
    spec.seed = z;
    return true;
  }
  if (key == "duration_s") {
    if (!parse_duration(val, util::kSecond, &t) || t <= 0)
      return fail(err, "duration_s wants seconds > 0, got '" + val + "'");
    spec.duration = t;
    return true;
  }
  if (key == "warmup_s") {
    if (!parse_duration(val, util::kSecond, &t) || t < 0)
      return fail(err, "warmup_s wants seconds >= 0, got '" + val + "'");
    spec.warmup = t;
    return true;
  }
  if (key == "ecn") {
    if (!parse_bool(val, &b))
      return fail(err, "ecn wants a boolean, got '" + val + "'");
    spec.ecn = b;
    return true;
  }
  if (key == "on_bytes" || key == "off_s" || key == "start_with_off") {
    // The default workload; per-sender workloads in a pinned population
    // are part of the preset's identity and keep their values.
    if (key == "on_bytes") {
      if (!parse_double(val, &d) || d <= 0)
        return fail(err, "on_bytes wants bytes > 0, got '" + val + "'");
      spec.workload.mean_on_bytes = d;
    } else if (key == "off_s") {
      if (!parse_double(val, &d) || d < 0)
        return fail(err, "off_s wants seconds >= 0, got '" + val + "'");
      spec.workload.mean_off_s = d;
    } else {
      if (!parse_bool(val, &b))
        return fail(err, "start_with_off wants a boolean, got '" + val + "'");
      spec.workload.start_with_off = b;
    }
    return true;
  }

  // Open-loop churn plan (scenario-wide; any topology class).
  if (key == "churn_per_s") {
    if (!parse_double(val, &d) || d < 0)
      return fail(err,
                  "churn_per_s wants arrivals/s >= 0, got '" + val + "'");
    spec.churn.arrivals_per_s = d;
    return true;
  }
  if (key == "churn_zipf") {
    if (!parse_double(val, &d) || d <= 0)
      return fail(err, "churn_zipf wants an exponent > 0, got '" + val + "'");
    spec.churn.zipf_s = d;
    return true;
  }
  if (key == "churn_alpha") {
    if (!parse_double(val, &d) || d <= 0)
      return fail(err,
                  "churn_alpha wants a tail index > 0, got '" + val + "'");
    spec.churn.pareto_alpha = d;
    return true;
  }
  if (key == "churn_min_bytes") {
    if (!parse_double(val, &d) || d <= 0)
      return fail(err,
                  "churn_min_bytes wants bytes > 0, got '" + val + "'");
    spec.churn.min_bytes = d;
    return true;
  }
  if (key == "churn_max_bytes") {
    if (!parse_double(val, &d) || d <= 0)
      return fail(err,
                  "churn_max_bytes wants bytes > 0, got '" + val + "'");
    spec.churn.max_bytes = d;
    return true;
  }
  if (key == "churn_slots") {
    if (!parse_whole(val, &z) || z == 0)
      return fail(err,
                  "churn_slots wants an integer >= 1, got '" + val + "'");
    spec.churn.slots_per_endpoint = z;
    return true;
  }
  if (key == "churn_cap") {
    if (!parse_whole(val, &z))
      return fail(err, "churn_cap wants an integer >= 0, got '" + val + "'");
    spec.churn.max_sessions = z;
    return true;
  }

  // Population-shape keys change endpoint numbering; refuse them when
  // the preset pins an explicit sender list built for the old shape.
  const bool shape_key = key == "pairs" || key == "hops" ||
                         key == "cross_per_hop" || key == "long_flows" ||
                         key == "k" || key == "sites" ||
                         key == "hosts_per_site";
  if (shape_key && !spec.senders.empty())
    return fail(err, "'" + key +
                         "' would re-shape a preset with a pinned sender "
                         "population; pick a preset without explicit "
                         "senders or derive a new preset in code");

  if (auto* dumb = std::get_if<sim::DumbbellConfig>(&spec.topology)) {
    if (key == "pairs") {
      if (!parse_whole(val, &z) || z == 0)
        return fail(err, "pairs wants an integer >= 1, got '" + val + "'");
      dumb->pairs = z;
      return true;
    }
    if (key == "rate_mbps") {
      if (!parse_double(val, &d) || d <= 0)
        return fail(err, "rate_mbps wants Mbps > 0, got '" + val + "'");
      dumb->bottleneck_rate = d * util::kMbps;
      return true;
    }
    if (key == "rtt_ms") {
      if (!parse_duration(val, util::kMillisecond, &t) || t <= 0)
        return fail(err, "rtt_ms wants ms > 0, got '" + val + "'");
      dumb->rtt = t;
      return true;
    }
    if (key == "queue") {
      if (val == "droptail")
        dumb->queue = sim::DumbbellConfig::Queue::kDropTail;
      else if (val == "red-ecn")
        dumb->queue = sim::DumbbellConfig::Queue::kRedEcn;
      else if (val == "fq")
        dumb->queue = sim::DumbbellConfig::Queue::kFq;
      else
        return fail(err, "queue wants droptail|red-ecn|fq, got '" + val + "'");
      return true;
    }
    if (key == "jitter_ms") {
      if (!parse_duration(val, util::kMillisecond, &t) || t < 0)
        return fail(err, "jitter_ms wants ms >= 0, got '" + val + "'");
      dumb->bottleneck_jitter = t;
      return true;
    }
    if (key == "buffer_bdp") {
      if (!parse_double(val, &d) || d <= 0)
        return fail(err, "buffer_bdp wants a multiple > 0, got '" + val + "'");
      dumb->buffer_bdp_multiple = d;
      return true;
    }
    return fail_unknown(err, key, "dumbbell", kDumbbellKeys);
  }
  if (auto* lotp = std::get_if<sim::ParkingLotConfig>(&spec.topology)) {
    auto& lot = *lotp;
    if (key == "hops") {
      if (!parse_whole(val, &z) || z == 0)
        return fail(err, "hops wants an integer >= 1, got '" + val + "'");
      lot.hops = z;
      return true;
    }
    if (key == "cross_per_hop") {
      if (!parse_whole(val, &z))
        return fail(err,
                    "cross_per_hop wants an integer >= 0, got '" + val + "'");
      lot.cross_per_hop = z;
      return true;
    }
    if (key == "long_flows") {
      if (!parse_whole(val, &z))
        return fail(err, "long_flows wants an integer >= 0, got '" + val + "'");
      lot.long_flows = z;
      return true;
    }
    if (key == "hop_rate_mbps") {
      if (!parse_double(val, &d) || d <= 0)
        return fail(err, "hop_rate_mbps wants Mbps > 0, got '" + val + "'");
      lot.hop_rate = d * util::kMbps;
      return true;
    }
    if (key == "hop_delay_ms") {
      if (!parse_duration(val, util::kMillisecond, &t) || t <= 0)
        return fail(err, "hop_delay_ms wants ms > 0, got '" + val + "'");
      lot.hop_delay = t;
      return true;
    }
    if (key == "buffer_bdp") {
      if (!parse_double(val, &d) || d <= 0)
        return fail(err, "buffer_bdp wants a multiple > 0, got '" + val + "'");
      lot.buffer_bdp_multiple = d;
      return true;
    }
    return fail_unknown(err, key, "parking-lot", kLotKeys);
  }
  if (auto* ft = std::get_if<sim::FatTreeConfig>(&spec.topology)) {
    if (key == "k") {
      if (!parse_whole(val, &z) || z < 2 || z % 2 != 0)
        return fail(err, "k wants an even integer >= 2, got '" + val + "'");
      ft->k = z;
      return true;
    }
    if (key == "host_rate_mbps") {
      if (!parse_double(val, &d) || d <= 0)
        return fail(err,
                    "host_rate_mbps wants Mbps > 0, got '" + val + "'");
      ft->host_rate = d * util::kMbps;
      return true;
    }
    if (key == "fabric_rate_mbps") {
      if (!parse_double(val, &d) || d <= 0)
        return fail(err,
                    "fabric_rate_mbps wants Mbps > 0, got '" + val + "'");
      ft->fabric_rate = d * util::kMbps;
      return true;
    }
    if (key == "core_rate_mbps") {
      if (!parse_double(val, &d) || d <= 0)
        return fail(err,
                    "core_rate_mbps wants Mbps > 0, got '" + val + "'");
      ft->core_rate = d * util::kMbps;
      return true;
    }
    if (key == "core_delay_ms") {
      if (!parse_duration(val, util::kMillisecond, &t) || t <= 0)
        return fail(err, "core_delay_ms wants ms > 0, got '" + val + "'");
      ft->core_delay = t;
      return true;
    }
    if (key == "buffer_bdp") {
      if (!parse_double(val, &d) || d <= 0)
        return fail(err, "buffer_bdp wants a multiple > 0, got '" + val + "'");
      ft->buffer_bdp_multiple = d;
      return true;
    }
    return fail_unknown(err, key, "fat-tree", kFatTreeKeys);
  }
  auto& wan = std::get<sim::WanGraphConfig>(spec.topology);
  if (key == "sites") {
    if (!parse_whole(val, &z) || z < 3)
      return fail(err, "sites wants an integer >= 3, got '" + val + "'");
    wan.sites = z;
    return true;
  }
  if (key == "hosts_per_site") {
    if (!parse_whole(val, &z) || z == 0)
      return fail(err,
                  "hosts_per_site wants an integer >= 1, got '" + val + "'");
    wan.hosts_per_site = z;
    return true;
  }
  if (key == "chords") {
    if (!parse_whole(val, &z))
      return fail(err, "chords wants an integer >= 0, got '" + val + "'");
    wan.extra_chords = z;
    return true;
  }
  if (key == "wan_seed") {
    if (!parse_whole(val, &z))
      return fail(err, "wan_seed wants an integer >= 0, got '" + val + "'");
    wan.seed = z;
    return true;
  }
  if (key == "min_rate_mbps") {
    if (!parse_double(val, &d) || d <= 0)
      return fail(err, "min_rate_mbps wants Mbps > 0, got '" + val + "'");
    wan.min_rate = d * util::kMbps;
    return true;
  }
  if (key == "max_rate_mbps") {
    if (!parse_double(val, &d) || d <= 0)
      return fail(err, "max_rate_mbps wants Mbps > 0, got '" + val + "'");
    wan.max_rate = d * util::kMbps;
    return true;
  }
  if (key == "min_delay_ms") {
    if (!parse_duration(val, util::kMillisecond, &t) || t <= 0)
      return fail(err, "min_delay_ms wants ms > 0, got '" + val + "'");
    wan.min_delay = t;
    return true;
  }
  if (key == "max_delay_ms") {
    if (!parse_duration(val, util::kMillisecond, &t) || t <= 0)
      return fail(err, "max_delay_ms wants ms > 0, got '" + val + "'");
    wan.max_delay = t;
    return true;
  }
  if (key == "buffer_bdp") {
    if (!parse_double(val, &d) || d <= 0)
      return fail(err, "buffer_bdp wants a multiple > 0, got '" + val + "'");
    wan.buffer_bdp_multiple = d;
    return true;
  }
  return fail_unknown(err, key, "wan-graph", kWanKeys);
}

}  // namespace phi::core::presets
