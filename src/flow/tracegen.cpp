#include "flow/tracegen.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace phi::flow {

SharingAnalysis analyze_trace(const TraceConfig& cfg) {
  util::Rng rng(cfg.seed);
  const util::ZipfSampler zipf(cfg.subnets, cfg.zipf_s);
  const util::BoundedPareto size(cfg.pareto_alpha, cfg.min_packets,
                                 cfg.max_packets);
  PacketSampler sampler(cfg.sampling);
  FlowCollector collector;
  SharingAnalysis out;

  // Port/source diversity for the 4-tuples; the provider's side.
  constexpr std::uint32_t kProviderIpBase = 0x0A000000;  // 10.0.0.0

  for (int minute = 0; minute < cfg.minutes; ++minute) {
    const std::uint64_t flows = rng.poisson(cfg.flows_per_minute);
    // Ground-truth flows per subnet this minute.
    std::unordered_map<std::uint32_t, std::uint32_t> truth;
    truth.reserve(1024);

    for (std::uint64_t f = 0; f < flows; ++f) {
      const auto subnet = static_cast<std::uint32_t>(zipf(rng));
      const auto packets = static_cast<std::uint64_t>(size(rng));
      ++truth[subnet];
      ++out.total_flows;
      out.total_packets += packets;

      const std::uint64_t hits = sampler.observe(packets);
      out.sampled_packets += hits;
      if (hits > 0) {
        IpfixRecord rec;
        rec.minute = minute;
        rec.flow.src_ip =
            kProviderIpBase + static_cast<std::uint32_t>(rng.below(256));
        rec.flow.src_port = static_cast<std::uint16_t>(rng.below(65536));
        rec.flow.dst_ip = (subnet << 8) |
                          static_cast<std::uint32_t>(rng.below(256));
        rec.flow.dst_port = 443;
        collector.ingest(rec);
      }
    }

    for (const auto& [subnet, n] : truth) {
      if (n > 0)
        out.true_sharing.add(static_cast<std::int64_t>(n) - 1, n);
    }
  }

  out.sampled_sharing = collector.sharing_cdf();
  out.observed_flows = collector.distinct_flows();
  return out;
}

std::size_t expected_sessions(const SessionConfig& cfg) {
  if (cfg.arrivals_per_s <= 0 || cfg.horizon_s <= 0 || cfg.ranks == 0)
    return 0;
  double n = std::min(cfg.arrivals_per_s * cfg.horizon_s * 1.1 + 16.0, 4e7);
  if (cfg.max_sessions > 0)
    n = std::min(n, static_cast<double>(cfg.max_sessions));
  return static_cast<std::size_t>(n);
}

std::vector<Session> generate_sessions(const SessionConfig& cfg) {
  std::vector<Session> out;
  out.reserve(expected_sessions(cfg));
  for_each_session(cfg, [&out](const Session& s) { out.push_back(s); });
  return out;
}

}  // namespace phi::flow
