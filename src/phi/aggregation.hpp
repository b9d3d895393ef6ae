// aggregation.hpp — hierarchical context aggregation. A single flat
// ContextServer is the paper's starting point, but "five computers" run
// fleets: millions of connections per second cannot all do a synchronous
// round trip to one root. An AggregatorServer is the per-region tier of
// an aggregation tree: clients in a region talk to their aggregator
// exactly like they would to the root (it implements ContextService), the
// aggregator answers lookups immediately from a locally cached snapshot
// of the root's reply, and batches the protocol traffic — reports and the
// lookups themselves — upward on a flush interval / batch-size bound.
//
// The cost of the tier is staleness: a lookup served from the cache
// reflects the root's state as of the last completed batch round trip.
// The aggregator measures exactly that (per-lookup snapshot age, into a
// RunningStats and a registry time-series), so benches can plot the
// lookup-rate-vs-staleness trade the tree buys.
//
// Transport is modeled with scheduler timers rather than simulated
// packets: a batch "leaves" when the flush fires and "arrives" one
// uplink_delay later, at which point reports are forwarded verbatim
// (identities intact — the root's idempotency still applies) and queued
// lookups are re-issued against the parent, whose replies refresh the
// per-path cache. Aggregators compose: the parent is any ContextService,
// so deeper trees are just aggregators pointed at aggregators.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "phi/context.hpp"
#include "phi/protocol.hpp"
#include "sim/event.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace phi::core {

struct AggregatorConfig {
  /// Oldest a queued message can get before the batch is pushed upward.
  util::Duration flush_interval = util::milliseconds(100);
  /// Queued messages (reports + lookups) that force an immediate flush.
  std::size_t batch_max = 128;
  /// One-way aggregator->root latency; a flushed batch is delivered (and
  /// the cache refreshed) this long after the flush.
  util::Duration uplink_delay = util::milliseconds(5);
  /// Region label on this aggregator's telemetry.
  std::string name = "region";
};

class AggregatorServer : public ContextService, public ContextSource {
 public:
  AggregatorServer(sim::Scheduler& sched, ContextService& parent,
                   AggregatorConfig cfg = {});

  /// Serve the cached per-path snapshot (default reply on a cold path)
  /// and queue the request for upward forwarding, so the root still sees
  /// every connection's lease.
  LookupReply lookup(const LookupRequest& req) override;

  /// Queue the report for the next batch; identity fields ride along so
  /// the root absorbs each report exactly once even via the tree.
  void report(const Report& r) override;

  /// Push any queued traffic upward now (plus the uplink delay); also
  /// used by tests to drain without waiting for the interval.
  void flush();

  /// Cached view of a path (ContextSource) — same snapshot lookups see.
  CongestionContext context(PathKey path) const override;

  std::uint64_t lookups() const noexcept { return lookups_; }
  std::uint64_t reports() const noexcept { return reports_; }
  std::uint64_t flushes() const noexcept { return flushes_; }
  /// Messages actually delivered upward (reports + re-issued lookups).
  std::uint64_t forwarded() const noexcept { return forwarded_; }
  /// Lookups answered before any snapshot existed for the path.
  std::uint64_t cold_lookups() const noexcept { return cold_lookups_; }
  /// Snapshot age at serve time, over all cache-hit lookups.
  const util::RunningStats& staleness() const noexcept { return staleness_; }
  const AggregatorConfig& config() const noexcept { return cfg_; }

 private:
  struct Batch {
    std::vector<Report> reports;
    std::vector<LookupRequest> lookups;
  };
  struct Snapshot {
    LookupReply reply;
    util::Time at = 0;
  };

  void enqueue_common();
  void deliver();

  sim::Scheduler& sched_;
  ContextService& parent_;
  AggregatorConfig cfg_;
  Batch queue_;
  std::deque<Batch> in_flight_;  ///< flushed, not yet delivered (FIFO)
  std::unordered_map<PathKey, Snapshot> cache_;
  sim::EventId pending_flush_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t reports_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t cold_lookups_ = 0;
  util::RunningStats staleness_;

  telemetry::Counter* ctr_lookups_;
  telemetry::Counter* ctr_reports_;
  telemetry::Counter* ctr_flushes_;
  telemetry::Counter* ctr_forwarded_;
  /// Age of every warm lookup's answer; sampled only inside a run that
  /// records time series (telemetry::recording_series()).
  telemetry::TimeSeries* ts_staleness_;
};

}  // namespace phi::core
