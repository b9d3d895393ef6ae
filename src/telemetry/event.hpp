// event.hpp — the one way to emit a telemetry event. A component fills
// a trivially copyable Event and hands it to emit(), which routes it to
// the calling thread's two views: the installed EventLog, if any (trace
// export), and the always-on FlightRecorder (the last instants of each
// category). Neither view allocates while recording. Under
// PHI_TELEMETRY_OFF, emit() is an empty inline function, no log can be
// installed and trace_of() is 0, so every call site folds away.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ring.hpp"
#include "util/units.hpp"

namespace phi::telemetry {

/// Event categories, one bit each, combinable into enable masks.
enum class Category : std::uint32_t {
  kScheduler = 1u << 0,  ///< event loop: compactions
  kLink = 1u << 1,       ///< links: drops, outages, monitor counters
  kQueue = 1u << 2,      ///< queue discs: RED marks/early drops
  kTcp = 1u << 3,        ///< senders: state transitions, connections
  kContext = 1u << 4,    ///< Phi control plane and its causal chain
  kFault = 1u << 5,      ///< fault injector: every fault actually fired
  kBench = 1u << 6,      ///< harness-level markers
  /// The per-packet path of traced flows (link transit, queue
  /// residency, node arrival). Emitted only for traced packets, so the
  /// flight recorder never keeps it: its rings must not depend on
  /// whether a flow is traced.
  kPacket = 1u << 7,
};

inline constexpr std::size_t kCategoryCount = 8;
inline constexpr std::uint32_t kAllCategories = 0xFFFFFFFFu;

inline constexpr std::uint32_t mask_of(Category c) noexcept {
  return static_cast<std::uint32_t>(c);
}

const char* category_name(Category c) noexcept;

/// One telemetry event. Names and argument keys must be string literals
/// (or otherwise outlive every view): they are stored by pointer.
struct Event {
  const char* name = "";
  Category cat = Category::kBench;
  /// 'i' instant, 'X' span [t0, t1], 'C' counter sample (value in a0),
  /// 's'/'f' the producer/consumer half of a causal arrow.
  char phase = 'i';
  util::Time t0 = 0;        ///< event time (ns); span begin for 'X'
  util::Time t1 = 0;        ///< span end for 'X'; unused otherwise
  std::uint32_t trace = 0;  ///< trace id from trace_of(); 0 = untraced
  std::uint32_t bind = 0;   ///< arrow binding id from next_bind()
  std::uint64_t flow = 0;   ///< flow the event belongs to; 0 = none
  const char* k0 = nullptr;  ///< first argument's key; nullptr = absent
  double a0 = 0.0;
  const char* k1 = nullptr;
  double a1 = 0.0;
};

/// The recording view behind trace export: keeps the events of the
/// categories in `mask` plus every event that carries a trace id, in
/// emit order. Single-threaded; install one per thread.
class EventLog {
 public:
  /// Samples 1 in `trace_one_in` flows (1 = every flow, 0 = none),
  /// keyed by `seed`. Keeps at most `capacity` events in a buffer
  /// reserved up front when the log can keep anything at all (a nonzero
  /// mask or sampling rate); later events count in dropped().
  EventLog(std::uint32_t mask, std::uint32_t trace_one_in,
           std::uint64_t seed, std::size_t capacity);

  /// The trace id for `flow`: nonzero iff the flow is sampled. A pure
  /// function of (flow, seed, trace_one_in), so the same flows are
  /// traced on every run regardless of thread count or event order.
  std::uint32_t trace_of(std::uint64_t flow) const noexcept;

  /// A fresh binding id pairing one 's' arrow half with one 'f' half.
  std::uint32_t next_bind() noexcept { return ++bind_seq_; }

  /// Keep `e` if its category is in the mask or it carries a trace id;
  /// past capacity, count it in dropped() instead.
  void record(const Event& e) noexcept {
    if (e.trace == 0 && (mask_ & mask_of(e.cat)) == 0) return;
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  const std::vector<Event>& events() const noexcept { return events_; }
  std::size_t dropped() const noexcept { return dropped_; }
  void clear() noexcept {
    events_.clear();
    dropped_ = 0;
    bind_seq_ = 0;
  }

  /// Chrome trace_event JSON ("ts" in microseconds): one track per
  /// trace id (or flow id, for untraced events), named "flow <id>",
  /// spans as 'X' slices, instants scoped to their track, and arrows as
  /// paired 's'/'f' events that Perfetto draws between slices.
  std::string chrome_json() const;
  /// One JSON object per line, with the category and nanosecond times.
  std::string jsonl() const;
  bool write_chrome_json(const std::string& path) const;
  bool write_jsonl(const std::string& path) const;

 private:
  std::uint32_t mask_;
  std::uint32_t one_in_;
  std::uint64_t seed_;
  std::size_t capacity_;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
  std::uint32_t bind_seq_ = 0;
};

/// The always-on black box: emit() hands every instant outside kPacket
/// to the calling thread's recorder, which keeps the last `depth` of each
/// category in a preallocated ring. When something rare happens, such as
/// an injected fault, the recent history of every component is already
/// in memory and can be dumped without re-running the simulation. Spans,
/// arrows, counters and per-packet points never reach it, so turning
/// flow tracing on changes nothing in the rings.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultDepth = 128;

  struct Entry {
    std::uint64_t seq;  ///< global recording order across categories
    Event event;
  };

  explicit FlightRecorder(std::size_t depth = kDefaultDepth);

  /// Keep `e` in its category's ring, evicting the oldest past depth(),
  /// and fire an armed dump if the category matches. Never allocates
  /// after construction (the dump itself does).
  void record(const Event& e) noexcept;

  /// One-shot: the next recorded event whose category is in
  /// `category_mask` writes dump() to `path`.
  void arm(std::uint32_t category_mask, std::string path);
  bool armed() const noexcept { return arm_mask_ != 0; }
  /// Path of the last armed dump that was written ("" if none).
  const std::string& last_dump_path() const noexcept { return last_dump_; }

  std::size_t depth() const noexcept { return depth_; }
  /// Total events ever recorded (kept + evicted).
  std::uint64_t recorded() const noexcept { return seq_; }
  const util::RingDeque<Entry>& ring(Category c) const noexcept;

  /// Text dump: per-category sections, events in recording order.
  std::string dump() const;

  void clear() noexcept;

 private:
  std::size_t depth_;
  std::uint64_t seq_ = 0;
  util::RingDeque<Entry> rings_[kCategoryCount];
  std::uint32_t arm_mask_ = 0;
  std::string arm_path_;
  std::string last_dump_;
};

/// This thread's recorder. Thread-local for the same reason as the
/// installed EventLog: parallel simulation tasks never share one.
FlightRecorder& flight() noexcept;

#ifndef PHI_TELEMETRY_OFF

/// Route `e` to this thread's installed log, if any, and — when it is
/// an instant outside kPacket — to this thread's flight recorder.
void emit(const Event& e) noexcept;
/// This thread's installed log; nullptr = none. Thread-local so
/// parallel tasks never share one; the caller keeps ownership.
EventLog* event_log() noexcept;
/// Install `log` (nullptr removes it); returns the previous one.
EventLog* set_event_log(EventLog* log) noexcept;

#else  // PHI_TELEMETRY_OFF

inline void emit(const Event&) noexcept {}
inline EventLog* event_log() noexcept { return nullptr; }
inline EventLog* set_event_log(EventLog*) noexcept { return nullptr; }

#endif  // PHI_TELEMETRY_OFF

/// The installed log's trace id for `flow` (0 when no log is installed).
/// Senders ask once, at construction, and stamp it on every packet.
inline std::uint32_t trace_of(std::uint64_t flow) noexcept {
  const EventLog* log = event_log();
  return log != nullptr ? log->trace_of(flow) : 0;
}

/// A fresh arrow binding id from the installed log (0 without one).
inline std::uint32_t next_bind() noexcept {
  EventLog* log = event_log();
  return log != nullptr ? log->next_bind() : 0;
}

}  // namespace phi::telemetry
