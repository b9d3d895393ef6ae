#include "telemetry/event.hpp"

#include <bit>
#include <cstdio>
#include <set>
#include <utility>

#include "util/rng.hpp"

namespace phi::telemetry {

const char* category_name(Category c) noexcept {
  switch (c) {
    case Category::kScheduler: return "scheduler";
    case Category::kLink: return "link";
    case Category::kQueue: return "queue";
    case Category::kTcp: return "tcp";
    case Category::kContext: return "context";
    case Category::kFault: return "fault";
    case Category::kBench: return "bench";
    case Category::kPacket: return "packet";
  }
  return "other";
}

EventLog::EventLog(std::uint32_t mask, std::uint32_t trace_one_in,
                   std::uint64_t seed, std::size_t capacity)
    : mask_(mask), one_in_(trace_one_in), seed_(seed), capacity_(capacity) {
  if (mask_ != 0 || one_in_ != 0) events_.reserve(capacity_);
}

std::uint32_t EventLog::trace_of(std::uint64_t flow) const noexcept {
  if (one_in_ == 0) return 0;
  if (one_in_ > 1 && util::derive_seed(seed_, flow) % one_in_ != 0) return 0;
  const auto id = static_cast<std::uint32_t>(flow);
  return id != 0 ? id : 1;
}

namespace {

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  out += buf;
}

// Chrome "ts" is microseconds; keep nanosecond resolution as fractional
// microseconds.
void append_us(std::string& out, util::Time ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  out += buf;
}

void append_args(std::string& out, const Event& e) {
  if (e.k0 == nullptr && e.k1 == nullptr) return;
  out += ",\"args\":{";
  if (e.k0 != nullptr) {
    out += '"';
    append_escaped(out, e.k0);
    out += "\":";
    append_number(out, e.a0);
  }
  if (e.k1 != nullptr) {
    if (e.k0 != nullptr) out += ',';
    out += '"';
    append_escaped(out, e.k1);
    out += "\":";
    append_number(out, e.a1);
  }
  out += '}';
}

// The Chrome track: the trace id, or the flow id for an untraced event
// (0 for events that belong to no flow).
std::uint32_t track_of(const Event& e) noexcept {
  return e.trace != 0 ? e.trace : static_cast<std::uint32_t>(e.flow);
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

// Index of a category's ring: the position of its bit.
std::size_t index_of(Category c) noexcept {
  return static_cast<std::size_t>(std::countr_zero(mask_of(c)));
}

}  // namespace

std::string EventLog::chrome_json() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // One named track per flow so Perfetto shows "flow <id>" instead of
  // bare numbers.
  std::set<std::uint32_t> tracks;
  for (const Event& e : events_) tracks.insert(track_of(e));
  tracks.erase(0);
  for (std::uint32_t t : tracks) {
    sep();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(t);
    out += ",\"args\":{\"name\":\"flow ";
    out += std::to_string(t);
    out += "\"}}";
  }

  for (const Event& e : events_) {
    sep();
    out += "{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"ph\":\"";
    out += e.phase;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(track_of(e));
    out += ",\"ts\":";
    append_us(out, e.t0);
    switch (e.phase) {
      case 'X':
        out += ",\"dur\":";
        append_us(out, e.t1 - e.t0);
        out += ",\"cat\":\"span\"";
        break;
      case 'i':
        out += ",\"cat\":\"span\",\"s\":\"t\"";
        break;
      case 'C':
        out += ",\"cat\":\"counter\"";
        break;
      case 's':
        out += ",\"cat\":\"flow\",\"id\":";
        out += std::to_string(e.bind);
        break;
      case 'f':
        // bp:"e" binds the arrow head to the enclosing slice, which is
        // what Perfetto needs to draw report -> aggregate arrows.
        out += ",\"cat\":\"flow\",\"bp\":\"e\",\"id\":";
        out += std::to_string(e.bind);
        break;
      default:
        break;
    }
    append_args(out, e);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

std::string EventLog::jsonl() const {
  std::string out;
  for (const Event& e : events_) {
    out += "{\"ts_ns\":";
    out += std::to_string(e.t0);
    if (e.phase == 'X') {
      out += ",\"dur_ns\":";
      out += std::to_string(e.t1 - e.t0);
    }
    out += ",\"cat\":\"";
    out += category_name(e.cat);
    out += "\",\"ph\":\"";
    out += e.phase;
    out += "\",\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"trace\":";
    out += std::to_string(e.trace);
    out += ",\"flow\":";
    out += std::to_string(e.flow);
    if (e.phase == 's' || e.phase == 'f') {
      out += ",\"id\":";
      out += std::to_string(e.bind);
    }
    append_args(out, e);
    out += "}\n";
  }
  return out;
}

bool EventLog::write_chrome_json(const std::string& path) const {
  return write_text(path, chrome_json());
}

bool EventLog::write_jsonl(const std::string& path) const {
  return write_text(path, jsonl());
}

FlightRecorder::FlightRecorder(std::size_t depth) : depth_(depth) {
  for (auto& r : rings_) r.reserve(depth_);
}

void FlightRecorder::record(const Event& e) noexcept {
  auto& ring = rings_[index_of(e.cat)];
  if (ring.size() == depth_) ring.pop_front();
  ring.push_back(Entry{++seq_, e});
  if ((arm_mask_ & mask_of(e.cat)) != 0) {
    // Disarm before writing so an event emitted during the write cannot
    // fire again.
    arm_mask_ = 0;
    if (write_text(arm_path_, dump())) last_dump_ = arm_path_;
  }
}

void FlightRecorder::arm(std::uint32_t category_mask, std::string path) {
  arm_mask_ = category_mask;
  arm_path_ = std::move(path);
}

const util::RingDeque<FlightRecorder::Entry>& FlightRecorder::ring(
    Category c) const noexcept {
  return rings_[index_of(c)];
}

std::string FlightRecorder::dump() const {
  std::string out = "# flight recorder dump (last ";
  out += std::to_string(depth_);
  out += " events per component, ";
  out += std::to_string(seq_);
  out += " recorded in total)\n";
  char buf[96];
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const auto& ring = rings_[i];
    if (ring.empty()) continue;
    out += "## ";
    out += category_name(static_cast<Category>(1u << i));
    out += " (";
    out += std::to_string(ring.size());
    out += ")\n";
    for (std::size_t j = 0; j < ring.size(); ++j) {
      const Event& e = ring[j].event;
      std::snprintf(buf, sizeof(buf), "%12.6fs  #%-8llu %-28s",
                    util::to_seconds(e.t0),
                    static_cast<unsigned long long>(ring[j].seq), e.name);
      out += buf;
      if (e.flow != 0) {
        std::snprintf(buf, sizeof(buf), " flow=%llu",
                      static_cast<unsigned long long>(e.flow));
        out += buf;
      }
      auto arg = [&](const char* k, double v) {
        if (k == nullptr) return;
        std::snprintf(buf, sizeof(buf), " %s=%g", k, v);
        out += buf;
      };
      arg(e.k0, e.a0);
      arg(e.k1, e.a1);
      out += '\n';
    }
  }
  return out;
}

void FlightRecorder::clear() noexcept {
  for (auto& r : rings_) r.clear();
  seq_ = 0;
}

FlightRecorder& flight() noexcept {
  thread_local FlightRecorder recorder;
  return recorder;
}

#ifndef PHI_TELEMETRY_OFF

namespace {
thread_local EventLog* t_log = nullptr;
}  // namespace

EventLog* event_log() noexcept { return t_log; }

EventLog* set_event_log(EventLog* log) noexcept {
  return std::exchange(t_log, log);
}

void emit(const Event& e) noexcept {
  if (t_log != nullptr) t_log->record(e);
  if (e.phase == 'i' && e.cat != Category::kPacket) flight().record(e);
}

#endif  // PHI_TELEMETRY_OFF

}  // namespace phi::telemetry
