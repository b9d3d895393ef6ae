// packet.hpp — the unit of transfer in the simulator.
//
// Like ns-2, TCP here is segment-granular: `seq`/`ack` count MSS-sized
// segments, not bytes. Packets carry a sender timestamp that the receiver
// echoes, giving exact per-packet RTT samples (the timestamp option).
//
// Layout matters: in-flight packets live in the PacketPool slab and are
// copied once per hop, so fields are ordered widest-first (the six
// 8-byte words, then the 4-byte words, then the flag bytes grouped with
// sack_count) to avoid interior padding. The static_assert at the bottom
// makes padding regressions a compile error.
#pragma once

#include <array>
#include <cstdint>

#include "util/units.hpp"

namespace phi::sim {

using NodeId = std::uint32_t;
using FlowId = std::uint64_t;

inline constexpr std::int32_t kDefaultMss = 1460;        // payload bytes
inline constexpr std::int32_t kSegmentBytes = 1500;      // on-the-wire size
inline constexpr std::int32_t kAckBytes = 40;            // header-only ACK

struct Packet {
  FlowId flow = 0;
  std::int64_t seq = 0;         ///< data: segment number; ACK: unused
  std::int64_t ack = -1;        ///< cumulative ACK (next expected segment)
  util::Time sent_at = 0;       ///< stamped by the sender
  util::Time echo = 0;          ///< receiver echoes data packet's sent_at

  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t conn = 0;       ///< connection epoch within the flow
  std::int32_t size_bytes = kSegmentBytes;

  /// Causal-tracing id: nonzero when this packet's flow is sampled by
  /// the installed telemetry::EventLog (see telemetry/event.hpp);
  /// components along the path emit events tagged with it. 0 =
  /// untraced. Receivers copy it onto ACKs so the return path
  /// attributes to the same trace.
  std::uint32_t trace = 0;

  std::uint16_t priority = 0;   ///< phi §3.3 coordination weight class
  bool is_ack : 1 = false;
  bool fin : 1 = false;         ///< last segment of the connection

  // Explicit Congestion Notification (RFC 3168), for the AQM ablation.
  bool ect : 1 = false;  ///< sender is ECN-capable (ECT codepoint)
  bool ce : 1 = false;   ///< congestion experienced (set by AQM)
  bool ece : 1 = false;  ///< receiver echoes CE back to the sender (on ACKs)

  std::uint8_t sack_count = 0;

  /// Selective acknowledgment blocks (RFC 2018): up to 3 [start, end)
  /// ranges of segments received above the cumulative ACK.
  struct SackBlock {
    std::int64_t start = 0;
    std::int64_t end = 0;  ///< exclusive
  };
  std::array<SackBlock, 3> sack{};
};

// 40 bytes of 8-byte words + 20 of 4-byte words (incl. the trace id) +
// priority + one byte of packed flag bits + sack_count == 64, then 3 x
// 16-byte SACK blocks. Growing a field (or re-introducing interior
// padding) breaks the packet-pool copy budget, so it fails the build
// instead of silently slowing every hop.
static_assert(sizeof(Packet) <= 112, "Packet outgrew its 112-byte budget");

}  // namespace phi::sim
