// Unit-cost probes: the host cost of one call to each per-frame function
// the ROADMAP profile names, timed on frames a workload actually carried.
#pragma once

#include <string>

#include "osnt/net/packet.hpp"
#include "trial.hpp"

namespace scenario_bench {

struct ProbeRow {
  Shape shape = Shape::kOther;
  std::size_t bytes = 0;  ///< frame bytes without FCS
  double crc32_ns = 0.0;
  double l4_checksum_v4_ns = 0.0;  ///< 0 when the frame has no IPv4 L4
  double parse_packet_ns = 0.0;
  /// Timed on the frame's TCP option bytes; a frame without options
  /// passes an empty option area.
  double parse_tcp_options_ns = 0.0;
};

/// Median ns per call over repeated batches of calls on `pkt`.
[[nodiscard]] ProbeRow probe_frame(const osnt::net::Packet& pkt);

/// Host seconds for a fixed hold-model run on a binary heap (the classic
/// event-queue benchmark: pop the earliest key, push it back later). It
/// uses no simulator code, so it reads the host's current speed and
/// nothing of the program's; run next to a trial, it lets the trial's
/// times be scaled to a reference host speed.
[[nodiscard]] double host_speed_probe_s();

}  // namespace scenario_bench
