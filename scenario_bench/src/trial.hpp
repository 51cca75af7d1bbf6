// One trial of a benchmark workload, driven from the simulator's public
// pieces: parse and build the topology, wire the OSNT device ports to the
// graph exactly as graph::run_topology_trial does, and advance the engine
// in fixed simulated-time slices. A traced trial additionally wraps every
// FrameSink seam between the device ports and the graph in a span and
// switches on the engine's per-category handler timing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "osnt/common/time.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/net/packet.hpp"
#include "spans.hpp"

namespace scenario_bench {

/// What most of a workload's frames look like; the unit-cost probes
/// report their headline figures on this shape.
enum class Shape : std::uint8_t { kUdp, kTcpData, kTcpAck, kTcpSyn, kOther };

[[nodiscard]] Shape classify(const osnt::net::Packet& pkt);
[[nodiscard]] const char* shape_name(Shape s);

struct WorkloadDef {
  const char* name;
  const char* why;
  osnt::Picos duration;   ///< simulated traffic time of one trial
  osnt::Picos slice;      ///< run_until step
  const char* bottleneck; ///< block whose counters are reported
  Shape primary;
};

[[nodiscard]] const std::vector<WorkloadDef>& workloads();
[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);

/// A FrameSink seam that was wrapped in a traced trial.
struct SeamResult {
  std::string name;
  std::uint32_t span_name = 0;  ///< interned span name
  std::string block;  ///< graph block behind the seam ("" for device RX)
  std::uint64_t calls = 0;
  std::uint64_t block_frames_in = 0;  ///< that block's own count
  double self_s = 0.0;
  std::vector<osnt::net::Packet> shapes;
};

struct TrialResult {
  // Set-up phases, host seconds.
  double parse_s = 0.0;     ///< topology parse + validation
  double build_s = 0.0;     ///< engine, device, graph build, wiring, start
  double workload_s = 0.0;  ///< workload construction and start
  [[nodiscard]] double setup_s() const {
    return parse_s + build_s + workload_s;
  }

  double run_s = 0.0;             ///< host seconds of the run phase
  osnt::Picos sim_time = 0;       ///< simulated time the run phase covered
  std::vector<double> slice_s;    ///< host seconds per slice

  std::uint64_t events = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t live_high_water = 0;
  /// Frames entering the graph: device TX into the graph inputs plus
  /// frames emitted by source blocks inside it.
  std::uint64_t frames_entered = 0;
  std::uint64_t tcp_bytes_sent = 0;
  std::uint64_t burst_frames = 0;
  std::uint64_t burst_bursts = 0;

  /// Block counters and workload report, as run_topology_trial fills them.
  osnt::graph::TopologyTrialReport report;
  /// Hash of the kSimOnly telemetry snapshot (zero-valued entries left
  /// out, so metrics registered by earlier trials do not change it).
  std::string sim_digest;
  /// Every counter and gauge of the trial's telemetry (kAll).
  std::map<std::string, double> telemetry;

  /// Mean of the host-speed probe run just before and just after the
  /// trial (untraced trials only; set by the caller).
  double host_probe_s = 0.0;

  // Traced trials only.
  std::vector<SeamResult> seams;
  double handler_s_total = 0.0;  ///< summed engine handler time
};

/// Run one trial. `spans` non-null makes it a traced trial.
[[nodiscard]] TrialResult run_trial(const std::string& topo_text,
                                    const WorkloadDef& w, std::uint64_t seed,
                                    SpanRecorder* spans);

/// graph::run_topology_trial on the same file, seed and duration.
[[nodiscard]] osnt::graph::TopologyTrialReport reference_trial(
    const std::string& topo_text, const WorkloadDef& w, std::uint64_t seed);

/// Empty when the two reports agree exactly; otherwise the first
/// difference found.
[[nodiscard]] std::string compare_reports(
    const osnt::graph::TopologyTrialReport& ours,
    const osnt::graph::TopologyTrialReport& ref);

}  // namespace scenario_bench
