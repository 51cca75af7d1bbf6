// Declarative topologies: a JSON file names a set of blocks, wires their
// ports, and picks a workload; TopologyFile turns that into a live Graph
// and TopologyTrial closes the loop with the OSNT device — TCP flows or a
// CBR stream enter the graph at `ingress` and leave at `egress`, with an
// optional separate path for the ACK direction. TopologyTrial is the one
// trial driver: `osnt_run tcp` runs tcp_preset(), a generated one-block
// topology, through it too.
//
// Parsing is strict (osnt::json): any unknown key or misspelled block
// type is a hard error with the line/column it occurred at, plus a
// did-you-mean suggestion for plausible typos. Wiring errors are the
// Graph's, named by edge or workload endpoint when a trial wires them.
// Each block type is one row of a table in topology.cpp holding its
// name, the keys it reads and how it is built; a new block type is one
// new row.
//
// Determinism: per-block random streams (RED's drop lottery, delay_ber's
// corruption) are derived from the trial seed and the block's ordinal,
// so a topology run is byte-identical for a fixed (file, seed) pair at
// any --jobs value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "osnt/burst/source.hpp"
#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/dut_blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/tcp/workload.hpp"
#include "osnt/telemetry/series.hpp"
#include "osnt/telemetry/trace.hpp"

namespace osnt::graph {

/// Load/validation failure: what was wrong and (when it came from JSON)
/// where in the file.
class TopologyError : public GraphError {
 public:
  using GraphError::GraphError;
};

/// "block" or "block:port" in an edge or workload attachment.
struct Endpoint {
  std::string block;
  std::size_t port = 0;
};

/// One block declaration. `type` names its row in the loader's
/// block-type table, which reads the type's keys into `config` and
/// builds the block. Parsed fields read as
/// std::get<FifoQueueConfig>(spec.config).queue_frames.
struct BlockSpec {
  /// One alternative per block type; `sink` has no settings.
  using Config =
      std::variant<std::monostate, FifoQueueConfig, RedConfig,
                   TokenBucketConfig, DelayBerConfig, EcmpConfig,
                   MonitorConfig, dut::LegacySwitchConfig,
                   OpenFlowSwitchBlockConfig, burst::BurstSourceConfig>;

  std::string name;
  std::string type;
  Config config;
};

struct EdgeSpec {
  Endpoint from;
  Endpoint to;
  Picos propagation = 0;
};

/// The traffic that drives the graph.
struct WorkloadSpec {
  enum class Kind : std::uint8_t { kNone, kTcp, kCbr };
  Kind kind = Kind::kNone;

  Endpoint ingress;  ///< where device TX enters the graph
  Endpoint egress;   ///< which block output feeds the device RX
  /// Optional ACK-direction path (tcp only). Absent = a direct reverse
  /// cable, i.e. an ideal return channel.
  std::optional<Endpoint> ack_ingress;
  std::optional<Endpoint> ack_egress;

  // --- tcp ---
  std::size_t flows = 1;
  std::string cc = "newreno";
  std::uint32_t mss = 1448;
  double bottleneck_gbps = 0.0;  ///< source-side TX drain; 0 = line rate
  std::size_t queue_segments = 256;
  std::uint64_t rwnd_kb = 1024;      ///< at least 1
  std::uint64_t bytes_per_flow = 0;  ///< 0 = unbounded (duration-limited)
  Picos min_rto = kPicosPerMilli;    ///< 0 < min_rto <= max_rto; §11
  Picos max_rto = 250 * kPicosPerMilli;
  /// Arm the per-flow RateLimitDetector (tcp/rate_limit_detector.hpp) so
  /// the congestion controller adapts to in-path policers/shapers.
  bool rate_limit_detector = false;

  // --- cbr ---
  double rate_gbps = 1.0;
  std::size_t frame_size = 256;
  std::uint32_t flow_count = 1;
};

/// A parsed topology file. Pure data until build() is called.
struct TopologyFile {
  std::string name;
  std::uint64_t seed = 1;
  Picos duration = 10 * kPicosPerMilli;
  std::vector<BlockSpec> blocks;
  std::vector<EdgeSpec> edges;
  WorkloadSpec workload;

  /// Parse, then validate_workload, so every load path rejects the same
  /// values. Throws TopologyError, with file positions where the error
  /// has one. Wiring is checked by build(), not here.
  [[nodiscard]] static TopologyFile from_json(const std::string& text);
  [[nodiscard]] static TopologyFile load(const std::string& path);

  /// The block type names the loader accepts, in table order (for
  /// did-you-mean, --help and docs).
  [[nodiscard]] static const std::vector<std::string>& known_types();

  /// Instantiate every block and edge into `g`. Per-block random streams
  /// derive from `trial_seed` and the block ordinal. `horizon` is the run
  /// length burst_source schedules render over (0 = the file's duration).
  /// A wiring error names its edge (`edges[i]: ...`).
  void build(sim::Engine& eng, Graph& g, std::uint64_t trial_seed,
             Picos horizon = 0) const;
};

/// Per-block counter row captured before the graph is torn down.
struct BlockCounters {
  std::string name;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t drops = 0;
  std::uint64_t frame_bytes = 0;
  /// In-plane latency summary (monitor blocks only; 0 samples otherwise).
  std::uint64_t rtt_samples = 0;
  double rtt_p50_ns = 0.0;
  double rtt_p90_ns = 0.0;
  double rtt_p99_ns = 0.0;
};

struct TopologyTrialReport {
  tcp::TcpTrialReport tcp{};  ///< meaningful when workload.kind == kTcp
  core::RunResult cbr{};      ///< meaningful when workload.kind == kCbr
  std::vector<BlockCounters> blocks;
  std::uint64_t graph_frames_in = 0;
  std::uint64_t graph_drops = 0;
  /// Filled when a series interval was requested (see TopologyTrial).
  telemetry::SeriesData series{};
};

/// Semantic workload validation beyond parse-time shape checks: tcp cc
/// names (with did-you-mean), the bottleneck rate and RTO clamp, cbr
/// rate/frame-size ranges, and every burst_source block's pattern config.
/// Throws TopologyError. from_json already runs it; it stays callable on
/// a TopologyFile built by hand.
void validate_workload(const TopologyFile& topo);

/// The `osnt_run tcp` preset: tcp workload `w` (its ingress/egress
/// overwritten) on one pass-through monitor block named "cable": device
/// port 0 → cable → port 1, ACKs on a direct reverse cable. Throws
/// TopologyError where validate_workload does.
[[nodiscard]] TopologyFile tcp_preset(WorkloadSpec w);

/// One deterministic trial. The constructor builds a fresh engine, device
/// and graph from `topo`, attaches the workload at its endpoints and arms
/// the fault plan, so a caller can time run() alone or set engine
/// switches (set_wheel_enabled) first; a trial never run is the dry run.
/// `duration` 0 = the file's; `trace` is for single-threaded trials only. `series_interval > 0` samples
/// per-block frames/bytes/drops, monitor RTT histograms and the tcp.*
/// aggregates; per-trial series merge commutatively, so sharded runs stay
/// byte-identical at any --jobs.
class TopologyTrial {
 public:
  TopologyTrial(const TopologyFile& topo, std::uint64_t trial_seed,
                Picos duration = 0, const fault::FaultPlan* plan = nullptr,
                telemetry::TraceRecorder* trace = nullptr,
                Picos series_interval = 0);
  TopologyTrial(const TopologyTrial&) = delete;
  TopologyTrial& operator=(const TopologyTrial&) = delete;

  /// Start the graph and the workload; simulate to the duration. Once.
  void run();
  /// Once, after run() (the series moves out).
  [[nodiscard]] TopologyTrialReport report();

  [[nodiscard]] sim::Engine& engine() { return eng_; }
  /// The built graph; block i is topo.blocks[i].
  [[nodiscard]] Graph& graph() { return g_; }
  /// Null unless the workload is tcp.
  [[nodiscard]] tcp::ClosedLoopWorkload* tcp_workload() {
    return tcp_ ? &*tcp_ : nullptr;
  }

 private:
  WorkloadSpec spec_;
  std::uint64_t seed_;
  Picos duration_;
  sim::Engine eng_;
  core::OsntDevice dev_{eng_};
  Graph g_{eng_};
  std::optional<telemetry::TimeSeries> series_;
  std::optional<tcp::ClosedLoopWorkload> tcp_;
  std::optional<fault::Injector> injector_;
  core::RunResult cbr_{};
};

/// Construct, run and report one TopologyTrial.
[[nodiscard]] TopologyTrialReport run_topology_trial(
    const TopologyFile& topo, std::uint64_t trial_seed, Picos duration = 0,
    const fault::FaultPlan* plan = nullptr,
    telemetry::TraceRecorder* trace = nullptr, Picos series_interval = 0);

}  // namespace osnt::graph
