// ClosedLoopWorkload: N congestion-controlled flows over one cabled pair
// of OSNT ports. The sender side lives on `tx_port`: per-flow tcp::Flow
// state machines emit TCP/IPv4 frames into one shared
// gen::ClosedLoopSource, which the port's TX pipeline drains at the
// configured bottleneck rate (the queue bound is the bottleneck buffer).
// The receiver side hangs off `rx_port`'s monitor pipeline tap: per-flow
// delayed-ACK reassembly state that transmits cumulative/duplicate ACKs
// back through the reverse sim link — so loss injected anywhere on the
// path (osnt::fault BER windows, flaps) closes the control loop.
//
// Built for flow counts in the 10k–1M range (DESIGN.md §12): flows live
// in a generation-counted Slab (no per-flow unique_ptr), receiver state
// is split hot/cold so the per-ACK touch set stays cache-resident, and
// the per-frame demux is pure index arithmetic over the flow addressing
// scheme — no map lookups anywhere on the RX tap path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "osnt/core/device.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/gen/closed_loop.hpp"
#include "osnt/mon/latency_probe.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/tcp/flow.hpp"
#include "osnt/tcp/flow_slab.hpp"
#include "osnt/telemetry/series.hpp"

namespace osnt::tcp {

struct WorkloadConfig {
  std::size_t flows = 1;
  std::string cc = "newreno";
  std::uint32_t mss = 1448;          ///< 1448 ⇒ 1518 B frames with options
  std::uint64_t seed = 1;            ///< trial seed; flows derive substreams
  double bottleneck_gbps = 0.0;      ///< TX drain rate; 0 = port line rate
  std::size_t queue_segments = 256;  ///< bottleneck buffer, in frames
  std::uint64_t rwnd_bytes = std::uint64_t{1} << 20;
  std::uint64_t bytes_per_flow = 0;  ///< 0 = unbounded (duration-limited)
  std::size_t tx_port = 0;
  std::size_t rx_port = 1;
  Picos min_rto = kPicosPerMilli;    ///< sim-scaled; see DESIGN.md §11
  Picos max_rto = 250 * kPicosPerMilli;
  Picos delayed_ack_timeout = 200 * kPicosPerMicro;
  bool capture = false;              ///< keep the DMA capture path off
  /// Route RTO/delack/pacing timers through the engine's timing wheel
  /// (schedule_bulk_*). false = heap-only; firing order and kSimOnly
  /// telemetry are identical either way (DESIGN.md §12).
  bool wheel_timers = true;
  /// Arm the per-flow R-TCP-style RateLimitDetector (DESIGN.md §15).
  /// Off by default; off is byte-identical to pre-detector builds.
  bool rate_limit_detector = false;
};

// --- flow addressing -------------------------------------------------
// The demux must invert a frame's {dst IP, dst port} back to a flow index
// in O(1), so the index is split across the header fields: the low
// kPortIndexBits land in the port number, the high bits in the third IP
// octet. Good for kMaxFlows = 2^21 flows before an octet would overflow.
inline constexpr std::uint16_t kSenderPortBase = 40000;
inline constexpr std::uint16_t kReceiverPortBase = 50000;
inline constexpr std::uint32_t kPortIndexBits = 13;
inline constexpr std::uint32_t kPortsPerGroup = 1u << kPortIndexBits;  // 8192
inline constexpr std::size_t kMaxFlows = std::size_t{kPortsPerGroup} << 8;

/// Sender-side endpoint of flow `i`: 10.0.<i/8192>.1:<40000 + i%8192>.
[[nodiscard]] inline net::Ipv4Addr sender_ip_of(std::size_t i) noexcept {
  return net::Ipv4Addr::of(10, 0, static_cast<std::uint8_t>(i >> kPortIndexBits),
                           1);
}
/// Receiver-side endpoint of flow `i`: 10.1.<i/8192>.1:<50000 + i%8192>.
[[nodiscard]] inline net::Ipv4Addr receiver_ip_of(std::size_t i) noexcept {
  return net::Ipv4Addr::of(10, 1, static_cast<std::uint8_t>(i >> kPortIndexBits),
                           1);
}
[[nodiscard]] inline std::uint16_t sender_port_of(std::size_t i) noexcept {
  return static_cast<std::uint16_t>(kSenderPortBase +
                                    (i & (kPortsPerGroup - 1)));
}
[[nodiscard]] inline std::uint16_t receiver_port_of(std::size_t i) noexcept {
  return static_cast<std::uint16_t>(kReceiverPortBase +
                                    (i & (kPortsPerGroup - 1)));
}

inline constexpr std::size_t kNoFlow = static_cast<std::size_t>(-1);

/// Invert a data frame's destination {ip, port} to its flow index, or
/// kNoFlow for foreign traffic. Pure arithmetic — the O(1) demux.
[[nodiscard]] inline std::size_t flow_index_of_data(
    net::Ipv4Addr dst_ip, std::uint16_t dst_port) noexcept {
  const std::uint32_t off = static_cast<std::uint32_t>(dst_port) -
                            kReceiverPortBase;  // unsigned: below-base wraps big
  if (off >= kPortsPerGroup) return kNoFlow;
  const std::uint32_t v = dst_ip.v;
  if ((v >> 16) != ((10u << 8) | 1u) || (v & 0xffu) != 1u) return kNoFlow;
  return (static_cast<std::size_t>((v >> 8) & 0xffu) << kPortIndexBits) | off;
}

/// Same inversion for the ACK direction (dst is the sender endpoint).
[[nodiscard]] inline std::size_t flow_index_of_ack(
    net::Ipv4Addr dst_ip, std::uint16_t dst_port) noexcept {
  const std::uint32_t off =
      static_cast<std::uint32_t>(dst_port) - kSenderPortBase;
  if (off >= kPortsPerGroup) return kNoFlow;
  const std::uint32_t v = dst_ip.v;
  if ((v >> 16) != (10u << 8) || (v & 0xffu) != 1u) return kNoFlow;
  return (static_cast<std::size_t>((v >> 8) & 0xffu) << kPortIndexBits) | off;
}

// --- receiver state, split hot/cold ----------------------------------

/// The per-segment receiver touch set: everything the in-order fast path
/// reads or writes, packed to 48 bytes (¾ of a cache line, no map, no
/// EventId indirection beyond the lazy delack handle).
struct ReceiverHot {
  std::uint64_t rcv_nxt = 0;  ///< absolute stream offset (wire seq − ISN)
  std::uint64_t bytes_in_order = 0;
  std::uint64_t acks_sent = 0;
  sim::EventId delack_timer{};  ///< lazy: armed once, checked on fire
  std::uint32_t isn = 0;
  std::uint32_t pending_ack_segs = 0;
  std::uint32_t last_tsval = 0;  ///< tsval of last in-order arrival
};
static_assert(sizeof(ReceiverHot) <= 48, "per-segment touch set grew");

/// Loss-episode state: only touched when a hole opens or a spurious
/// retransmit lands, so it stays out of the hot array entirely.
struct ReceiverCold {
  std::map<std::uint64_t, std::uint64_t> ooo;  ///< [start, end) intervals
  std::uint64_t ooo_segs = 0;
  std::uint64_t below_window_segs = 0;  ///< spurious-retransmit arrivals
};

/// Aggregate result of one closed-loop trial (the unit osnt_run tcp,
/// tests, and the bench all shard through core::Runner).
struct TcpTrialReport {
  std::uint64_t bytes_acked = 0;
  std::uint64_t segs_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t fast_retx = 0;
  std::uint64_t cwnd_reductions = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t emit_rejects = 0;
  double goodput_bps = 0.0;
  double min_flow_rate_bps = 0.0;  ///< slowest flow's delivery-rate sample
  double max_flow_rate_bps = 0.0;
  // Rate-limit detector aggregates (0 when the detector is off).
  std::uint64_t rld_detections = 0;
  double rld_rate_bps = 0.0;       ///< mean detected rate across flows
  Picos rld_detect_time = 0;       ///< mean first-sample→detect latency
  // In-plane RTT summary (from the workload's tcp.rtt probe): p99 and
  // the observed floor, so callers can report queueing inflation.
  double rtt_p99_ns = 0.0;
  double rtt_min_ns = 0.0;
};

class ClosedLoopWorkload {
 public:
  /// Reconfigures `tx_port`'s generator pipeline, installs monitor taps
  /// on both ports, and sets the engine's bulk-timer routing from
  /// cfg.wheel_timers. The engine and device must outlive the workload;
  /// the workload must be destroyed before either (it cancels its timers
  /// and detaches its taps in the destructor).
  ClosedLoopWorkload(sim::Engine& eng, core::OsntDevice& dev,
                     WorkloadConfig cfg);
  ~ClosedLoopWorkload();

  ClosedLoopWorkload(const ClosedLoopWorkload&) = delete;
  ClosedLoopWorkload& operator=(const ClosedLoopWorkload&) = delete;

  /// Start the TX pipeline and open every flow's window.
  void start();

  [[nodiscard]] std::size_t num_flows() const { return flows_.size(); }
  [[nodiscard]] Flow& flow(std::size_t i) {
    return flows_[static_cast<std::uint32_t>(i)];
  }
  [[nodiscard]] const Flow& flow(std::size_t i) const {
    return flows_[static_cast<std::uint32_t>(i)];
  }
  [[nodiscard]] const ReceiverHot& receiver(std::size_t i) const {
    return recv_hot_.at(i);
  }
  [[nodiscard]] const ReceiverCold& receiver_cold(std::size_t i) const {
    return recv_cold_.at(i);
  }
  [[nodiscard]] const gen::ClosedLoopSource& source() const {
    return *source_;
  }

  // --- aggregates across flows ---
  [[nodiscard]] std::uint64_t total_bytes_acked() const;
  [[nodiscard]] std::uint64_t total_retransmits() const;
  [[nodiscard]] std::uint64_t total_rto_fires() const;
  [[nodiscard]] std::uint64_t total_fast_retx() const;
  [[nodiscard]] std::uint64_t total_cwnd_reductions() const;
  [[nodiscard]] std::uint64_t total_acks_sent() const;
  [[nodiscard]] std::uint64_t total_ooo_segs() const;
  /// Delayed-ACK timer cancels avoided by the lazy one-armed-timer
  /// scheme (each would have been a cancel + re-arm pair pre-§12).
  [[nodiscard]] std::uint64_t delack_cancels_saved() const {
    return delack_cancels_saved_;
  }
  /// In-plane RTT probe fed by every flow's accepted RTT samples (the
  /// RTO estimator's input stream), classed by flow DSCP (flow index
  /// mod 4). Flushed under tcp.rtt.* at destruction.
  [[nodiscard]] const mon::LatencyProbe& rtt_probe() const {
    return rtt_probe_;
  }
  /// Application goodput (cum-acked bytes) over `window`, in bits/s.
  [[nodiscard]] double goodput_bps(Picos window) const;
  /// Aggregate the trial counters; `window` scales the goodput figure.
  [[nodiscard]] TcpTrialReport report(Picos window) const;
  /// Register the aggregate tcp.* series channels (bytes_acked,
  /// acks_sent, retransmits, queue_drops, rtt.ns). They read this
  /// workload, so the series must finish before it is destroyed.
  void add_series_channels(telemetry::TimeSeries& series) const;

  // --- rate-limit detector aggregates (all 0 when the detector is off) ---
  [[nodiscard]] std::uint64_t total_rld_detections() const;
  /// Mean detected rate across currently-detected flows, bits/s.
  [[nodiscard]] double mean_rld_rate_bps() const;
  /// Mean first-sample→detection latency across flows that detected.
  [[nodiscard]] Picos mean_rld_detect_time() const;

 private:
  void on_data_frame(const net::ParsedPacket& p, const net::Packet& pkt,
                     Picos first_bit);
  void on_ack_frame(const net::ParsedPacket& p, const net::Packet& pkt,
                    Picos first_bit);
  void send_ack(std::size_t idx, Picos now);
  void schedule_delack(std::size_t idx);

  sim::Engine* eng_;
  core::OsntDevice* dev_;
  WorkloadConfig cfg_;
  gen::ClosedLoopSource* source_ = nullptr;  ///< owned by the TX pipeline
  /// Flows live in the slab; handles are dense (slot == flow index).
  Slab<Flow> flows_;
  std::vector<Slab<Flow>::Handle> flow_handles_;
  std::vector<ReceiverHot> recv_hot_;
  std::vector<ReceiverCold> recv_cold_;
  std::uint64_t delack_cancels_saved_ = 0;
  mon::LatencyProbe rtt_probe_;
};

/// A complete closed-loop testbed: engine + device + cabled port pair +
/// workload (+ optional armed fault plan). Exists so callers that care
/// about wall time — the benchmarks, the 100k-flow CLI smoke — can split
/// construction (packet templates, slab growth, 2·N state blocks) from
/// the run itself and measure only the simulation.
class ClosedLoopTestbed {
 public:
  explicit ClosedLoopTestbed(const WorkloadConfig& cfg,
                             const fault::FaultPlan* plan = nullptr,
                             telemetry::TraceRecorder* trace = nullptr);

  /// Start (first call) and simulate up to absolute sim time `until`.
  void run_until(Picos until);

  /// Aggregate the trial counters; `window` scales the goodput figure.
  [[nodiscard]] TcpTrialReport report(Picos window) const {
    return workload_->report(window);
  }

  [[nodiscard]] sim::Engine& engine() { return eng_; }
  [[nodiscard]] ClosedLoopWorkload& workload() { return *workload_; }

 private:
  sim::Engine eng_;
  core::OsntDevice dev_;
  std::unique_ptr<ClosedLoopWorkload> workload_;
  std::optional<fault::Injector> injector_;
  bool started_ = false;
};

/// Build a fresh testbed (engine + device + cabled ports), run `cfg` for
/// `duration` of sim time with an optional fault plan armed on the
/// device, and report aggregates. One deterministic code path shared by
/// the CLI, the tests, and the benchmark — byte-identical reruns for a
/// fixed (cfg.seed, plan) pair. `trace` attaches a recorder to the
/// trial's engine (single-trial runs only; the recorder is not
/// thread-safe across sharded trials).
///
/// `series_interval > 0` attaches a sim-time sampler (tcp.* counter
/// channels + the tcp.rtt.ns histogram) and stores its per-interval
/// deltas into `*series_out`; per-trial series merge commutatively.
[[nodiscard]] TcpTrialReport run_closed_loop_trial(
    const WorkloadConfig& cfg, Picos duration,
    const fault::FaultPlan* plan = nullptr,
    telemetry::TraceRecorder* trace = nullptr, Picos series_interval = 0,
    telemetry::SeriesData* series_out = nullptr);

}  // namespace osnt::tcp
