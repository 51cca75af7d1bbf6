// The stock block library: the functional pieces topologies are composed
// from. Each block is deliberately small — one queue, one policer, one
// hash stage — so a scenario's behaviour is legible from its JSON wiring
// rather than buried in a monolithic DUT model.
//
//   fifo_queue    store-and-forward serializer with a bounded FIFO
//   red           the same serializer behind RED early-drop admission
//   token_bucket  policer (drop) or shaper (delay) at a token rate
//   delay_ber     named delay/bit-error stage (Link physics as a node)
//   ecmp          stateless 5-tuple hash fan-out across N outputs
//   sink          terminal byte/frame counter
//   monitor       pass-through tap with a frame-size histogram
#pragma once

#include <cstdint>

#include "osnt/common/random.hpp"
#include "osnt/graph/block.hpp"
#include "osnt/mon/latency_probe.hpp"
#include "osnt/telemetry/histogram.hpp"

namespace osnt::graph {

// ------------------------------------------------------------ fifo_queue

struct FifoQueueConfig {
  double rate_gbps = 10.0;        ///< output serialization rate
  std::size_t queue_frames = 64;  ///< tail-drop beyond this depth
};

/// Bounded store-and-forward queue: frames serialize out at `rate_gbps`
/// one at a time; arrivals beyond `queue_frames` waiting are tail-dropped.
/// This is the contention point of any topology — its depth trace is what
/// RED, shapers, and congestion control all ultimately react to.
class FifoQueueBlock : public Block {
 public:
  FifoQueueBlock(sim::Engine& eng, std::string name, FifoQueueConfig cfg = {});
  ~FifoQueueBlock() override;

  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t peak_depth() const noexcept { return peak_; }
  [[nodiscard]] std::uint64_t tail_drops() const noexcept {
    return tail_drops_;
  }
  [[nodiscard]] std::size_t queue_frames() const noexcept {
    return fifo_cfg_.queue_frames;
  }
  /// Fault seam (queue_cap): retime the tail-drop threshold mid-run.
  /// Frames already queued beyond a shrunken cap stay queued — the cap
  /// gates admission only, like reprogramming a real queue manager.
  void set_queue_frames(std::size_t frames);

 protected:
  /// Admission already passed: claim a serializer slot and schedule the
  /// departure. Shared with RedBlock, whose job is only to veto arrivals.
  void enqueue(net::Packet pkt);
  void count_tail_drop() noexcept {
    ++tail_drops_;
    count_drop();
  }

  FifoQueueConfig fifo_cfg_;

 private:
  std::size_t depth_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t tail_drops_ = 0;
  Picos busy_until_ = 0;
};

// ------------------------------------------------------------------- red

struct RedConfig {
  double rate_gbps = 10.0;
  std::size_t queue_frames = 64;
  double min_th = 15.0;   ///< frames: no early drop below this average
  double max_th = 60.0;   ///< frames: forced drop at/above this average
  double max_p = 0.1;     ///< early-drop probability as avg -> max_th
  double weight = 0.002;  ///< EWMA weight for the average queue estimate
  std::uint64_t seed = 1; ///< drop-lottery stream (loader derives this)
};

/// Random Early Detection in front of the FIFO serializer (Floyd/Jacobson
/// '93, minus the idle-time correction — the averaging runs per arrival).
/// Early drops start once the EWMA queue average crosses `min_th` and
/// reach probability `max_p` at `max_th`, where drops become forced.
class RedBlock : public FifoQueueBlock {
 public:
  RedBlock(sim::Engine& eng, std::string name, RedConfig cfg = {});
  ~RedBlock() override;

  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

  [[nodiscard]] double avg_depth() const noexcept { return avg_; }
  [[nodiscard]] std::uint64_t early_drops() const noexcept {
    return early_drops_;
  }
  [[nodiscard]] std::uint64_t forced_drops() const noexcept {
    return forced_drops_;
  }

 private:
  RedConfig cfg_;
  Rng rng_;
  double avg_ = 0.0;
  std::uint64_t early_drops_ = 0;
  std::uint64_t forced_drops_ = 0;
};

// ----------------------------------------------------------- token_bucket

struct TokenBucketConfig {
  double rate_gbps = 1.0;          ///< sustained token refill rate
  std::size_t burst_bytes = 15000; ///< bucket capacity (line-length bytes)
  bool shape = true;               ///< true: delay excess; false: drop it
  std::size_t queue_frames = 256;  ///< shaper backlog cap (shape mode)
};

/// Token bucket over frame line lengths. In police mode nonconforming
/// frames are dropped on arrival; in shape mode the balance is allowed to
/// go negative and the frame is released once the deficit refills, which
/// spaces departures at exactly `rate_gbps` without per-token events.
class TokenBucketBlock : public Block {
 public:
  TokenBucketBlock(sim::Engine& eng, std::string name,
                   TokenBucketConfig cfg = {});
  ~TokenBucketBlock() override;

  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

  [[nodiscard]] std::uint64_t conforming() const noexcept {
    return conforming_;
  }
  [[nodiscard]] std::uint64_t shaped() const noexcept { return shaped_; }
  [[nodiscard]] std::uint64_t policed() const noexcept { return policed_; }
  [[nodiscard]] double rate_gbps() const noexcept { return cfg_.rate_gbps; }
  [[nodiscard]] std::size_t burst_bytes() const noexcept {
    return cfg_.burst_bytes;
  }
  [[nodiscard]] std::size_t queue_frames() const noexcept {
    return cfg_.queue_frames;
  }

  // Fault seams (rate_limit / queue_cap): retime the bucket mid-run, the
  // way a carrier reprovisions a policer under live traffic. Tokens
  // accrued so far are settled at the *old* rate first, so the change
  // takes effect exactly at the call's sim time; already-scheduled
  // shaped releases keep their departure times (they cleared the old
  // contract), only subsequent arrivals see the new one.
  void set_rate_gbps(double rate_gbps);
  void set_burst_bytes(std::size_t burst_bytes);
  void set_queue_frames(std::size_t frames);

 private:
  void refill() noexcept;

  TokenBucketConfig cfg_;
  double bytes_per_pico_ = 0.0;
  double tokens_ = 0.0;  ///< may run negative while shaping (deficit)
  Picos last_refill_ = 0;
  Picos last_release_ = 0;  ///< keeps shaped departures in FIFO order
  std::size_t backlog_ = 0;
  std::uint64_t conforming_ = 0;
  std::uint64_t shaped_ = 0;
  std::uint64_t policed_ = 0;
};

// -------------------------------------------------------------- delay_ber

struct DelayBerConfig {
  Picos delay = 0;        ///< added to both bit times
  double ber = 0.0;       ///< per-bit error probability
  std::uint64_t seed = 1; ///< corruption lottery (loader derives this)
};

/// Link physics as a named node: constant extra delay plus optional
/// bit-error corruption (same model as sim::Link's BER — one flipped bit,
/// fcs_bad set). Exists so topologies can put delay/noise *between* any
/// two blocks and read its corruption count under graph.<name>.*.
class DelayBerBlock : public Block {
 public:
  DelayBerBlock(sim::Engine& eng, std::string name, DelayBerConfig cfg = {});
  ~DelayBerBlock() override;

  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

  [[nodiscard]] std::uint64_t corrupted() const noexcept { return corrupted_; }

 private:
  DelayBerConfig cfg_;
  Rng rng_;
  std::uint64_t corrupted_ = 0;
};

// ------------------------------------------------------------------ ecmp

struct EcmpConfig {
  std::size_t fanout = 2;   ///< number of output ports
  std::uint64_t salt = 0;   ///< mixed into the hash (path polarization)
};

/// Stateless equal-cost fan-out: FNV-1a over the IPv4 5-tuple picks the
/// output port, so every frame of a flow takes the same path (no intra-
/// flow reordering). Non-IP frames hash over their raw bytes instead.
class EcmpBlock : public Block {
 public:
  EcmpBlock(sim::Engine& eng, std::string name, EcmpConfig cfg = {});

  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

 private:
  EcmpConfig cfg_;
};

// ------------------------------------------------------------------ sink

/// Terminal counter: frames stop here. Byte/frame totals and the last
/// arrival time give tests a cheap "did traffic make it through" probe.
class SinkBlock : public Block {
 public:
  SinkBlock(sim::Engine& eng, std::string name);
  ~SinkBlock() override;

  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

  [[nodiscard]] Picos last_arrival() const noexcept { return last_arrival_; }

 private:
  Picos last_arrival_ = 0;
};

// --------------------------------------------------------------- monitor

struct MonitorConfig {
  /// Record per-class latency (tx_truth → arrival) into the in-plane
  /// LatencyProbe, flushed under graph.<name>.rtt.*.
  bool rtt_probe = true;
};

/// Transparent tap: forwards every frame unchanged while recording a
/// wire-length histogram, an FCS-error count, and — the in-plane
/// measurement point — per-traffic-class latency histograms over the
/// frame's source-MAC ground truth (`tx_truth`), the graph analogue of
/// the RxPipeline's pre-DMA LatencyProbe. The graph equivalent of
/// clipping a probe onto a fiber.
class MonitorBlock : public Block {
 public:
  MonitorBlock(sim::Engine& eng, std::string name, MonitorConfig cfg = {});
  ~MonitorBlock() override;

  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

  [[nodiscard]] std::uint64_t fcs_errors() const noexcept {
    return fcs_errors_;
  }
  [[nodiscard]] const telemetry::Log2Histogram& frame_bytes() const noexcept {
    return frame_bytes_;
  }
  /// Per-class latency histograms (ns, sim ground truth). Empty when the
  /// probe is disabled or frames carry no tx_truth.
  [[nodiscard]] const mon::LatencyProbe& rtt_probe() const noexcept {
    return rtt_probe_;
  }

 private:
  MonitorConfig cfg_;
  std::uint64_t fcs_errors_ = 0;
  telemetry::Log2Histogram frame_bytes_;
  mon::LatencyProbe rtt_probe_;
};

}  // namespace osnt::graph
