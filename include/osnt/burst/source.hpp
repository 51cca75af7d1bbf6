// BurstSourceBlock: a graph source that plays a BurstSchedule into the
// dataplane, MoonGen-style: ONE engine event per Burst, whose handler
// walks the schedule's SoA range cloning prebuilt per-flow template
// packets. The BENCH_engine.json `burst_pps` gate measures it against a
// recorded per-frame baseline (tools/bench_engine_snapshot.sh).
//
// Frames leave with tx_truth/tx_start at their scheduled departure and a
// serialization window at the pattern rate, exactly the TxPipeline
// convention, so downstream monitor blocks see honest latency samples.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "osnt/burst/schedule.hpp"
#include "osnt/graph/block.hpp"
#include "osnt/net/packet.hpp"

namespace osnt::burst {

struct BurstSourceConfig {
  PatternConfig pattern;
  /// Schedule length. The topology loader fills this from the run
  /// duration when the JSON leaves it unset; start() throws without one.
  Picos horizon = 0;
};

class BurstSourceBlock final : public graph::Block {
 public:
  BurstSourceBlock(sim::Engine& eng, std::string name,
                   BurstSourceConfig cfg = {});
  ~BurstSourceBlock() override;

  /// Builds the schedule and templates, then arms the first emission
  /// event (category kGen). Schedule offsets are relative to now().
  void start() override;

  /// Sources have no inputs; a stray frame is counted as a drop.
  void on_frame(std::size_t in_port, net::Packet pkt, Picos first_bit,
                Picos last_bit) override;

  /// Must be called before start().
  void set_horizon(Picos horizon);

  [[nodiscard]] const BurstSourceConfig& config() const noexcept {
    return cfg_;
  }
  /// Valid after start().
  [[nodiscard]] const BurstSchedule* schedule() const noexcept {
    return sched_.get();
  }
  [[nodiscard]] std::uint64_t bursts_emitted() const noexcept {
    return bursts_;
  }
  /// Wire bytes emitted (incl. FCS, excl. preamble/IFG).
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept {
    return wire_bytes_;
  }

  /// The frame a schedule slot produces: template `flow_id` padded to
  /// `frame_size`. Exposed for tests.
  [[nodiscard]] static net::Packet make_frame(const PatternConfig& cfg,
                                              std::uint32_t flow_id,
                                              std::size_t frame_size);

 private:
  void arm_burst(std::size_t burst_idx);
  void emit_burst(std::size_t burst_idx);

  BurstSourceConfig cfg_;
  std::unique_ptr<BurstSchedule> sched_;
  std::vector<net::Packet> templates_;  ///< one per flow id
  Picos origin_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t bursts_ = 0;
  std::uint64_t wire_bytes_ = 0;
};

}  // namespace osnt::burst
