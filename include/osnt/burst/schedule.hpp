// BurstSchedule: the batched (MoonGen-style) precomputation behind
// burst::BurstSourceBlock. The whole envelope over a horizon is rendered
// up front into SoA frame-metadata arrays — per-frame departure offsets
// and flow ids — partitioned into Bursts, each of which the source emits
// from ONE engine event. Precomputing the schedule is what keeps the hot
// path free of per-frame closures and the result seedable: the same
// (config, horizon) always yields byte-identical frame metadata,
// independent of `--jobs`.
#pragma once

#include <cstdint>
#include <vector>

#include "osnt/burst/pattern.hpp"
#include "osnt/common/random.hpp"
#include "osnt/common/time.hpp"

namespace osnt::burst {

/// One contiguous emission group: `count` frames starting at schedule
/// offset `start`, indexing [first, first + count) in the SoA arrays.
struct Burst {
  Picos start = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

class BurstSchedule {
 public:
  /// Render `cfg`'s envelope over [0, horizon). Throws BurstError on an
  /// invalid config, a non-positive horizon, or a schedule that would
  /// exceed the frame-count guard (kMaxFrames).
  BurstSchedule(const PatternConfig& cfg, Picos horizon);

  /// Runaway guard: a schedule this size (~1 s of 64 B at 40G) is a
  /// config error, not a workload.
  static constexpr std::size_t kMaxFrames = 64u << 20;

  [[nodiscard]] const PatternConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] Picos horizon() const noexcept { return horizon_; }

  [[nodiscard]] const std::vector<Burst>& bursts() const noexcept {
    return bursts_;
  }
  // --- SoA frame metadata, indexed by Burst::first/count ---
  /// Departure (first-bit) offset of frame i relative to its Burst::start.
  [[nodiscard]] const std::vector<Picos>& offsets() const noexcept {
    return offsets_;
  }
  /// Template index in [0, cfg.template_count()).
  [[nodiscard]] const std::vector<std::uint32_t>& flow_ids() const noexcept {
    return flow_ids_;
  }

  [[nodiscard]] std::size_t total_frames() const noexcept {
    return offsets_.size();
  }
  [[nodiscard]] std::uint64_t total_wire_bytes() const noexcept {
    return total_wire_bytes_;
  }

 private:
  void build_on_off();
  void build_strobe();
  void build_heavy_tail();
  void build_amplification();
  /// Append one burst of `count` back-to-back frames at `start`, drawing
  /// flow ids from `rng`; enforces kMaxFrames.
  void append_burst(Picos start, std::size_t count, Rng& rng);

  PatternConfig cfg_;
  Picos horizon_;
  std::vector<Burst> bursts_;
  std::vector<Picos> offsets_;
  std::vector<std::uint32_t> flow_ids_;
  std::uint64_t total_wire_bytes_ = 0;
};

}  // namespace osnt::burst
