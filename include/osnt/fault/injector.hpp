// Applies a FaultPlan to a live testbed. The Injector holds non-owning
// pointers to the models a plan may target — links, the DMA engine, the
// OpenFlow control channel, the GPS, graph blocks — and arm() schedules
// every plan event on the trial's engine (category kFault, visible in
// --trace).
// Faults act through the models' existing public seams, so an injected
// run is just a run: same engine, same determinism, same telemetry.
//
// Block-targeted events (rate_limit, queue_cap) resolve against the
// attached graph's blocks by name in one function, which arm() and
// check_targets() share: `osnt_run topo --validate-only` builds the graph
// without running it and asks check_targets(), so the dry run and the run
// reject a plan with the same words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "osnt/fault/plan.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::core {
class OsntDevice;
}
namespace osnt::graph {
class Block;
class Graph;
class TokenBucketBlock;
class FifoQueueBlock;
}  // namespace osnt::graph
namespace osnt::hw {
class DmaEngine;
}
namespace osnt::openflow {
class ControlChannel;
}
namespace osnt::sim {
class Link;
}
namespace osnt::tstamp {
class GpsModel;
}

namespace osnt::fault {

class Injector {
 public:
  /// The plan is normalized (validated + sorted) on entry; throws
  /// PlanError if it is malformed. Targets attach afterwards; nothing is
  /// scheduled until arm().
  Injector(sim::Engine& eng, FaultPlan plan);
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;
  /// Merges `fault.injected.<kind>` / `fault.skipped` into telemetry.
  ~Injector();

  /// Register a link as the next index (plan events address links by
  /// attach order; link = -1 targets all of them).
  Injector& attach_link(sim::Link& link);
  Injector& attach_dma(hw::DmaEngine& dma);
  Injector& attach_channel(openflow::ControlChannel& chan);
  Injector& attach_gps(tstamp::GpsModel& gps);
  /// Convenience: every port's outbound link (port order), the shared DMA
  /// engine, and the GPS of one OSNT card.
  Injector& attach_device(core::OsntDevice& dev);

  /// Register every block of a graph under its block name as a possible
  /// target of rate_limit / queue_cap events.
  Injector& attach_graph(graph::Graph& g);

  /// Schedule the whole plan on the engine. Call once, before running;
  /// events whose target kind has nothing attached are counted as skipped
  /// (with a warning) rather than failing the run — except block-targeted
  /// events (rate_limit / queue_cap), whose unknown target is a hard
  /// PlanError: a chaos plan aimed at a block that does not exist is a
  /// bad plan, not a benign mismatch. All targets must outlive the
  /// engine's run.
  void arm();
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Resolve every block-targeted event the way arm() does, and throw the
  /// same PlanError on an unknown or wrongly-typed target, without
  /// scheduling anything.
  void check_targets() const;

  /// Fault activations that actually fired (counted at their start time).
  [[nodiscard]] std::uint64_t injected(FaultKind k) const noexcept {
    return injected_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t injected_total() const noexcept;
  /// Plan events dropped at arm() because their target was not attached.
  [[nodiscard]] std::uint64_t skipped() const noexcept { return skipped_; }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  void arm_event_(const FaultEvent& ev, std::size_t ordinal);
  [[nodiscard]] std::vector<sim::Link*> targets_(int link,
                                                 std::size_t ordinal) const;
  /// What a rate_limit / queue_cap event acts on: the attached block named
  /// by its target, as the one kind of block the event can retime.
  struct BlockTarget {
    graph::TokenBucketBlock* bucket = nullptr;
    graph::FifoQueueBlock* queue = nullptr;  ///< fifo_queue or red
    explicit operator bool() const noexcept { return bucket || queue; }
  };
  /// Throws PlanError for a target that is not attached (did-you-mean over
  /// the eligible blocks) or is the wrong kind of block.
  [[nodiscard]] BlockTarget resolve_(const FaultEvent& ev,
                                     std::size_t ordinal) const;
  void mark_(FaultKind kind, Picos at, Picos duration);

  sim::Engine* eng_;
  FaultPlan plan_;
  std::vector<sim::Link*> links_;
  // Ordered: arm-time error messages must not depend on hash order
  // (determinism contract, DESIGN.md §10).
  std::map<std::string, graph::Block*> blocks_;
  hw::DmaEngine* dma_ = nullptr;
  openflow::ControlChannel* chan_ = nullptr;
  tstamp::GpsModel* gps_ = nullptr;
  bool armed_ = false;
  std::uint64_t injected_[kFaultKindCount] = {};
  std::uint64_t skipped_ = 0;
  telemetry::TraceRecorder::TrackId trace_tracks_[kFaultKindCount] = {};
  bool tracing_ = false;
};

}  // namespace osnt::fault
