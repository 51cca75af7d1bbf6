#include "osnt/fault/injector.hpp"

#include <string>
#include <vector>

#include "osnt/common/cli.hpp"
#include "osnt/common/log.hpp"
#include "osnt/common/random.hpp"
#include "osnt/core/device.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/hw/dma.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/openflow/channel.hpp"
#include "osnt/sim/link.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/tstamp/gps.hpp"

namespace osnt::fault {
namespace {

/// Per-event BER stream seed: osnt::derive_seed over the plan seed and the
/// event's ordinal (stream ordinal+1 — stream 0 is not the identity but
/// skipping it keeps historical plans replaying bit-identically), so every
/// BER window draws from its own reproducible stream no matter how the
/// plan is edited around it.
std::uint64_t event_seed(std::uint64_t plan_seed, std::size_t ordinal) {
  return derive_seed(plan_seed, ordinal + 1);
}

/// BER ramps are quantized to a handful of steps: enough to exercise
/// "error rate grows" behaviour without scheduling thousands of events.
constexpr int kRampSteps = 8;

}  // namespace

Injector::Injector(sim::Engine& eng, FaultPlan plan)
    : eng_(&eng), plan_(std::move(plan)) {
  plan_.normalize();
}

Injector::~Injector() {
  if (!telemetry::enabled()) return;
  if (injected_total() == 0 && skipped_ == 0) return;
  auto& reg = telemetry::registry();
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    if (injected_[k] == 0) continue;
    reg.counter(std::string("fault.injected.") +
                fault_kind_name(static_cast<FaultKind>(k)))
        .add(injected_[k]);
  }
  reg.counter("fault.skipped").add(skipped_);
}

Injector& Injector::attach_link(sim::Link& link) {
  links_.push_back(&link);
  return *this;
}

Injector& Injector::attach_dma(hw::DmaEngine& dma) {
  dma_ = &dma;
  return *this;
}

Injector& Injector::attach_channel(openflow::ControlChannel& chan) {
  chan_ = &chan;
  return *this;
}

Injector& Injector::attach_gps(tstamp::GpsModel& gps) {
  gps_ = &gps;
  return *this;
}

Injector& Injector::attach_device(core::OsntDevice& dev) {
  for (std::size_t i = 0; i < dev.num_ports(); ++i) {
    attach_link(dev.port(i).out_link());
  }
  attach_dma(dev.dma());
  attach_gps(dev.gps());
  return *this;
}

Injector& Injector::attach_graph(graph::Graph& g) {
  for (std::size_t i = 0; i < g.num_blocks(); ++i) {
    blocks_[g.block(i).name()] = &g.block(i);
  }
  return *this;
}

std::uint64_t Injector::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t v : injected_) total += v;
  return total;
}

std::vector<sim::Link*> Injector::targets_(int link,
                                           std::size_t ordinal) const {
  if (link < 0) return links_;
  if (static_cast<std::size_t>(link) < links_.size()) {
    return {links_[static_cast<std::size_t>(link)]};
  }
  OSNT_WARN("fault: event %zu targets link %d but only %zu attached", ordinal,
            link, links_.size());
  return {};
}

void Injector::mark_(FaultKind kind, Picos at, Picos duration) {
  ++injected_[static_cast<std::size_t>(kind)];
  if (tracing_ && eng_->trace()) {
    eng_->trace()->complete(trace_tracks_[static_cast<std::size_t>(kind)],
                            fault_kind_name(kind), at, duration);
  }
}

void Injector::arm() {
  if (armed_) return;
  armed_ = true;
  tracing_ = eng_->trace() != nullptr;
  if (tracing_) {
    for (std::size_t k = 0; k < kFaultKindCount; ++k) {
      trace_tracks_[k] = eng_->trace()->track(
          std::string("fault/") + fault_kind_name(static_cast<FaultKind>(k)));
    }
  }
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kFault);
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    arm_event_(plan_.events[i], i);
  }
}

void Injector::check_targets() const {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    if (ev.kind == FaultKind::kRateLimit || ev.kind == FaultKind::kQueueCap) {
      (void)resolve_(ev, i);
    }
  }
}

void Injector::arm_event_(const FaultEvent& ev, std::size_t ordinal) {
  const auto skip = [&](const char* needs) {
    ++skipped_;
    OSNT_WARN("fault: skipping %s event %zu — no %s attached",
              fault_kind_name(ev.kind), ordinal, needs);
  };

  switch (ev.kind) {
    case FaultKind::kLinkFlap: {
      const auto targets = targets_(ev.link, ordinal);
      if (targets.empty()) return skip("matching link");
      eng_->schedule_at(ev.at, [this, targets, ev] {
        mark_(FaultKind::kLinkFlap, ev.at, ev.duration);
        for (sim::Link* l : targets) l->set_up(false);
      });
      eng_->schedule_at(ev.at + ev.duration, [targets] {
        for (sim::Link* l : targets) l->set_up(true);
      });
      return;
    }

    case FaultKind::kBerWindow: {
      const auto targets = targets_(ev.link, ordinal);
      if (targets.empty()) return skip("matching link");
      const std::uint64_t seed = event_seed(plan_.seed, ordinal);
      if (ev.ramp > 0) {
        // Linear ramp-in: step the rate up so early-window frames see a
        // gentler channel than the plateau — a link going marginal.
        for (int s = 0; s < kRampSteps; ++s) {
          const Picos t = ev.at + ev.ramp * s / kRampSteps;
          const double ber = ev.ber * (s + 1) / kRampSteps;
          eng_->schedule_at(t, [this, targets, ev, ber, seed, s] {
            if (s == 0) mark_(FaultKind::kBerWindow, ev.at, ev.duration);
            for (sim::Link* l : targets) l->set_bit_error_rate(ber, seed);
          });
        }
      } else {
        eng_->schedule_at(ev.at, [this, targets, ev, seed] {
          mark_(FaultKind::kBerWindow, ev.at, ev.duration);
          for (sim::Link* l : targets) l->set_bit_error_rate(ev.ber, seed);
        });
      }
      eng_->schedule_at(ev.at + ev.duration, [targets] {
        for (sim::Link* l : targets) l->set_bit_error_rate(0.0);
      });
      return;
    }

    case FaultKind::kLatencySpike: {
      const auto targets = targets_(ev.link, ordinal);
      if (targets.empty()) return skip("matching link");
      eng_->schedule_at(ev.at, [this, targets, ev] {
        mark_(FaultKind::kLatencySpike, ev.at, ev.duration);
        for (sim::Link* l : targets) l->set_extra_delay(ev.extra_delay);
      });
      eng_->schedule_at(ev.at + ev.duration, [targets] {
        for (sim::Link* l : targets) l->set_extra_delay(0);
      });
      return;
    }

    case FaultKind::kDmaStall: {
      if (!dma_) return skip("DMA engine");
      eng_->schedule_at(ev.at, [this, ev] {
        mark_(FaultKind::kDmaStall, ev.at, ev.duration);
        dma_->inject_stall(ev.duration);
      });
      return;
    }

    case FaultKind::kCtrlDisconnect: {
      if (!chan_) return skip("control channel");
      eng_->schedule_at(ev.at, [this, ev] {
        mark_(FaultKind::kCtrlDisconnect, ev.at, ev.duration);
        chan_->set_link_available(false);
      });
      eng_->schedule_at(ev.at + ev.duration,
                        [this] { chan_->set_link_available(true); });
      return;
    }

    case FaultKind::kGpsLoss: {
      if (!gps_) return skip("GPS model");
      eng_->schedule_at(ev.at, [this, ev] {
        mark_(FaultKind::kGpsLoss, ev.at, ev.duration);
        gps_->set_connected(false);
      });
      eng_->schedule_at(ev.at + ev.duration,
                        [this] { gps_->set_connected(true); });
      return;
    }

    case FaultKind::kRateLimit: {
      graph::TokenBucketBlock* tb = resolve_(ev, ordinal).bucket;
      // Snapshot the pre-fault contract at arm time (before the run, so
      // these are the configured values) — the event restores them.
      const double orig_rate = tb->rate_gbps();
      const std::size_t orig_burst = tb->burst_bytes();
      if (ev.ramp > 0) {
        // Stepped reprovisioning: walk the rate from the current contract
        // to the fault plateau, same quantization as BER ramps — a
        // carrier squeezing a customer over seconds, not one cliff.
        for (int s = 0; s < kRampSteps; ++s) {
          const Picos t = ev.at + ev.ramp * s / kRampSteps;
          const double rate =
              orig_rate + (ev.rate_gbps - orig_rate) * (s + 1) / kRampSteps;
          eng_->schedule_at(t, [this, tb, ev, rate, s] {
            if (s == 0) {
              mark_(FaultKind::kRateLimit, ev.at, ev.duration);
              if (ev.burst_bytes >= 0) {
                tb->set_burst_bytes(static_cast<std::size_t>(ev.burst_bytes));
              }
            }
            tb->set_rate_gbps(rate);
          });
        }
      } else {
        eng_->schedule_at(ev.at, [this, tb, ev] {
          mark_(FaultKind::kRateLimit, ev.at, ev.duration);
          if (ev.burst_bytes >= 0) {
            tb->set_burst_bytes(static_cast<std::size_t>(ev.burst_bytes));
          }
          tb->set_rate_gbps(ev.rate_gbps);
        });
      }
      eng_->schedule_at(ev.at + ev.duration, [tb, orig_rate, orig_burst] {
        tb->set_rate_gbps(orig_rate);
        tb->set_burst_bytes(orig_burst);
      });
      return;
    }

    case FaultKind::kQueueCap: {
      // A cap can land on a serializing queue (fifo_queue / red) or on a
      // shaper's backlog (token_bucket) — whichever owns the name.
      const auto cap = [&](auto* blk) {
        const std::size_t orig = blk->queue_frames();
        eng_->schedule_at(ev.at, [this, blk, ev] {
          mark_(FaultKind::kQueueCap, ev.at, ev.duration);
          blk->set_queue_frames(ev.queue_frames);
        });
        eng_->schedule_at(ev.at + ev.duration,
                          [blk, orig] { blk->set_queue_frames(orig); });
      };
      const BlockTarget t = resolve_(ev, ordinal);
      if (t.queue) return cap(t.queue);
      return cap(t.bucket);
    }
  }
}

Injector::BlockTarget Injector::resolve_(const FaultEvent& ev,
                                         std::size_t ordinal) const {
  const bool rate = ev.kind == FaultKind::kRateLimit;
  const auto target_of = [rate](graph::Block* b) {
    BlockTarget t;
    if (!rate) t.queue = dynamic_cast<graph::FifoQueueBlock*>(b);
    if (!t.queue) t.bucket = dynamic_cast<graph::TokenBucketBlock*>(b);
    return t;
  };
  std::string msg = std::string("fault plan: ") + fault_kind_name(ev.kind) +
                    " event " + std::to_string(ordinal) + " targets ";
  if (const auto it = blocks_.find(ev.target); it != blocks_.end()) {
    if (const BlockTarget t = target_of(it->second)) return t;
    // The right name on the wrong kind of block is the likelier
    // authoring mistake, and deserves a plain answer.
    throw PlanError(msg + "block '" + ev.target + "', which " +
                    (rate ? "is not a token_bucket"
                          : "has no queue to cap (need fifo_queue, red, or "
                            "token_bucket)"));
  }
  std::vector<std::string> eligible;
  for (const auto& [name, b] : blocks_) {
    if (target_of(b)) eligible.push_back(name);
  }
  msg += "unknown block '" + ev.target + "'" +
         did_you_mean(ev.target, eligible);
  if (eligible.empty()) {
    msg += rate ? " — no token_bucket blocks attached"
                : " — no queue blocks attached";
  } else {
    msg += " — attached: ";
    for (std::size_t i = 0; i < eligible.size(); ++i) {
      if (i) msg += ", ";
      msg += eligible[i];
    }
  }
  throw PlanError(msg);
}

}  // namespace osnt::fault
