#include "osnt/fault/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "osnt/common/cli.hpp"
#include "osnt/common/json.hpp"

namespace osnt::fault {
namespace {

// Plans parse through the shared strict JSON reader (osnt::json, also
// behind topology files); its positioned ParseError is rethrown as
// PlanError so fault-plan callers keep a single exception type.
using Json = json::Value;

[[noreturn]] void bad_event(std::size_t i, const std::string& why) {
  throw PlanError("fault plan event " + std::to_string(i) + ": " + why);
}

FaultKind kind_of(const json::ObjectReader& r, const Json& type) {
  std::vector<std::string> known;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    known.emplace_back(fault_kind_name(static_cast<FaultKind>(k)));
    if (type.string == known.back()) return static_cast<FaultKind>(k);
  }
  std::string msg = "unknown type '" + type.string + "'" +
                    did_you_mean(type.string, known) + " — known:";
  for (std::size_t k = 0; k < known.size(); ++k) {
    msg += std::string(k ? ", " : " ") + known[k];
  }
  r.fail(msg, &type);
}

/// One event. Each kind reads only its own keys, so a key another kind
/// understands is as unknown here as a typo.
FaultEvent read_event(const Json& ev, std::size_t i) {
  const std::string who = "fault plan event " + std::to_string(i);
  json::ObjectReader r(ev, who);
  const Json& type = r.required("type", Json::Type::kString);
  FaultEvent e;
  e.kind = kind_of(r, type);
  r.set_prefix(who + " (" + type.string + ")");
  e.at = r.required_time("at");
  e.duration = r.time("duration", 0);
  switch (e.kind) {
    case FaultKind::kLinkFlap:
      e.link = r.count("link", e.link);
      break;
    case FaultKind::kBerWindow:
      e.link = r.count("link", e.link);
      e.ber = r.required_number("ber");
      e.ramp = r.time("ramp", 0);
      break;
    case FaultKind::kLatencySpike:
      e.link = r.count("link", e.link);
      e.extra_delay = r.required_time("extra");
      break;
    case FaultKind::kDmaStall:
    case FaultKind::kCtrlDisconnect:
    case FaultKind::kGpsLoss:
      break;
    case FaultKind::kRateLimit:
      e.target = r.required_string("target");
      e.rate_gbps = r.required_number("rate_gbps");
      e.ramp = r.time("ramp", 0);
      e.burst_bytes = r.count("burst_bytes", e.burst_bytes, 1);
      break;
    case FaultKind::kQueueCap:
      e.target = r.required_string("target");
      e.queue_frames = r.required_count<std::size_t>("queue_frames", 1);
      break;
  }
  r.finish();
  return e;
}

}  // namespace

FaultPlan& FaultPlan::link_flap(Picos at, Picos duration, int link) {
  events.push_back({.kind = FaultKind::kLinkFlap, .at = at,
                    .duration = duration, .link = link});
  return *this;
}

FaultPlan& FaultPlan::ber_window(Picos at, Picos duration, double ber,
                                 Picos ramp, int link) {
  events.push_back({.kind = FaultKind::kBerWindow, .at = at,
                    .duration = duration, .link = link, .ber = ber,
                    .ramp = ramp});
  return *this;
}

FaultPlan& FaultPlan::latency_spike(Picos at, Picos duration, Picos extra,
                                    int link) {
  events.push_back({.kind = FaultKind::kLatencySpike, .at = at,
                    .duration = duration, .link = link, .extra_delay = extra});
  return *this;
}

FaultPlan& FaultPlan::dma_stall(Picos at, Picos duration) {
  events.push_back(
      {.kind = FaultKind::kDmaStall, .at = at, .duration = duration});
  return *this;
}

FaultPlan& FaultPlan::ctrl_disconnect(Picos at, Picos duration) {
  events.push_back(
      {.kind = FaultKind::kCtrlDisconnect, .at = at, .duration = duration});
  return *this;
}

FaultPlan& FaultPlan::gps_loss(Picos at, Picos duration) {
  events.push_back(
      {.kind = FaultKind::kGpsLoss, .at = at, .duration = duration});
  return *this;
}

FaultPlan& FaultPlan::rate_limit(Picos at, Picos duration, std::string target,
                                 double rate_gbps, Picos ramp,
                                 std::int64_t burst_bytes) {
  events.push_back({.kind = FaultKind::kRateLimit, .at = at,
                    .duration = duration, .ramp = ramp,
                    .target = std::move(target), .rate_gbps = rate_gbps,
                    .burst_bytes = burst_bytes});
  return *this;
}

FaultPlan& FaultPlan::queue_cap(Picos at, Picos duration, std::string target,
                                std::size_t queue_frames) {
  events.push_back({.kind = FaultKind::kQueueCap, .at = at,
                    .duration = duration, .target = std::move(target),
                    .queue_frames = queue_frames});
  return *this;
}

void FaultPlan::normalize() {
  for (std::size_t i = 0; i < events.size(); ++i) {
    FaultEvent& e = events[i];
    if (e.at < 0) bad_event(i, "start time must be >= 0");
    if (e.duration < 0) bad_event(i, "duration must be >= 0");
    if (e.kind == FaultKind::kBerWindow) {
      if (!(e.ber >= 0.0 && e.ber <= 1.0)) {
        bad_event(i, "ber must be in [0, 1]");
      }
      if (e.ramp < 0 || e.ramp > e.duration) {
        bad_event(i, "ramp must be in [0, duration]");
      }
    }
    if (e.kind == FaultKind::kLatencySpike && e.extra_delay < 0) {
      bad_event(i, "extra delay must be >= 0");
    }
    if (e.kind == FaultKind::kRateLimit) {
      if (e.target.empty()) bad_event(i, "rate_limit requires a target");
      if (!(e.rate_gbps > 0.0)) bad_event(i, "rate_gbps must be > 0");
      if (e.ramp < 0 || e.ramp > e.duration) {
        bad_event(i, "ramp must be in [0, duration]");
      }
      if (e.burst_bytes == 0 || e.burst_bytes < -1) {
        bad_event(i, "burst_bytes must be >= 1 (omit to keep current)");
      }
    }
    if (e.kind == FaultKind::kQueueCap) {
      if (e.target.empty()) bad_event(i, "queue_cap requires a target");
      if (e.queue_frames == 0) bad_event(i, "queue_frames must be >= 1");
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

FaultPlan FaultPlan::from_json(const std::string& text) {
  FaultPlan plan;
  try {
    const Json root = json::parse(text, "fault plan JSON");
    json::ObjectReader r(root, "fault plan");
    plan.seed = r.count("seed", plan.seed);
    const Json& events = r.required("events", Json::Type::kArray);
    for (std::size_t i = 0; i < events.array.size(); ++i) {
      plan.events.push_back(read_event(events.array[i], i));
    }
    r.finish();
  } catch (const json::ParseError& e) {
    throw PlanError(e.what());
  }
  plan.normalize();
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  try {
    return from_json(json::read_file(path, "fault plan"));
  } catch (const json::ParseError& e) {
    throw PlanError(e.what());
  }
}

std::string FaultPlan::summary() const {
  std::size_t by_kind[kFaultKindCount] = {};
  Picos span = 0;
  for (const FaultEvent& e : events) {
    ++by_kind[static_cast<std::size_t>(e.kind)];
    span = std::max(span, e.at + e.duration);
  }
  char head[64];
  std::snprintf(head, sizeof head, "%zu events over %.3f ms:", events.size(),
                static_cast<double>(span) / static_cast<double>(kPicosPerMilli));
  std::string out = head;
  bool any = false;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    if (by_kind[k] == 0) continue;
    out += std::string(any ? ", " : " ") + std::to_string(by_kind[k]) + " " +
           fault_kind_name(static_cast<FaultKind>(k));
    any = true;
  }
  if (!any) out += " none";
  return out;
}

}  // namespace osnt::fault
