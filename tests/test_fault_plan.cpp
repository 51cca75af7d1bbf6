// FaultPlan: JSON parsing (strict schema), builders, validation, summary.
#include <gtest/gtest.h>

#include <string>

#include "osnt/common/json.hpp"
#include "osnt/fault/plan.hpp"

namespace osnt::fault {
namespace {

TEST(FaultPlan, ParsesEveryKindFromJson) {
  const auto plan = FaultPlan::from_json(R"({
    "seed": 42,
    "events": [
      {"type": "link_flap", "at_us": 100, "duration_us": 50, "link": 0},
      {"type": "ber_window", "at_us": 0, "duration_us": 200, "ber": 1e-6,
       "ramp_us": 40},
      {"type": "latency_spike", "at_us": 10, "duration_us": 5,
       "extra_ns": 800},
      {"type": "dma_stall", "at_us": 120, "duration_us": 30},
      {"type": "ctrl_disconnect", "at_ms": 1, "duration_ms": 4},
      {"type": "gps_loss", "at_ms": 0, "duration_ms": 900}
    ]})");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.events.size(), 6u);
  // normalize() sorted by start time: ber_window and gps_loss start at 0.
  EXPECT_EQ(plan.events[0].kind, FaultKind::kBerWindow);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kGpsLoss);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLatencySpike);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(plan.events[3].at, 100 * kPicosPerMicro);
  EXPECT_EQ(plan.events[3].duration, 50 * kPicosPerMicro);
  EXPECT_EQ(plan.events[3].link, 0);
  EXPECT_EQ(plan.events[4].kind, FaultKind::kDmaStall);
  EXPECT_EQ(plan.events[5].kind, FaultKind::kCtrlDisconnect);
  EXPECT_EQ(plan.events[5].at, kPicosPerMilli);
  EXPECT_DOUBLE_EQ(plan.events[0].ber, 1e-6);
  EXPECT_EQ(plan.events[0].ramp, 40 * kPicosPerMicro);
  EXPECT_EQ(plan.events[2].extra_delay, 800 * kPicosPerNano);
}

TEST(FaultPlan, DefaultsAndOmittedFields) {
  const auto plan = FaultPlan::from_json(
      R"({"events": [{"type": "link_flap", "at_us": 5}]})");
  EXPECT_EQ(plan.seed, 1u);  // default
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].duration, 0);  // instantaneous
  EXPECT_EQ(plan.events[0].link, -1);     // all links
}

TEST(FaultPlan, UnknownTypeIsHardError) {
  EXPECT_THROW((void)FaultPlan::from_json(
                   R"({"events": [{"type": "cosmic_ray", "at_us": 1}]})"),
               PlanError);
}

TEST(FaultPlan, UnknownKeyIsHardError) {
  // A typoed field must not silently never fire.
  EXPECT_THROW(
      (void)FaultPlan::from_json(
          R"({"events": [{"type": "link_flap", "at_us": 1, "durration_us": 5}]})"),
      PlanError);
  EXPECT_THROW((void)FaultPlan::from_json(R"({"sed": 3, "events": []})"),
               PlanError);
}

TEST(FaultPlan, WrongTypesAndMalformedJsonAreHardErrors) {
  EXPECT_THROW((void)FaultPlan::from_json("not json"), PlanError);
  EXPECT_THROW((void)FaultPlan::from_json(R"({"events": 3})"), PlanError);
  EXPECT_THROW((void)FaultPlan::from_json(R"({"events": [)"), PlanError);
  EXPECT_THROW((void)FaultPlan::from_json(
                   R"({"events": [{"type": "link_flap", "at_us": "soon"}]})"),
               PlanError);
  // Missing required start time.
  EXPECT_THROW(
      (void)FaultPlan::from_json(R"({"events": [{"type": "link_flap"}]})"),
      PlanError);
  // Two units for one field.
  EXPECT_THROW((void)FaultPlan::from_json(
                   R"({"events": [{"type": "link_flap", "at_us": 1, "at_ms": 1}]})"),
               PlanError);
}

TEST(FaultPlan, ValidationRejectsBadValues) {
  FaultPlan bad_ber;
  bad_ber.ber_window(0, kPicosPerMicro, /*ber=*/1.5);
  EXPECT_THROW(bad_ber.normalize(), PlanError);

  FaultPlan bad_ramp;
  bad_ramp.ber_window(0, kPicosPerMicro, 1e-6, /*ramp=*/2 * kPicosPerMicro);
  EXPECT_THROW(bad_ramp.normalize(), PlanError);

  FaultPlan negative_at;
  negative_at.link_flap(-5, kPicosPerMicro);
  EXPECT_THROW(negative_at.normalize(), PlanError);
}

TEST(FaultPlan, BuildersMatchJson) {
  FaultPlan built;
  built.seed = 42;
  built.ber_window(0, 200 * kPicosPerMicro, 1e-6, 40 * kPicosPerMicro)
      .link_flap(100 * kPicosPerMicro, 50 * kPicosPerMicro, 0)
      .dma_stall(120 * kPicosPerMicro, 30 * kPicosPerMicro);
  built.normalize();
  const auto parsed = FaultPlan::from_json(R"({
    "seed": 42,
    "events": [
      {"type": "ber_window", "at_us": 0, "duration_us": 200, "ber": 1e-6,
       "ramp_us": 40},
      {"type": "link_flap", "at_us": 100, "duration_us": 50, "link": 0},
      {"type": "dma_stall", "at_us": 120, "duration_us": 30}
    ]})");
  ASSERT_EQ(built.events.size(), parsed.events.size());
  for (std::size_t i = 0; i < built.events.size(); ++i) {
    EXPECT_EQ(built.events[i].kind, parsed.events[i].kind);
    EXPECT_EQ(built.events[i].at, parsed.events[i].at);
    EXPECT_EQ(built.events[i].duration, parsed.events[i].duration);
    EXPECT_EQ(built.events[i].link, parsed.events[i].link);
    EXPECT_DOUBLE_EQ(built.events[i].ber, parsed.events[i].ber);
    EXPECT_EQ(built.events[i].ramp, parsed.events[i].ramp);
  }
}

TEST(FaultPlan, NormalizeIsStableOnTies) {
  FaultPlan p;
  p.link_flap(kPicosPerMicro, 1).dma_stall(kPicosPerMicro, 1);
  p.normalize();
  ASSERT_EQ(p.events.size(), 2u);
  EXPECT_EQ(p.events[0].kind, FaultKind::kLinkFlap);  // insertion order kept
  EXPECT_EQ(p.events[1].kind, FaultKind::kDmaStall);
}

TEST(FaultPlan, SummaryCountsKinds) {
  FaultPlan p;
  p.link_flap(0, kPicosPerMicro).link_flap(kPicosPerMilli, kPicosPerMicro);
  p.gps_loss(2 * kPicosPerMilli, kPicosPerMilli);
  p.normalize();
  const std::string s = p.summary();
  EXPECT_NE(s.find("3 events"), std::string::npos) << s;
  EXPECT_NE(s.find("2 link_flap"), std::string::npos) << s;
  EXPECT_NE(s.find("1 gps_loss"), std::string::npos) << s;
}

TEST(FaultPlan, LoadMissingFileThrows) {
  EXPECT_THROW((void)FaultPlan::load("/nonexistent/plan.json"), PlanError);
}

TEST(FaultPlan, ParsesBlockTargetedKindsFromJson) {
  const auto plan = FaultPlan::from_json(R"({
    "seed": 9,
    "events": [
      {"type": "rate_limit", "at_ms": 5, "duration_ms": 10,
       "target": "policer", "rate_gbps": 0.5, "ramp_ms": 2,
       "burst_bytes": 15000},
      {"type": "queue_cap", "at_ms": 6, "duration_ms": 8,
       "target": "bottleneck", "queue_frames": 32}
    ]})");
  ASSERT_EQ(plan.events.size(), 2u);
  const FaultEvent& rl = plan.events[0];
  EXPECT_EQ(rl.kind, FaultKind::kRateLimit);
  EXPECT_EQ(rl.at, 5 * kPicosPerMilli);
  EXPECT_EQ(rl.duration, 10 * kPicosPerMilli);
  EXPECT_EQ(rl.target, "policer");
  EXPECT_DOUBLE_EQ(rl.rate_gbps, 0.5);
  EXPECT_EQ(rl.ramp, 2 * kPicosPerMilli);
  EXPECT_EQ(rl.burst_bytes, 15000);
  const FaultEvent& qc = plan.events[1];
  EXPECT_EQ(qc.kind, FaultKind::kQueueCap);
  EXPECT_EQ(qc.target, "bottleneck");
  EXPECT_EQ(qc.queue_frames, 32u);
}

TEST(FaultPlan, BlockTargetedBuildersMatchJson) {
  FaultPlan built;
  built.seed = 9;
  built
      .rate_limit(5 * kPicosPerMilli, 10 * kPicosPerMilli, "policer", 0.5,
                  2 * kPicosPerMilli, 15000)
      .queue_cap(6 * kPicosPerMilli, 8 * kPicosPerMilli, "bottleneck", 32);
  built.normalize();
  const auto parsed = FaultPlan::from_json(R"({
    "seed": 9,
    "events": [
      {"type": "rate_limit", "at_ms": 5, "duration_ms": 10,
       "target": "policer", "rate_gbps": 0.5, "ramp_ms": 2,
       "burst_bytes": 15000},
      {"type": "queue_cap", "at_ms": 6, "duration_ms": 8,
       "target": "bottleneck", "queue_frames": 32}
    ]})");
  ASSERT_EQ(built.events.size(), parsed.events.size());
  for (std::size_t i = 0; i < built.events.size(); ++i) {
    EXPECT_EQ(built.events[i].kind, parsed.events[i].kind);
    EXPECT_EQ(built.events[i].at, parsed.events[i].at);
    EXPECT_EQ(built.events[i].duration, parsed.events[i].duration);
    EXPECT_EQ(built.events[i].target, parsed.events[i].target);
    EXPECT_DOUBLE_EQ(built.events[i].rate_gbps, parsed.events[i].rate_gbps);
    EXPECT_EQ(built.events[i].ramp, parsed.events[i].ramp);
    EXPECT_EQ(built.events[i].burst_bytes, parsed.events[i].burst_bytes);
    EXPECT_EQ(built.events[i].queue_frames, parsed.events[i].queue_frames);
  }
}

TEST(FaultPlan, BlockTargetedValidationRejectsBadValues) {
  FaultPlan no_target;
  no_target.rate_limit(0, kPicosPerMilli, "", 1.0);
  EXPECT_THROW(no_target.normalize(), PlanError);

  FaultPlan zero_rate;
  zero_rate.rate_limit(0, kPicosPerMilli, "policer", 0.0);
  EXPECT_THROW(zero_rate.normalize(), PlanError);

  FaultPlan zero_burst;
  zero_burst.rate_limit(0, kPicosPerMilli, "policer", 1.0, 0,
                        /*burst_bytes=*/0);
  EXPECT_THROW(zero_burst.normalize(), PlanError);

  FaultPlan zero_frames;
  zero_frames.queue_cap(0, kPicosPerMilli, "bottleneck", 0);
  EXPECT_THROW(zero_frames.normalize(), PlanError);
}

/// Parse expecting a PlanError; return its message for substring checks.
std::string plan_error(const std::string& text) {
  try {
    (void)FaultPlan::from_json(text);
  } catch (const PlanError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected PlanError, plan parsed fine";
  return {};
}

TEST(FaultPlan, ErrorsCarryPositionAndSuggestion) {
  // A typoed event type: position of the offending value plus the
  // nearest known kind.
  const std::string typo_type = plan_error(R"({
    "events": [
      {"type": "rate_limti", "at_ms": 5, "target": "p", "rate_gbps": 1.0}
    ]})");
  EXPECT_NE(typo_type.find("rate_limti"), std::string::npos) << typo_type;
  EXPECT_NE(typo_type.find("did you mean 'rate_limit'?"), std::string::npos)
      << typo_type;
  EXPECT_NE(typo_type.find("line"), std::string::npos) << typo_type;

  // A typoed field on a block-targeted event.
  const std::string typo_key = plan_error(R"({
    "events": [
      {"type": "queue_cap", "at_ms": 5, "target": "q", "queue_framse": 8}
    ]})");
  EXPECT_NE(typo_key.find("queue_framse"), std::string::npos) << typo_key;
  EXPECT_NE(typo_key.find("did you mean 'queue_frames'?"), std::string::npos)
      << typo_key;
  EXPECT_NE(typo_key.find("line"), std::string::npos) << typo_key;

  // Keys are strict per kind: `link` belongs to link faults, so on a DMA
  // stall it is as unknown as a typo.
  const std::string other_kind = plan_error(R"({"events": [
    {"type": "dma_stall", "at_us": 1, "duration_us": 2, "link": 0}]})");
  EXPECT_NE(other_kind.find("event 0 (dma_stall): unknown key 'link'"),
            std::string::npos)
      << other_kind;
}

TEST(FaultPlan, IntegerFieldsAreRangeChecked) {
  // 2^32 once wrapped to a negative link index, which means "all links".
  const std::string link = plan_error(R"({"events": [
    {"type": "link_flap", "at_us": 1, "duration_us": 5, "link": 4294967296}]})");
  EXPECT_NE(link.find("event 0 (link_flap): 'link' must be in [0, 2147483647]"),
            std::string::npos)
      << link;
  EXPECT_NE(link.find("(line 2 column 65)"), std::string::npos) << link;

  const std::string frames = plan_error(R"({"events": [
    {"type": "queue_cap", "at_us": 1, "target": "q", "queue_frames": 1e30}]})");
  EXPECT_NE(frames.find("'queue_frames' must be in [1, "), std::string::npos)
      << frames;

  const std::string burst = plan_error(R"({"events": [
    {"type": "rate_limit", "at_us": 1, "target": "p", "rate_gbps": 1,
     "burst_bytes": 0}]})");
  EXPECT_NE(burst.find("'burst_bytes' must be in [1, 9223372036854775807]"),
            std::string::npos)
      << burst;

  for (const char* seed : {"1e30", "1.5", "-1"}) {
    const std::string msg = plan_error(std::string(R"({"seed": )") + seed +
                                       R"(, "events": []})");
    EXPECT_NE(msg.find("fault plan: 'seed' must be a non-negative integer"),
              std::string::npos)
        << msg;
  }

  // The bounds themselves are accepted.
  const auto plan = FaultPlan::from_json(R"({"seed": 18446744073709549568,
    "events": [
      {"type": "link_flap", "at_us": 1, "link": 2147483647},
      {"type": "queue_cap", "at_us": 2, "target": "q", "queue_frames": 1},
      {"type": "rate_limit", "at_us": 3, "target": "p", "rate_gbps": 1,
       "burst_bytes": 1}]})");
  EXPECT_EQ(plan.seed, 18446744073709549568u);
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].link, 2147483647);
  EXPECT_EQ(plan.events[1].queue_frames, 1u);
  EXPECT_EQ(plan.events[2].burst_bytes, 1);
}

TEST(FaultPlan, TopLevelErrorsArePositioned) {
  const std::string typo = plan_error(R"({"seed":1,"evnets":[]})");
  EXPECT_NE(typo.find("unknown key 'evnets' (did you mean 'events'?)"),
            std::string::npos)
      << typo;
  EXPECT_NE(typo.find("(line 1 column 20)"), std::string::npos) << typo;

  const std::string root = plan_error("\n [1]");
  EXPECT_NE(root.find("fault plan: expected an object, got array"),
            std::string::npos)
      << root;
  EXPECT_NE(root.find("(line 2 column 2)"), std::string::npos) << root;

  const std::string none = plan_error(R"({"seed": 1})");
  EXPECT_NE(none.find("fault plan: missing required key 'events'"),
            std::string::npos)
      << none;
  EXPECT_NE(none.find("(line 1 column 1)"), std::string::npos) << none;
}

TEST(FaultPlan, HostileNestingIsAPositionedError) {
  // `{"events":` is 10 bytes and holds level 1 of json::kMaxDepth.
  const std::string msg =
      plan_error("{\"events\":" + std::string(100000, '['));
  EXPECT_NE(msg.find("nesting deeper than"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(line 1 column " +
                     std::to_string(10 + json::kMaxDepth) + ")"),
            std::string::npos)
      << msg;
}

TEST(FaultPlan, SummaryCountsBlockTargetedKinds) {
  FaultPlan p;
  p.rate_limit(0, kPicosPerMilli, "policer", 1.0);
  p.queue_cap(kPicosPerMilli, kPicosPerMilli, "bottleneck", 16);
  p.normalize();
  const std::string s = p.summary();
  EXPECT_NE(s.find("1 rate_limit"), std::string::npos) << s;
  EXPECT_NE(s.find("1 queue_cap"), std::string::npos) << s;
}

}  // namespace
}  // namespace osnt::fault
