// osnt::json: the parser's positions and cost, and ObjectReader, the
// strict schema reader behind topology files and fault plans.
#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <cstdint>
#include <string>

#include "osnt/common/json.hpp"

namespace osnt::json {
namespace {

/// Run `read` expecting a ParseError; return its message.
template <class Fn>
std::string error_of(Fn&& read) {
  try {
    read();
  } catch (const ParseError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ParseError, read succeeded";
  return {};
}

void expect_contains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "expected \"" << needle << "\" in: " << msg;
}

TEST(JsonParse, LargeDocumentParsesInLinearTime) {
  // ~300 KB, one small object per line. Positions used to be recounted
  // from the start of the text for every value, which took seconds here.
  constexpr std::size_t kObjects = 15000;
  std::string text = "[\n";
  for (std::size_t i = 0; i < kObjects; ++i) {
    text += "  {\"a\": 1, \"b\": 2}";
    text += i + 1 < kObjects ? ",\n" : "\n";
  }
  text += "]";
  ASSERT_GT(text.size(), 280'000u);

  const auto t0 = std::chrono::steady_clock::now();
  const Value doc = parse(text);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(secs, 1.0);

  // Object i sits on line i + 2 at column 3; its "b" value at column 17.
  ASSERT_EQ(doc.array.size(), kObjects);
  const Value& last = doc.array.back();
  EXPECT_EQ(last.line, kObjects + 1);
  EXPECT_EQ(last.column, 3u);
  ASSERT_EQ(last.object.size(), 2u);
  EXPECT_EQ(last.object[1].second.line, kObjects + 1);
  EXPECT_EQ(last.object[1].second.column, 17u);

  // A syntax error after all those stamps is still positioned exactly.
  const std::string msg = error_of([&] { (void)parse(text + " x"); });
  expect_contains(msg, "trailing content");
  expect_contains(msg,
                  "(line " + std::to_string(kObjects + 2) + " column 3)");
}

TEST(JsonReader, ReadsTypedFieldsAndFallbacks) {
  const Value v = parse(R"({"rate": 2.5, "on": true, "name": "q",
                            "n": 7, "delay_us": 3})");
  ObjectReader r(v, "t");
  EXPECT_DOUBLE_EQ(r.number("rate", 0.0), 2.5);
  EXPECT_TRUE(r.boolean("on", false));
  EXPECT_EQ(r.string("name", ""), "q");
  EXPECT_EQ(r.count("n", std::size_t{0}), 7u);
  EXPECT_EQ(r.time("delay", 0), 3 * kPicosPerMicro);
  EXPECT_DOUBLE_EQ(r.number("absent", 9.0), 9.0);
  EXPECT_EQ(r.time("gap", 11), 11);
  EXPECT_NO_THROW(r.finish());
}

TEST(JsonReader, UnknownKeyAfterReadsSuggestsAnAskedName) {
  const Value v = parse(R"({"rate_gbps": 1,
    "queue_framse": 8})");
  ObjectReader r(v, "topology: blocks[0] ('q')");
  (void)r.number("rate_gbps", 0.0);
  (void)r.count("queue_frames", std::size_t{64});
  const std::string msg = error_of([&] { r.finish(); });
  expect_contains(msg,
                  "topology: blocks[0] ('q'): unknown key 'queue_framse'");
  expect_contains(msg, "(did you mean 'queue_frames'?)");
  expect_contains(msg, "(line 2 column 21)");

  // Time reads accept three spellings; the hint names one of them.
  const Value t = parse(R"({"delay_sn": 5})");
  ObjectReader rt(t, "t");
  (void)rt.time("delay", 0);
  expect_contains(error_of([&] { rt.finish(); }),
                  "unknown key 'delay_sn' (did you mean 'delay_ns'?)");

  // Nothing close: no hint at all.
  const Value far = parse(R"({"zzz": 1})");
  ObjectReader rf(far, "t");
  (void)rf.number("rate_gbps", 0.0);
  const std::string plain = error_of([&] { rf.finish(); });
  expect_contains(plain, "unknown key 'zzz'");
  EXPECT_EQ(plain.find("did you mean"), std::string::npos) << plain;
}

TEST(JsonReader, TypoedRequiredKeyIsReportedAsTheTypo) {
  const Value v = parse(R"({"kind": "x",
    "tagret": "q"})");
  ObjectReader r(v, "event 0");
  (void)r.required_string("kind");
  const std::string msg =
      error_of([&] { (void)r.required_string("target"); });
  expect_contains(msg,
                  "event 0: unknown key 'tagret' (did you mean 'target'?)");
  expect_contains(msg, "(line 2 column 15)");

  // Genuinely absent: positioned at the object.
  const Value none = parse(R"(  {"kind": "x"})");
  ObjectReader rn(none, "event 1");
  const std::string missing =
      error_of([&] { (void)rn.required_time("at"); });
  expect_contains(missing, "event 1: missing required key 'at'");
  expect_contains(missing, "(line 1 column 3)");
}

TEST(JsonReader, TwoTimeUnitsAreAnError) {
  const Value v = parse(R"({"at_ns": 10, "at_us": 1})");
  ObjectReader r(v, "t");
  const std::string msg = error_of([&] { (void)r.time("at", 0); });
  expect_contains(msg, "t: 'at' given in more than one unit");
  expect_contains(msg, "(line 1 column 24)");

  const Value neg = parse(R"({"at_ms": -1})");
  ObjectReader rn(neg, "t");
  expect_contains(error_of([&] { (void)rn.required_time("at"); }),
                  "'at' out of range");
}

TEST(JsonReader, DuplicateKeyIsAnError) {
  // The parser keeps both members; the second used to be ignored.
  const Value v = parse(R"({"queue_frames": 8, "queue_frames": 999})");
  ObjectReader r(v, "t");
  const std::string msg =
      error_of([&] { (void)r.count("queue_frames", std::size_t{0}); });
  expect_contains(msg, "t: duplicate key 'queue_frames'");
  expect_contains(msg, "(line 1 column 37)");

  const Value t = parse(R"({"at_us": 1, "at_us": 2})");
  ObjectReader rt(t, "t");
  expect_contains(error_of([&] { (void)rt.time("at", 0); }),
                  "t: duplicate key 'at_us'");
}

TEST(JsonReader, IntegerRangeAtTheBounds) {
  const auto read_int = [](const std::string& n) {
    const Value v = parse("{\"n\": " + n + "}");
    ObjectReader r(v, "t");
    return r.count("n", -1, 0, INT_MAX);
  };
  EXPECT_EQ(read_int("0"), 0);
  EXPECT_EQ(read_int("2147483647"), INT_MAX);
  expect_contains(error_of([&] { (void)read_int("2147483648"); }),
                  "'n' must be in [0, 2147483647]");
  expect_contains(error_of([&] { (void)read_int("4294967296"); }),
                  "'n' must be in [0, 2147483647]");
  expect_contains(error_of([&] { (void)read_int("-1"); }),
                  "'n' must be a non-negative integer");
  expect_contains(error_of([&] { (void)read_int("1.5"); }),
                  "'n' must be a non-negative integer");

  // The lower bound is inclusive too.
  const Value one = parse(R"({"a": 1, "b": 0})");
  ObjectReader r1(one, "t");
  EXPECT_EQ(r1.required_count<std::size_t>("a", 1), 1u);
  expect_contains(
      error_of([&] { (void)r1.required_count<std::size_t>("b", 1); }),
      "'b' must be in [1, 18446744073709551615]");

  // A 64-bit field takes the largest double below 2^64 and refuses 2^64.
  const Value big = parse(
      R"({"max": 18446744073709549568, "over": 18446744073709551616})");
  ObjectReader rb(big, "t");
  EXPECT_EQ(rb.count("max", std::uint64_t{0}), 18446744073709549568u);
  expect_contains(
      error_of([&] { (void)rb.count("over", std::uint64_t{0}); }),
      "'over' must be a non-negative integer below 2^64");
}

TEST(JsonReader, WrongTypeNamesBothTypes) {
  const Value v = parse(R"({"rate": "fast"})");
  ObjectReader r(v, "t");
  const std::string msg = error_of([&] { (void)r.number("rate", 0.0); });
  expect_contains(msg, "t: 'rate' must be a number, got string");
  expect_contains(msg, "(line 1 column 10)");
}

TEST(JsonReader, NonObjectInputIsPositioned) {
  const Value v = parse("\n  [1, 2]");
  const std::string msg = error_of([&] { ObjectReader r(v, "workload"); });
  expect_contains(msg, "workload: expected an object, got array");
  expect_contains(msg, "(line 2 column 3)");
}

}  // namespace
}  // namespace osnt::json
