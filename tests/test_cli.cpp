// CLI flag parser, and the osnt_run flag checks that use it.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <ostream>
#include <string>

#include "osnt/common/cli.hpp"

namespace osnt {
namespace {

TEST(Cli, ParsesAllTypes) {
  std::string s = "default";
  double d = 1.5;
  std::int64_t i = 7;
  bool b = false;
  CliParser cli{"test"};
  cli.add_flag("str", &s, "a string");
  cli.add_flag("num", &d, "a double");
  cli.add_flag("count", &i, "an int");
  cli.add_flag("verbose", &b, "a bool");
  const char* argv[] = {"prog", "--str", "hello", "--num=2.25",
                        "--count", "42", "--verbose"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(s, "hello");
  EXPECT_DOUBLE_EQ(d, 2.25);
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(b);
}

TEST(Cli, DefaultsSurviveWhenAbsent) {
  double d = 3.0;
  CliParser cli{"test"};
  cli.add_flag("num", &d, "a double");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(d, 3.0);
}

TEST(Cli, UnknownFlagFails) {
  CliParser cli{"test"};
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_FALSE(cli.help_requested());
}

TEST(Cli, UnknownFlagSuggestsNearest) {
  double rate = 0;
  std::int64_t frames = 0;
  CliParser cli{"test"};
  cli.add_flag("rate-gbps", &rate, "rate");
  cli.add_flag("frame-size", &frames, "size");
  // One edit away → suggested.
  EXPECT_EQ(cli.nearest_flag("rate-gbp"), "rate-gbps");
  EXPECT_EQ(cli.nearest_flag("frame-sise"), "frame-size");
  // --help is always a candidate.
  EXPECT_EQ(cli.nearest_flag("helpp"), "help");
  // Gibberish is too far from anything: no suggestion.
  EXPECT_EQ(cli.nearest_flag("zzzzzzzz"), "");
  // A typo'd flag is still a hard parse error.
  const char* argv[] = {"prog", "--rate-gbp", "4"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, MissingValueFails) {
  double d = 0;
  CliParser cli{"test"};
  cli.add_flag("num", &d, "a double");
  const char* argv[] = {"prog", "--num"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, BadNumberFails) {
  double d = 0;
  std::int64_t i = 0;
  CliParser cli{"test"};
  cli.add_flag("num", &d, "a double");
  cli.add_flag("count", &i, "an int");
  const char* bad_d[] = {"prog", "--num", "abc"};
  EXPECT_FALSE(cli.parse(3, bad_d));
  CliParser cli2{"test"};
  cli2.add_flag("count", &i, "an int");
  const char* bad_i[] = {"prog", "--count", "12x"};
  EXPECT_FALSE(cli2.parse(3, bad_i));
}

TEST(Cli, BoolValueForms) {
  bool b = false;
  CliParser cli{"test"};
  cli.add_flag("flag", &b, "a bool");
  const char* on[] = {"prog", "--flag=yes"};
  ASSERT_TRUE(cli.parse(2, on));
  EXPECT_TRUE(b);
  CliParser cli2{"test"};
  cli2.add_flag("flag", &b, "a bool");
  const char* off[] = {"prog", "--flag=0"};
  ASSERT_TRUE(cli2.parse(2, off));
  EXPECT_FALSE(b);
  CliParser cli3{"test"};
  cli3.add_flag("flag", &b, "a bool");
  const char* junk[] = {"prog", "--flag=maybe"};
  EXPECT_FALSE(cli3.parse(2, junk));
}

TEST(Cli, PositionalArgumentsCollected) {
  CliParser cli{"test"};
  double d = 0;
  cli.add_flag("num", &d, "a double");
  const char* argv[] = {"prog", "input.pcap", "--num", "1", "out.pcap"};
  ASSERT_TRUE(cli.parse(5, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.pcap");
  EXPECT_EQ(cli.positional()[1], "out.pcap");
}

TEST(Cli, HelpShortCircuits) {
  CliParser cli{"test tool"};
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_TRUE(cli.help_requested());
}

TEST(Cli, UsageListsFlagsAndDefaults) {
  double d = 2.5;
  CliParser cli{"my tool"};
  cli.add_flag("rate", &d, "the rate");
  const std::string u = cli.usage();
  EXPECT_NE(u.find("my tool"), std::string::npos);
  EXPECT_NE(u.find("--rate"), std::string::npos);
  EXPECT_NE(u.find("2.5"), std::string::npos);
  EXPECT_NE(u.find("--help"), std::string::npos);
}

// ------------------------------------------------ osnt_run flag checks

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

RunResult run_osnt(const std::string& args) {
  RunResult r;
  const std::string cmd = std::string(OSNT_RUN_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr)
    r.output += buf.data();
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

struct Rejection {
  const char* name;
  const char* args;
  const char* flag;  ///< the flag the error must name
};

void PrintTo(const Rejection& c, std::ostream* os) { *os << c.args; }

class OsntRunRejects : public ::testing::TestWithParam<Rejection> {};

TEST_P(OsntRunRejects, ExitsOneNamingTheFlag) {
  const Rejection& c = GetParam();
  const RunResult r = run_osnt(c.args);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(c.flag), std::string::npos) << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    Flags, OsntRunRejects,
    ::testing::Values(
        Rejection{"capture_negative_flows", "capture --flows -3", "--flows"},
        Rejection{"capture_zero_flows", "capture --flows 0", "--flows"},
        Rejection{"capture_negative_snap", "capture --snap -1", "--snap"},
        Rejection{"capture_negative_rate", "capture --rate-gbps -1",
                  "--rate-gbps"},
        Rejection{"throughput_negative_jobs", "throughput --jobs -4",
                  "--jobs"},
        Rejection{"throughput_negative_frame_size",
                  "throughput --frame-size -1", "--frame-size"},
        Rejection{"latency_runt_frame_size", "latency --frame-size 20",
                  "--frame-size"},
        Rejection{"latency_oversize_frame_size", "latency --frame-size 1519",
                  "--frame-size"},
        Rejection{"latency_negative_rate", "latency --rate-gbps -2",
                  "--rate-gbps"},
        Rejection{"latency_negative_duration", "latency --duration-ms -1",
                  "--duration-ms"},
        Rejection{"latency_negative_retries", "latency --retries -3",
                  "--retries"},
        Rejection{"latency_negative_event_budget",
                  "latency --event-budget -1", "--event-budget"},
        Rejection{"latency_negative_wall_deadline",
                  "latency --wall-deadline-ms -5", "--wall-deadline-ms"},
        Rejection{"throughput_zero_resolution",
                  "throughput --frame-size 64 --resolution 0",
                  "--resolution"},
        Rejection{"throughput_negative_resolution",
                  "throughput --frame-size 64 --resolution -1",
                  "--resolution"}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(OsntRun, LatencyAcceptsFrameSizeBounds) {
  for (const char* size : {"64", "1518"}) {
    const RunResult r = run_osnt(std::string("latency --duration-ms 0.05 "
                                             "--frame-size ") + size);
    EXPECT_EQ(r.exit_code, 0) << size << ": " << r.output;
  }
}

}  // namespace
}  // namespace osnt
