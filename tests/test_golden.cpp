// Golden outputs: every examples/topologies/*.json, run as one trial at
// the file's own seed for a fixed 20 ms with a 1 ms series interval, must
// reproduce the committed kSimOnly metrics snapshot and series JSON in
// tests/golden/ byte for byte. This is the safety net under refactors
// that claim "same behaviour, less code": any change to what the
// simulation does shows up here as a diff.
//
// Each trial runs in a forked child. The registry is process-wide and
// never forgets a metric name (reset() only zeroes values), so a trial
// run after another would also list the earlier trial's metrics as
// zeros. The child starts from the parent's untouched registry, so a
// golden depends only on its own topology, whatever order or subset of
// cases runs.
//
// On a mismatch the actual output is written next to the test binary as
// <name>.{metrics,series}.json.actual; after an intended behaviour
// change, review the diff and copy those files over the goldens.
//
// WheelVsHeap reruns every topology with the engine's timing wheel off
// (bulk timers through the heap): the kSimOnly metrics and the series
// must be byte-identical to the wheel-on run (DESIGN.md §12).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "osnt/graph/topology.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt {
namespace {

namespace fs = std::filesystem;

constexpr Picos kDuration = 20 * kPicosPerMilli;
constexpr Picos kSeriesInterval = kPicosPerMilli;

const fs::path kTopologyDir =
    fs::path(OSNT_SOURCE_DIR) / "examples" / "topologies";
const fs::path kGoldenDir = fs::path(OSNT_SOURCE_DIR) / "tests" / "golden";

std::vector<std::string> example_topologies() {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(kTopologyDir)) {
    if (e.path().extension() == ".json") {
      names.push_back(e.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Outputs {
  std::string metrics;
  std::string series;
};

/// Run the trial in a forked child; it sends "metrics\0series" back over
/// a pipe. An exception in the child comes back as its message. `wheel`
/// false routes the engine's bulk timers through the heap.
Outputs run_isolated(const std::string& name, bool wheel = true) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::string out;
    int code = 0;
    try {
      const auto topo =
          graph::TopologyFile::load((kTopologyDir / (name + ".json")).string());
      telemetry::set_enabled(true);
      telemetry::registry().reset();
      std::string series;
      {
        graph::TopologyTrial trial(topo, topo.seed, kDuration,
                                   /*plan=*/nullptr, /*trace=*/nullptr,
                                   kSeriesInterval);
        trial.engine().set_wheel_enabled(wheel);
        trial.run();
        series = trial.report().series.to_json();
      }  // the trial's blocks and flows flush their telemetry here
      out = telemetry::registry().to_json(telemetry::Snapshot::kSimOnly);
      out += '\0';
      out += series;
    } catch (const std::exception& e) {
      out = e.what();
      code = 1;
    }
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) _exit(2);
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string buf;
  char chunk[1 << 16];
  ssize_t n;
  while ((n = read(fds[0], chunk, sizeof chunk)) > 0) buf.append(chunk, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("trial child failed: " + buf);
  }
  const std::size_t split = buf.find('\0');
  if (split == std::string::npos) {
    throw std::runtime_error("short child output");
  }
  return {buf.substr(0, split), buf.substr(split + 1)};
}

void expect_golden(const std::string& actual, const std::string& file) {
  const fs::path golden = kGoldenDir / file;
  const bool present = fs::exists(golden);
  if (present && read_file(golden) == actual) return;
  const std::string dump = file + ".actual";
  std::ofstream(dump, std::ios::binary) << actual;
  ADD_FAILURE() << golden << (present ? " differs" : " is missing")
                << "; actual output written to " << fs::absolute(dump);
}

class Golden : public ::testing::TestWithParam<std::string> {};

TEST_P(Golden, KSimOnlyMetricsAndSeriesMatch) {
  const Outputs out = run_isolated(GetParam());
  expect_golden(out.metrics, GetParam() + ".metrics.json");
  expect_golden(out.series, GetParam() + ".series.json");
}

INSTANTIATE_TEST_SUITE_P(ExampleTopologies, Golden,
                         ::testing::ValuesIn(example_topologies()),
                         [](const auto& info) { return info.param; });

class WheelVsHeap : public ::testing::TestWithParam<std::string> {};

TEST_P(WheelVsHeap, KSimOnlyMetricsAndSeriesMatch) {
  const Outputs wheel = run_isolated(GetParam(), /*wheel=*/true);
  const Outputs heap = run_isolated(GetParam(), /*wheel=*/false);
  EXPECT_GT(wheel.metrics.size(), 2u);
  EXPECT_EQ(wheel.metrics, heap.metrics);
  EXPECT_EQ(wheel.series, heap.series);
}

INSTANTIATE_TEST_SUITE_P(ExampleTopologies, WheelVsHeap,
                         ::testing::ValuesIn(example_topologies()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace osnt
