#include "spans.hpp"

#include <cstdio>

namespace scenario_bench {

std::uint32_t SpanRecorder::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> out(names_.size());
  for (const Span& s : spans_) {
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    out[s.name] += d;
    if (s.parent >= 0) {
      out[spans_[static_cast<std::size_t>(s.parent)].name] -= d;
    }
  }
  return out;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  bool ok = std::fputs("id,parent,name,start_ns,end_ns\n", f) >= 0;
  for (std::size_t i = 0; ok && i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    ok = std::fprintf(f, "%zu,%d,%s,%lld,%lld\n", i, s.parent,
                      names_[s.name].c_str(),
                      static_cast<long long>(s.start_ns),
                      static_cast<long long>(s.end_ns)) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

void TimedSink::keep_shape(const osnt::net::Packet& pkt) {
  for (const auto& s : shapes_) {
    if (s.size() == pkt.size()) return;
  }
  shapes_.push_back(pkt);
}

}  // namespace scenario_bench
