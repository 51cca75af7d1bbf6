// Host-time spans recorded from outside the simulator: each span is a
// steady_clock interval around a call into one layer, with the span that
// was open when it began as its parent. Spans stay in memory for the
// trial and are written out once it ends, so recording costs two clock
// reads and a vector append per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "osnt/net/packet.hpp"
#include "osnt/sim/link.hpp"

namespace scenario_bench {

struct Span {
  std::uint32_t name = 0;  ///< index into SpanRecorder::names()
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// Register a span name once; hot paths pass the returned id.
  std::uint32_t intern(const std::string& name);

  std::int32_t begin(std::uint32_t name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, open_, now_ns(), 0});
    open_ = id;
    return id;
  }
  void end(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  /// Self time in seconds per interned name, indexed like names(): each
  /// span's duration minus the part its child spans cover.
  [[nodiscard]] std::vector<double> self_seconds() const;

  /// CSV: id,parent,name,start_ns,end_ns. Returns false on a write error.
  bool write_csv(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::int32_t open_ = -1;
};

/// A FrameSink that forwards to `inner` inside a span. It also keeps the
/// first frame of each distinct length it carries (up to kMaxShapes), so
/// the unit-cost probes run on the workload's own frames.
class TimedSink final : public osnt::sim::FrameSink {
 public:
  static constexpr std::size_t kMaxShapes = 4;

  TimedSink(SpanRecorder& rec, const std::string& name,
            osnt::sim::FrameSink& inner)
      : rec_(&rec), name_(rec.intern(name)), inner_(&inner) {}

  void on_frame(osnt::net::Packet pkt, osnt::Picos first_bit,
                osnt::Picos last_bit) override {
    ++calls_;
    if (shapes_.size() < kMaxShapes) keep_shape(pkt);
    const std::int32_t span = rec_->begin(name_);
    inner_->on_frame(std::move(pkt), first_bit, last_bit);
    rec_->end(span);
  }

  [[nodiscard]] std::uint32_t name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] const std::vector<osnt::net::Packet>& shapes() const noexcept {
    return shapes_;
  }

 private:
  void keep_shape(const osnt::net::Packet& pkt);

  SpanRecorder* rec_;
  std::uint32_t name_;
  osnt::sim::FrameSink* inner_;
  std::uint64_t calls_ = 0;
  std::vector<osnt::net::Packet> shapes_;
};

}  // namespace scenario_bench
