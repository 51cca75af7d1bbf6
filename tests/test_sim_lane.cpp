// Lanes: one armed event per in-order stream, each item firing at the
// {time, seq} key a schedule_at of its own would have had.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "osnt/common/random.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/sim/lane.hpp"
#include "osnt/sim/link.hpp"

namespace osnt::sim {
namespace {

struct Fired {
  int stream;
  int id;
  Picos at;
  friend bool operator==(const Fired&, const Fired&) = default;
};

/// `streams` in-order streams of int items, each either a Lane or one
/// schedule_at per item (the reference the lane must match exactly).
class Streams {
 public:
  Streams(std::size_t streams, bool lanes) : lanes_(lanes) {
    for (std::size_t s = 0; s < streams; ++s) {
      lane_.push_back(std::make_unique<Lane<int, Fire>>(
          eng, EventCategory::kGeneric, Fire{this, static_cast<int>(s)}));
    }
  }

  void push(int stream, Picos t, int id) {
    if (lanes_) {
      lane_[static_cast<std::size_t>(stream)]->push(t, id);
    } else {
      eng.schedule_at(t, [this, stream, id] { fired(stream, id); });
    }
  }

  Engine eng;
  std::vector<Fired> log;
  /// Called after each item is logged; may push more items.
  std::function<void(int stream, int id)> on_fire;

 private:
  struct Fire {
    Streams* self;
    int stream;
    void operator()(int&& id) const { self->fired(stream, id); }
  };

  void fired(int stream, int id) {
    log.push_back(Fired{stream, id, eng.now()});
    if (on_fire) on_fire(stream, id);
  }

  bool lanes_;
  std::vector<std::unique_ptr<Lane<int, Fire>>> lane_;
};

TEST(Lane, OutOfOrderPushesFireInStableTimeOrder) {
  Rng rng(7);
  std::vector<Picos> times(300);
  for (auto& t : times) t = static_cast<Picos>(rng.uniform_int(0, 40));
  Streams s(1, true);
  for (std::size_t i = 0; i < times.size(); ++i) {
    s.push(0, times[i], static_cast<int>(i));
  }
  s.eng.run();

  std::vector<std::size_t> want(times.size());
  std::iota(want.begin(), want.end(), 0);
  std::stable_sort(want.begin(), want.end(), [&](std::size_t a, std::size_t b) {
    return times[a] < times[b];
  });
  ASSERT_EQ(s.log.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(s.log[i].id, static_cast<int>(want[i])) << "position " << i;
    EXPECT_EQ(s.log[i].at, times[want[i]]) << "position " << i;
  }
}

TEST(Lane, InOrderStreamKeepsOneArmedEvent) {
  Streams s(1, true);
  for (int i = 0; i < 1000; ++i) s.push(0, 10 + i, i);
  EXPECT_EQ(s.eng.pending(), 1u);
  s.eng.run();
  EXPECT_EQ(s.log.size(), 1000u);
  EXPECT_EQ(s.eng.events_processed(), 1000u);  // still one firing per item
  EXPECT_EQ(s.eng.live_high_water(), 1u);
}

TEST(Lane, ReservedSeqPlacesItemBetweenForeignEventsAtOneInstant) {
  Streams s(1, true);
  std::vector<int> order;
  s.on_fire = [&](int, int id) { order.push_back(id); };
  // The head at t=5 is armed at push time; the item at t=9 waits in the
  // ring and is armed only when the head fires, under its reserved seq.
  s.push(0, 5, 100);
  s.eng.schedule_at(9, [&] { order.push_back(1); });
  s.push(0, 9, 101);
  s.eng.schedule_at(9, [&] { order.push_back(2); });
  // A lone item (armed at push) between two foreign events.
  s.eng.schedule_at(20, [&] { order.push_back(3); });
  s.push(0, 20, 102);
  s.eng.schedule_at(20, [&] { order.push_back(4); });
  s.eng.run();
  EXPECT_EQ(order, (std::vector<int>{100, 1, 101, 2, 3, 102, 4}));
}

TEST(Lane, PastTimesClampToNowLikeScheduleAt) {
  Streams s(1, true);
  s.eng.run_until(50);
  s.eng.schedule_at(50, [&] { s.log.push_back(Fired{-1, 0, s.eng.now()}); });
  s.push(0, 10, 1);  // in the past: fires at 50, after the foreign event
  s.push(0, 50, 2);
  s.eng.run();
  EXPECT_EQ(s.log, (std::vector<Fired>{{-1, 0, 50}, {0, 1, 50}, {0, 2, 50}}));
}

/// Runs `scenario` on lanes and on one event per item; the logs must match.
void expect_same_as_per_event(const std::function<void(Streams&)>& scenario) {
  Streams lanes(3, true);
  Streams events(3, false);
  scenario(lanes);
  scenario(events);
  lanes.eng.run();
  events.eng.run();
  ASSERT_GT(events.log.size(), 500u);
  EXPECT_EQ(lanes.log, events.log);
  EXPECT_EQ(lanes.eng.events_processed(), events.eng.events_processed());
  EXPECT_EQ(lanes.eng.now(), events.eng.now());
}

TEST(Lane, PushFromTheFireCallbackIntoThisLaneAndAnother) {
  expect_same_as_per_event([](Streams& s) {
    int next = 1000;
    s.on_fire = [&s, next](int stream, int id) mutable {
      if (id >= 1000 + 200) return;
      // Into the same lane (at now and later) and into another lane.
      s.push(stream, s.eng.now(), next++);
      s.push(stream, s.eng.now() + 3, next++);
      s.push((stream + 1) % 3, s.eng.now() + 1, next++);
    };
    for (int i = 0; i < 4; ++i) s.push(0, 2 * i, i);
  });
}

TEST(Lane, RandomizedStreamsMatchOneEventPerItem) {
  expect_same_as_per_event([](Streams& s) {
    auto rng = std::make_shared<Rng>(2024);
    auto next = std::make_shared<int>(0);
    s.on_fire = [&s, rng, next](int, int) {
      if (*next >= 5000) return;
      const int fan = static_cast<int>(rng->uniform_int(0, 3));
      for (int k = 0; k < fan; ++k) {
        const auto stream = static_cast<int>(rng->uniform_int(0, 2));
        // Mostly in order, sometimes earlier than the tail (fallback),
        // sometimes a foreign event at the same instant.
        const Picos dt = static_cast<Picos>(rng->uniform_int(0, 60));
        if (rng->chance(0.1)) {
          const int id = (*next)++;
          s.eng.schedule_at(s.eng.now() + dt,
                            [&s, id] { s.log.push_back(Fired{-1, id, s.eng.now()}); });
        } else {
          s.push(stream, s.eng.now() + dt, (*next)++);
        }
      }
    };
    for (int i = 0; i < 40; ++i) s.push(i % 3, i % 7, (*next)++);
  });
}

// ------------------------------------------------------------ links

struct ArrivalLog : FrameSink {
  struct Arrival {
    std::uint64_t id;
    Picos first_bit;
    Picos last_bit;
    Picos at;
  };
  Engine* eng = nullptr;
  std::vector<Arrival> arrivals;
  void on_frame(net::Packet pkt, Picos first_bit, Picos last_bit) override {
    arrivals.push_back(Arrival{pkt.id, first_bit, last_bit, eng->now()});
  }
};

net::Packet frame(std::uint64_t id) {
  net::Packet p(Bytes(60, 0xab));
  p.id = id;
  return p;
}

TEST(Lane, LinkDelayShrinkMidBurstDeliversInArrivalThenCarryOrder) {
  Engine eng;
  Link link(eng, 1'000);
  ArrivalLog sink;
  sink.eng = &eng;
  link.connect(sink);
  constexpr Picos kGap = 67'200;  // 64 B at 10 Gb/s
  constexpr int kFrames = 200;
  std::vector<Picos> last_bit(kFrames);
  link.set_extra_delay(3'000'000);
  for (int i = 0; i < kFrames; ++i) {
    // Halfway through the burst the spike shrinks: later frames overtake
    // earlier ones still in flight.
    if (i == kFrames / 2) link.set_extra_delay(100'000);
    const Picos tx_start = i * kGap;
    link.carry(frame(static_cast<std::uint64_t>(i)), tx_start,
               tx_start + kGap);
    last_bit[static_cast<std::size_t>(i)] =
        tx_start + kGap + 1'000 + link.extra_delay();
  }
  // The first half waits on one armed event; each overtaking frame of the
  // second half goes on an event of its own until one lands behind the
  // ring's tail.
  EXPECT_LT(eng.pending(), static_cast<std::size_t>(kFrames));
  eng.run();

  std::vector<std::size_t> want(kFrames);
  std::iota(want.begin(), want.end(), 0);
  std::stable_sort(want.begin(), want.end(), [&](std::size_t a, std::size_t b) {
    return last_bit[a] < last_bit[b];
  });
  ASSERT_EQ(sink.arrivals.size(), static_cast<std::size_t>(kFrames));
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& a = sink.arrivals[i];
    EXPECT_EQ(a.id, want[i]) << "position " << i;
    EXPECT_EQ(a.last_bit, last_bit[want[i]]);
    EXPECT_EQ(a.at, a.last_bit);
    EXPECT_EQ(a.last_bit - a.first_bit, kGap);
  }
  EXPECT_EQ(link.frames_carried(), static_cast<std::uint64_t>(kFrames));
}

TEST(Lane, LinkDownKeepsFramesAlreadyInFlight) {
  Engine eng;
  Link link(eng, 5'000);
  ArrivalLog sink;
  sink.eng = &eng;
  link.connect(sink);
  for (int i = 0; i < 10; ++i) {
    link.carry(frame(static_cast<std::uint64_t>(i)), i * 1'000,
               i * 1'000 + 800);
  }
  EXPECT_EQ(eng.pending(), 1u);
  link.set_up(false);
  for (int i = 10; i < 15; ++i) {
    link.carry(frame(static_cast<std::uint64_t>(i)), i * 1'000,
               i * 1'000 + 800);
  }
  eng.run();
  ASSERT_EQ(sink.arrivals.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sink.arrivals[i].id, i);
    EXPECT_EQ(sink.arrivals[i].at, static_cast<Picos>(i) * 1'000 + 5'800);
  }
  EXPECT_EQ(link.frames_carried(), 10u);
  EXPECT_EQ(link.frames_lost_down(), 5u);
}

}  // namespace
}  // namespace osnt::sim
