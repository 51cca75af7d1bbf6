// Lane: a stream of timed items that fire in order, with at most one
// armed engine event however many items are in flight (DESIGN.md §18).
//
// A wire or a FIFO serializer releases its frames in the order it took
// them in. Scheduling each frame as its own engine event makes the heap
// as deep as the burst in flight, and every pop pays for that depth. A
// lane instead keeps its items in a power-of-two ring in {time, seq}
// order and arms one event, for the head. When the head fires, the lane
// arms the next item and then hands the head to its owner.
//
// Order is exactly that of one schedule_at per item: push() takes the
// item's seq from Engine::reserve_seq() at push time, and the head is
// armed later under that reserved seq, so each item fires at the
// {time, seq} key schedule_at would have given it. An item that would
// sort before the ring's tail (a shrinking latency spike on a link) is
// scheduled on its own event, also under its reserved seq, and the ring
// stays sorted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "osnt/common/time.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::sim {

/// `Fire` is a `void(T&&)` callable that receives each item at its time.
/// Every event the lane arms carries `cat`. A lane holds `this` in its
/// armed event, so it neither copies nor moves.
template <typename T, typename Fire>
class Lane {
 public:
  Lane(Engine& eng, EventCategory cat, Fire fire)
      : eng_(&eng), cat_(cat), fire_(std::move(fire)) {}
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  /// Fire `item` at `t` (earlier than now clamps to now): at exactly the
  /// key an `engine.schedule_at(t, ...)` made here would fire at.
  void push(Picos t, T item) {
    const std::uint32_t seq = eng_->reserve_seq();
    const Picos when = t > eng_->now() ? t : eng_->now();
    const Engine::CategoryScope scope(*eng_, cat_);
    if (size_ != 0 && when < at_(size_ - 1).time) {
      eng_->schedule_reserved_at(
          when, seq, [this, item = std::move(item)]() mutable {
            fire_(std::move(item));
          });
      return;
    }
    if (size_ == ring_.size()) grow_();
    Slot& s = at_(size_);
    s.time = when;
    s.seq = seq;
    s.item = std::move(item);
    if (size_++ == 0) arm_head_();
  }

 private:
  struct Slot {
    Picos time = 0;
    std::uint32_t seq = 0;
    T item{};
  };

  static constexpr std::size_t kMinCapacity = 16;

  Slot& at_(std::size_t i) noexcept {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }

  /// Caller holds the category scope.
  void arm_head_() {
    const Slot& h = ring_[head_];
    eng_->schedule_reserved_at(h.time, h.seq, [this] { on_head_(); });
  }

  void on_head_() {
    T item = std::move(ring_[head_].item);
    head_ = (head_ + 1) & (ring_.size() - 1);
    if (--size_ != 0) {
      const Engine::CategoryScope scope(*eng_, cat_);
      arm_head_();
    }
    fire_(std::move(item));
  }

  /// Double the ring (it never shrinks) and unwrap it to start at 0.
  void grow_() {
    std::vector<Slot> bigger(ring_.empty() ? kMinCapacity : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move(at_(i));
    ring_ = std::move(bigger);
    head_ = 0;
  }

  Engine* eng_;
  EventCategory cat_;
  Fire fire_;
  std::vector<Slot> ring_;  ///< power-of-two capacity, or empty
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace osnt::sim
