#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace hbh::sim {

namespace {

constexpr std::uint64_t encode(std::uint32_t slot, std::uint32_t gen) noexcept {
  return ((static_cast<std::uint64_t>(slot) + 1) << 32) | gen;
}

static_assert(std::has_single_bit(EventQueue::kOpenBuckets));
constexpr int kLineShift = 64 - std::countr_zero(EventQueue::kOpenBuckets);

}  // namespace

std::size_t EventQueue::cache_line(Time when) noexcept {
  // Fibonacci hashing of the raw bits: integer-valued times differ only in
  // their high mantissa bits, which the multiply spreads into the top bits.
  const auto bits = std::bit_cast<std::uint64_t>(when);
  return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> kLineShift);
}

std::uint32_t EventQueue::open_bucket(Time when, std::size_t line) {
  std::uint32_t b;
  if (free_buckets_.empty()) {
    b = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  } else {
    b = free_buckets_.back();
    free_buckets_.pop_back();
  }
  buckets_[b] = Bucket{when, kNil, kNil};
  heap_.push_back(Instant{when, next_order_++, b});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  // Whatever bucket held this line is closed from here on: it drains, but
  // later pushes at its instant open a newer bucket behind it.
  open_[line] = b;
  return b;
}

EventId EventQueue::push(Time when, Task task) {
  assert(task.run != nullptr);
  when += 0.0;  // -0.0 and +0.0 are one instant: give them one cache line
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.task = task;
  s.next = kNil;

  const std::size_t line = cache_line(when);
  std::uint32_t b = open_[line];
  if (b == kNil || buckets_[b].when != when) b = open_bucket(when, line);
  Bucket& bucket = buckets_[b];
  if (bucket.tail == kNil) {
    bucket.head = slot;
  } else {
    slots_[bucket.tail].next = slot;
  }
  bucket.tail = slot;
  ++live_;
  ++pushes_;
  return EventId{encode(slot, s.gen)};
}

EventId EventQueue::push(Time when, Callback fn) {
  assert(fn != nullptr);
  std::uint32_t box;
  if (free_boxes_.empty()) {
    box = static_cast<std::uint32_t>(boxes_.size());
    boxes_.push_back(std::move(fn));
  } else {
    box = free_boxes_.back();
    free_boxes_.pop_back();
    boxes_[box].swap(fn);
  }
  return push(when, Task{&run_closure, this, box});
}

void EventQueue::run_closure(void* queue, std::uint64_t /*box*/) {
  // Out of the queue before it runs, destroyed when it returns.
  Callback fn;
  fn.swap(static_cast<EventQueue*>(queue)->popped_);
  fn();
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t hi = id.v >> 32;
  if (hi == 0 || hi > slots_.size()) return false;
  Slot& s = slots_[hi - 1];
  // A generation match means the event is still pending: firing or
  // cancelling bumps the slot's generation exactly once.
  if (s.gen != static_cast<std::uint32_t>(id.v)) return false;
  // The slot stays linked in its bucket (null task = cancelled) until the
  // bucket's head reaches it.
  const Task task = s.task;
  s.task = Task{};
  ++s.gen;
  --live_;
  if (task.run == &run_closure) {
    // Release the closure only after the books balance: its captured
    // state may have a destructor that re-enters the queue.
    const Callback released = std::exchange(boxes_[task.arg], nullptr);
    free_boxes_.push_back(static_cast<std::uint32_t>(task.arg));
  }
  return true;
}

bool EventQueue::skip_dead() {
  while (!heap_.empty()) {
    const std::uint32_t b = heap_.front().bucket;
    Bucket& bucket = buckets_[b];
    while (bucket.head != kNil && slots_[bucket.head].task.run == nullptr) {
      const std::uint32_t s = bucket.head;
      bucket.head = slots_[s].next;
      free_slots_.push_back(s);
    }
    if (bucket.head != kNil) return true;
    // Drained: retire the instant. A drained bucket is left open after its
    // last pop so same-instant pushes made by that event reuse it; this is
    // the first look at it since.
    const std::size_t line = cache_line(bucket.when);
    if (open_[line] == b) open_[line] = kNil;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    free_buckets_.push_back(b);
  }
  return false;
}

void EventQueue::pop_front(Fired& out) {
  Bucket& bucket = buckets_[heap_.front().bucket];
  const std::uint32_t s = bucket.head;
  Slot& slot = slots_[s];
  out.when = bucket.when;
  out.fn = slot.task;
  slot.task = Task{};
  ++slot.gen;
  bucket.head = slot.next;
  if (bucket.head == kNil) bucket.tail = kNil;
  free_slots_.push_back(s);
  --live_;
  if (out.fn.run == &run_closure) {
    // The closure leaves its box now, so the box is free for pushes the
    // closure makes while it runs. A previously popped closure that never
    // ran is destroyed last: its destructor may re-enter the queue.
    const auto box = static_cast<std::uint32_t>(out.fn.arg);
    popped_.swap(boxes_[box]);
    const Callback stale = std::exchange(boxes_[box], nullptr);
    free_boxes_.push_back(box);
  }
}

Time EventQueue::next_time() const {
  auto* self = const_cast<EventQueue*>(this);  // skip_dead is logically const
  [[maybe_unused]] const bool live = self->skip_dead();
  assert(live);
  return heap_.front().when;
}

EventQueue::Fired EventQueue::pop() {
  [[maybe_unused]] const bool live = skip_dead();
  assert(live);
  Fired fired{};
  pop_front(fired);
  return fired;
}

bool EventQueue::pop_until(Time deadline, Fired& out) {
  if (live_ == 0 || !skip_dead() || heap_.front().when > deadline) {
    return false;
  }
  pop_front(out);
  return true;
}

void EventQueue::clear() {
  heap_.clear();
  buckets_.clear();
  free_buckets_.clear();
  open_.fill(kNil);
  // Bump every slot's generation so ids issued before the clear can never
  // alias an event pushed after it.
  free_slots_.clear();
  free_slots_.reserve(slots_.size());
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    ++slots_[slot].gen;
    slots_[slot].task = Task{};
    free_slots_.push_back(slot);
  }
  live_ = 0;
  // Every boxed closure belongs to a pending event. Release them only
  // after the books balance, as cancel() does.
  const std::vector<Callback> released = std::move(boxes_);
  boxes_.clear();
  free_boxes_.clear();
}

}  // namespace hbh::sim
