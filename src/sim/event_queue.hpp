// Deterministic discrete-event priority queue.
//
// Events fire in (time, sequence) order: two events scheduled for the same
// instant execute in the order they were scheduled. That FIFO tie-break is
// what makes every simulation in this repo bit-for-bit reproducible.
//
// An event is a Task: a plain function pointer plus a context pointer and
// one word of argument. It is trivially copyable, so pushing, popping and
// firing one costs no allocation, no indirect manager call and no
// destructor. The hot schedulers (the fabric's packet arrivals, periodic
// timers) push Tasks directly. std::function closures remain for the rare
// one-off events: push(Time, Callback) parks the closure in a recycled
// box pool and pushes a Task naming its box. The closure leaves its box
// when it is popped and runs from there, so pushes it makes while it
// runs may grow the pool; cancel() and clear() release a boxed closure
// at once.
//
// The soft-state protocols re-send on fixed periods over integer link
// delays, so pending events pile up on a few identical instants (most pops
// fire at the same time as the previous one). The queue is therefore a
// min-heap of *instants*, not of events: each heap entry names a bucket
// holding that instant's events as a FIFO list threaded through the slot
// pool, so a pop that leaves its bucket non-empty never touches the heap.
// A push finds its instant's open bucket through a small direct-mapped
// cache keyed by the time's bits. On a miss — no bucket for that instant
// yet, or another instant took the cache line — a new bucket is opened
// and the old one is closed: it stays in the heap and drains, but takes
// no further events. Heap entries order by (time, bucket creation order),
// so a closed bucket drains before any newer bucket of the same instant,
// and every one of its events was pushed before theirs: FIFO stays exact.
// Worst case (every pending event at a distinct time) costs one heap push
// and pop per event, as a per-event heap would.
//
// Cancellation is O(1) via generation-stamped handles: an EventId packs a
// slot index and the slot's generation at push time, and firing or
// cancelling bumps the generation, so stale ids are recognized by a single
// compare. A cancelled event stays linked in its bucket until the bucket's
// head reaches it; its slot is recycled then. Once the slot, bucket and
// box pools are warm, push, pop and cancel allocate nothing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/ids.hpp"

namespace hbh::sim {

/// Opaque handle identifying a scheduled event (for cancellation).
/// Packs (slot + 1, generation); 0 is the invalid id.
struct EventId {
  std::uint64_t v = 0;
  [[nodiscard]] constexpr bool valid() const noexcept { return v != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;
};

/// One scheduled action: `run(ctx, arg)`. Schedulers pass a static thunk
/// that casts `ctx` back to their object (e.g. {thunk, this, index}).
struct Task {
  void (*run)(void* ctx, std::uint64_t arg) = nullptr;
  void* ctx = nullptr;
  std::uint64_t arg = 0;

  void operator()() const { run(ctx, arg); }
};
static_assert(std::is_trivially_copyable_v<Task>);

/// Heap of instants with per-instant FIFO buckets; stable same-time order.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() noexcept { open_.fill(kNil); }
  // Boxed closures' Tasks point back at their queue.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Open-bucket cache lines: more distinct pending instants than this
  /// collide and open extra buckets (still exact, just more heap work).
  static constexpr std::size_t kOpenBuckets = 64;

  /// Enqueues `task` to fire at absolute time `when`.
  EventId push(Time when, Task task);

  /// Enqueues the closure `fn` (boxed until it fires or is cancelled).
  EventId push(Time when, Callback fn);

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or never existed.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  // --- Slot-pool observability (telemetry gauges, docs/OBSERVABILITY.md).
  // A healthy steady state allocates a pool once and then recycles it:
  // total_pushes() grows without bound while slots_allocated() plateaus.

  /// Event slots ever allocated (the warm pool size).
  [[nodiscard]] std::size_t slots_allocated() const noexcept {
    return slots_.size();
  }
  /// Slots currently retired and awaiting reuse.
  [[nodiscard]] std::size_t slots_free() const noexcept {
    return free_slots_.size();
  }
  /// Events ever pushed; pushes beyond slots_allocated() reused a slot.
  [[nodiscard]] std::uint64_t total_pushes() const noexcept {
    return pushes_;
  }

  /// Time of the earliest pending event; undefined when empty().
  [[nodiscard]] Time next_time() const;

  /// Pops and returns the earliest event. Requires !empty(). A popped
  /// closure's Task runs the closure most recently popped: run it (or
  /// drop it) before the next pop; a closure popped and never run is
  /// destroyed by the next closure pop or with the queue.
  struct Fired {
    Time when;
    Task fn;
  };
  Fired pop();

  /// Pops the earliest event into `out` if one is pending at or before
  /// `deadline`; false (and `out` untouched) otherwise. One peek-and-pop.
  bool pop_until(Time deadline, Fired& out);

  /// Drops all pending events. Ids issued before the clear are dead: they
  /// can never cancel an event pushed afterwards.
  void clear();

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  /// One event. A slot is linked into its bucket's FIFO through `next`
  /// from push until its bucket's head passes it; a null `task.run` on a
  /// linked slot marks a cancelled event.
  struct Slot {
    std::uint32_t gen = 0;  ///< bumped on fire/cancel/clear
    std::uint32_t next = kNil;
    Task task;
  };
  /// One instant's FIFO of slots (head == kNil when drained).
  struct Bucket {
    Time when = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  /// Heap entry: 24-byte POD ordered by (when, order), so sifts never
  /// touch a slot.
  struct Instant {
    Time when;
    std::uint64_t order;  ///< bucket creation order (same-time FIFO)
    std::uint32_t bucket;
  };
  struct Later {
    bool operator()(const Instant& a, const Instant& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };

  [[nodiscard]] static std::size_t cache_line(Time when) noexcept;

  /// The Task of a boxed closure ({run_closure, queue, box index} while
  /// pending): runs the closure pop_front() took out of its box.
  static void run_closure(void* queue, std::uint64_t box);

  /// Frees cancelled slots at the front and retires drained front buckets.
  /// Returns false when nothing live is left in the heap.
  bool skip_dead();

  /// Pops the front bucket's head event. Requires skip_dead() == true.
  void pop_front(Fired& out);

  /// Opens a bucket for `when`, pushes it on the heap and caches it.
  std::uint32_t open_bucket(Time when, std::size_t line);

  std::vector<Instant> heap_;  ///< min-heap of instants (std::*_heap, Later)
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::array<std::uint32_t, kOpenBuckets> open_;  ///< line -> open bucket
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< slots available for reuse
  std::vector<Callback> boxes_;  ///< closures of pending closure events
  std::vector<std::uint32_t> free_boxes_;
  Callback popped_;  ///< the last popped closure, until its Task runs
  std::uint64_t pushes_ = 0;
  std::uint64_t next_order_ = 0;
  std::size_t live_ = 0;  ///< pending (un-fired, un-cancelled) events
};

}  // namespace hbh::sim
