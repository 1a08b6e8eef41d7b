// Unit tests for the discrete-event engine: ordering, cancellation,
// deadlines, periodic timers.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace hbh::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) q.push(5.0, [&, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelFiredWhileOthersPendingKeepsCountCorrect) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.pop().fn();                 // fires a
  EXPECT_FALSE(q.cancel(a));    // a already fired
  EXPECT_EQ(q.size(), 1u);      // b still pending
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueueTest, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{999}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueueTest, ClearDrainsEverything) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, StaleIdCannotCancelReusedSlot) {
  // Ids are generation-stamped: once an event fires, its slot may be
  // reused by a later push, but the old id must not cancel the newcomer.
  EventQueue q;
  const EventId stale = q.push(1.0, [] {});
  q.pop().fn();  // fires; the slot returns to the free list
  bool fired = false;
  const EventId fresh = q.push(2.0, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(stale));  // stale generation: rejected
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(fresh));
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, ClearInvalidatesOutstandingIds) {
  EventQueue q;
  const EventId before = q.push(1.0, [] {});
  q.clear();
  EXPECT_FALSE(q.cancel(before));
  // A post-clear push may land in the same slot; the old id stays dead.
  const EventId after = q.push(3.0, [] {});
  EXPECT_FALSE(q.cancel(before));
  EXPECT_TRUE(q.cancel(after));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FifoOrderSurvivesCancelChurn) {
  // Cancelling interleaved events must not disturb the documented
  // (time, push-order) total order of the survivors.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(q.push(5.0, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 3) q.cancel(ids[static_cast<size_t>(i)]);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11}));
}

/// Drives EventQueue and a reference std::multimap keyed by (time, push
/// sequence) with the same seeded operation mix and requires every pop,
/// cancel verdict and size to agree. The mix clusters times on integers
/// (the soft-state shape), adds distinct fractional times, keeps more
/// distinct instants pending than the queue has open-bucket cache lines,
/// pushes at the draining instant, cancels pending, fired and stale ids,
/// and clears mid-run.
class QueueDifferential {
 public:
  explicit QueueDifferential(std::uint64_t seed) : rng_(seed) {}

  void push_at(Time when) {
    // Even tags push a Task, odd tags a boxed closure.
    const int tag = next_tag_++;
    const EventId id =
        tag % 2 == 0
            ? q_.push(when, Task{&record, this, static_cast<std::uint64_t>(tag)})
            : q_.push(when, [this, tag] { fired_.push_back(tag); });
    ref_.emplace(std::make_pair(when, seq_++), tag);
    issued_.push_back(Issued{id, tag, epoch_});
  }

  /// Pops one event from both and checks they agree; false when empty.
  bool pop_one() {
    EXPECT_EQ(q_.empty(), ref_.empty());
    if (ref_.empty()) return false;
    EXPECT_EQ(q_.next_time(), ref_.begin()->first.first);
    auto fired = q_.pop();
    const int expected = ref_.begin()->second;
    EXPECT_EQ(fired.when, ref_.begin()->first.first);
    ref_.erase(ref_.begin());
    now_ = fired.when;
    fired.fn();
    EXPECT_EQ(fired_.back(), expected) << "pop order diverged at t=" << now_;
    return true;
  }

  void cancel_random() {
    if (issued_.empty()) return;
    const Issued& pick = issued_[pick_index(issued_.size())];
    bool pending = false;
    if (pick.epoch == epoch_) {
      for (auto it = ref_.begin(); it != ref_.end(); ++it) {
        if (it->second == pick.tag) {
          ref_.erase(it);
          pending = true;
          break;
        }
      }
    }
    EXPECT_EQ(q_.cancel(pick.id), pending) << "tag " << pick.tag;
  }

  void clear() {
    q_.clear();
    ref_.clear();
    ++epoch_;
    now_ = 0;  // reuse the same instants (and slots) after the clear
  }

  void run(int steps) {
    std::uniform_int_distribution<int> op(0, 99);
    std::uniform_int_distribution<int> delay(0, 10);
    std::uniform_real_distribution<Time> frac(0.0, 50.0);
    for (int i = 0; i < steps; ++i) {
      const int r = op(rng_);
      if (r < 35) {
        push_at(now_ + delay(rng_));  // integer-clustered
      } else if (r < 45) {
        push_at(now_ + frac(rng_));  // distinct fractional
      } else if (r < 47) {
        // A burst of far more distinct pending instants than cache lines,
        // straddling integer instants that already hold a bucket: their
        // buckets get closed and, on the next push there, reopened.
        for (int k = 0; k < 3 * static_cast<int>(EventQueue::kOpenBuckets);
             ++k) {
          push_at(now_ + 1 + k * 0.125);
        }
      } else if (r < 85) {
        if (pop_one() && op(rng_) < 30) {
          push_at(now_);  // delay-0 push while its instant drains
        }
      } else if (r < 97) {
        cancel_random();
      } else if (r < 98) {
        clear();
      }
      ASSERT_EQ(q_.size(), ref_.size());
    }
    while (pop_one()) {
    }
  }

  [[nodiscard]] std::size_t fired() const { return fired_.size(); }

 private:
  struct Issued {
    EventId id;
    int tag;
    int epoch;  ///< clear() count at push time
  };

  static void record(void* self, std::uint64_t tag) {
    static_cast<QueueDifferential*>(self)->fired_.push_back(
        static_cast<int>(tag));
  }

  std::size_t pick_index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  EventQueue q_;
  std::multimap<std::pair<Time, std::uint64_t>, int> ref_;
  std::vector<Issued> issued_;
  std::vector<int> fired_;
  std::mt19937_64 rng_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  int next_tag_ = 0;
  int epoch_ = 0;
};

TEST(EventQueueTest, MatchesReferenceOrderUnderRandomMix) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    QueueDifferential d{seed};
    d.run(20000);
    EXPECT_GT(d.fired(), 5000u) << "seed " << seed;
  }
}

TEST(EventQueueTest, ReopenedInstantKeepsPushOrder) {
  // Instant 1.0 opens a bucket; a thousand distinct instants then take
  // every cache line, closing it; later pushes at 1.0 open a second
  // bucket, which must drain after the first.
  EventQueue q;
  std::vector<int> fired;
  q.push(1.0, [&] { fired.push_back(0); });
  for (int k = 0; k < 1000; ++k) q.push(2.0 + k * 0.001, [] {});
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(1.0, [&] { fired.push_back(2); });
  for (int i = 0; i < 3; ++i) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, NegativeZeroIsTheSameInstantAsZero) {
  EventQueue q;
  std::vector<int> fired;
  q.push(0.0, [&] { fired.push_back(0); });
  q.push(-0.0, [&] { fired.push_back(1); });
  q.push(0.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, SlotPoolPlateausUnderSteadyChurn) {
  // ~70 pending events, each pop re-pushed at now + U{1..10} (the figure
  // benches' shape): once warm, the pool stops growing.
  EventQueue q;
  std::mt19937_64 rng{7};
  std::uniform_int_distribution<int> delay(1, 10);
  for (int i = 0; i < 70; ++i) q.push(delay(rng), [] {});
  std::size_t warm = 0;
  for (int step = 1; step <= 200000; ++step) {
    const Time now = q.pop().when;
    q.push(now + delay(rng), [] {});
    if (step == 20000) warm = q.slots_allocated();
  }
  EXPECT_EQ(q.size(), 70u);
  EXPECT_EQ(q.slots_allocated(), warm);
  EXPECT_LE(warm, 71u);

  // With a cancel-and-rearm every seventh step, a cancelled event's slot
  // is recycled only when its bucket drains past it, so the pool also
  // holds the cancelled events still ahead of the clock: bounded by the
  // pending shape, not by the 200k pushes.
  std::vector<EventId> ids;
  Time now = 0;
  while (!q.empty()) now = q.pop().when;
  for (int i = 0; i < 70; ++i) ids.push_back(q.push(now + delay(rng), [] {}));
  for (int step = 1; step <= 200000; ++step) {
    now = q.pop().when;
    ids[static_cast<std::size_t>(step) % ids.size()] =
        q.push(now + delay(rng), [] {});
    if (step % 7 == 0) {
      EventId& victim = ids[static_cast<std::size_t>(step / 7) % ids.size()];
      if (q.cancel(victim)) victim = q.push(now + delay(rng), [] {});
    }
  }
  EXPECT_EQ(q.size(), 70u);
  EXPECT_LE(q.slots_allocated(), 2u * 70u);
}

/// Counts destructions of a live (not moved-from) closure capture: a
/// capture copied instead of moved would count twice.
struct DtorProbe {
  int* destroyed;
  explicit DtorProbe(int* counter) : destroyed(counter) {}
  DtorProbe(const DtorProbe&) = default;
  DtorProbe(DtorProbe&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)) {}
  DtorProbe& operator=(const DtorProbe&) = delete;
  DtorProbe& operator=(DtorProbe&&) = delete;
  ~DtorProbe() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

TEST(EventQueueTest, BoxedClosureIsDestroyedExactlyOnce) {
  int fired = 0;
  int destroyed = 0;
  {
    EventQueue q;
    q.push(1.0, [probe = DtorProbe{&destroyed}] {});
    const auto f = q.pop();
    EXPECT_EQ(destroyed, 0);  // popped, not yet run
    f.fn();
    EXPECT_EQ(destroyed, 1);  // destroyed when it returns
  }
  EXPECT_EQ(destroyed, 1);

  destroyed = 0;
  {
    EventQueue q;
    const EventId id = q.push(1.0, [probe = DtorProbe{&destroyed}] {});
    q.push(2.0, [&fired] { ++fired; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(destroyed, 1);  // released by the cancel
    EXPECT_FALSE(q.cancel(id));
    while (!q.empty()) q.pop().fn();
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(fired, 1);

  destroyed = 0;
  {
    EventQueue q;
    q.push(1.0, [probe = DtorProbe{&destroyed}] {});
    q.push(1.0, [probe = DtorProbe{&destroyed}] {});
    q.push(3.0, Task{[](void*, std::uint64_t) {}, nullptr, 0});
    q.clear();
    EXPECT_EQ(destroyed, 2);  // dropped by the clear
    q.push(1.0, [&fired] { ++fired; });
    q.pop().fn();
  }
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(fired, 2);

  // Popped and never run: destroyed by the next closure pop.
  destroyed = 0;
  {
    EventQueue q;
    q.push(1.0, [probe = DtorProbe{&destroyed}] {});
    q.push(2.0, [probe = DtorProbe{&destroyed}] {});
    (void)q.pop();
    EXPECT_EQ(destroyed, 0);
    (void)q.pop();
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 2);  // the last one with the queue
}

TEST(EventQueueTest, ClosureCanGrowTheBoxPoolWhileItRuns) {
  // The running closure is small enough to live inside its std::function,
  // so had it run in place in the box pool, the pushes below would move it
  // mid-call (the sanitizer build reports the read of `fired` after them).
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&sim, &fired] {
    for (int i = 0; i < 1000; ++i) sim.schedule(1.0, [&fired] { ++fired; });
    fired += 1000;
  });
  sim.run();
  EXPECT_EQ(fired, 2000);
  EXPECT_EQ(sim.executed(), 1001u);
}

TEST(EventQueueTest, StaleIdNeverReleasesAReusedBox) {
  EventQueue q;
  int first = 0;
  int second = 0;
  const EventId stale = q.push(1.0, [&first] { ++first; });
  q.pop().fn();
  // Reuses the freed slot and the freed box.
  const EventId live = q.push(2.0, [&second] { ++second; });
  EXPECT_NE(stale, live);
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<Time> stamps;
  sim.schedule(2.0, [&] { stamps.push_back(sim.now()); });
  sim.schedule(5.0, [&] { stamps.push_back(sim.now()); });
  EXPECT_EQ(sim.run(), 2u);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_DOUBLE_EQ(stamps[0], 2.0);
  EXPECT_DOUBLE_EQ(stamps[1], 5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  Time seen = -1;
  sim.schedule_at(7.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(1.0, recurse);
  };
  sim.schedule(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, RunRespectsDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) sim.schedule(i, [&] { ++fired; });
  sim.run(4.0);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pending(), 6u);
}

TEST(SimulatorTest, RunForAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.run_for(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  sim.schedule(1.0, [] {});
  sim.run_for(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  // A subsequent run resumes.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, ResetClearsClockAndQueue) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  sim.schedule(1.0, [] {});
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, ExecutedCountsAcrossRuns) {
  Simulator sim;
  for (int i = 1; i <= 3; ++i) sim.schedule(i, [] {});
  sim.run(1.5);
  EXPECT_EQ(sim.executed(), 1u);
  sim.run();
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(PeriodicTimerTest, FiresEveryPeriod) {
  Simulator sim;
  std::vector<Time> stamps;
  PeriodicTimer timer{sim, 10.0, [&] { stamps.push_back(sim.now()); }};
  timer.start();
  sim.run(35.0);
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 10.0);
  EXPECT_DOUBLE_EQ(stamps[1], 20.0);
  EXPECT_DOUBLE_EQ(stamps[2], 30.0);
}

TEST(PeriodicTimerTest, CustomInitialDelay) {
  Simulator sim;
  std::vector<Time> stamps;
  PeriodicTimer timer{sim, 10.0, [&] { stamps.push_back(sim.now()); }};
  timer.start(0.0);
  sim.run(25.0);
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 0.0);
  EXPECT_DOUBLE_EQ(stamps[1], 10.0);
  EXPECT_DOUBLE_EQ(stamps[2], 20.0);
}

TEST(PeriodicTimerTest, StopDisarms) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer timer{sim, 5.0, [&] { ++fired; }};
  timer.start();
  sim.run(12.0);
  EXPECT_EQ(fired, 2);
  timer.stop();
  EXPECT_FALSE(timer.running());
  sim.run(100.0);
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTimerTest, DestructionCancelsPending) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTimer timer{sim, 5.0, [&] { ++fired; }};
    timer.start();
  }
  sim.run(100.0);
  EXPECT_EQ(fired, 0);
}

TEST(PeriodicTimerTest, RestartResetsPhase) {
  Simulator sim;
  std::vector<Time> stamps;
  PeriodicTimer timer{sim, 10.0, [&] { stamps.push_back(sim.now()); }};
  timer.start();
  sim.run_for(4.0);
  timer.start();  // re-arm at t=4: next firing at t=14
  sim.run(20.0);
  ASSERT_FALSE(stamps.empty());
  EXPECT_DOUBLE_EQ(stamps[0], 14.0);
}

TEST(PeriodicTimerTest, RestartFromInsideItsOwnCallback) {
  // The second firing stops and re-arms the timer with a 3-unit phase: the
  // period event it had just scheduled must not fire, and the new phase
  // continues every period from there.
  Simulator sim;
  std::vector<Time> stamps;
  PeriodicTimer* self = nullptr;
  PeriodicTimer timer{sim, 10.0, [&] {
                        stamps.push_back(sim.now());
                        if (stamps.size() == 2) {
                          self->stop();
                          self->start(3.0);
                        }
                      }};
  self = &timer;
  timer.start();
  sim.run(45.0);
  EXPECT_EQ(stamps, (std::vector<Time>{10.0, 20.0, 23.0, 33.0, 43.0}));
  EXPECT_TRUE(timer.running());
  EXPECT_EQ(sim.pending(), 1u);
}

}  // namespace
}  // namespace hbh::sim
