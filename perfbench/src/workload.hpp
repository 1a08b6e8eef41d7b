// The benchmark's workloads, built from the library's public calls.
//
// A sweep op is one protocol's paired trial of a figure grid cell, run as
// the public Session steps one at a time (topology build, constructor,
// warm-up, measure) so each step can be timed; it reproduces
// harness::run_trial bit for bit. A data-plane op is one burst round
// (16 inject_data calls, then a drain) on one of four converged ISP
// sessions, one per protocol, which take their rounds in turn.
// perfbench/README.md explains why each workload exists.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "alloc_count.hpp"
#include "harness/experiment.hpp"
#include "harness/session.hpp"

namespace perfbench {

using hbh::harness::Protocol;
using hbh::harness::TopoKind;

enum class Workload { kIspSweep, kRand50Sweep, kDataplaneIsp };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload w);
[[nodiscard]] bool is_sweep(Workload w);

/// Metric-name label of a protocol: hbh, reunite, pim_sm, pim_ss.
[[nodiscard]] std::string_view proto_label(Protocol p);
[[nodiscard]] std::size_t proto_index(Protocol p);
inline constexpr std::size_t kProtocols = 4;

// --- Step timing ------------------------------------------------------------

/// The public calls an op is made of; each is timed on its own.
enum class Step : std::uint8_t {
  kTopo,      ///< scenario build, cost randomization, receiver sample
  kCtor,      ///< Session constructor
  kWarmup,    ///< subscribes + run_for(last join + warm-up)
  kMeasure,   ///< Session::measure (probe + drain)
  kInject,    ///< 16 inject_data calls
  kDrain,     ///< run_for(round drain)
  kTeardown,  ///< Session destructor
};
inline constexpr std::size_t kStepCount = 7;
[[nodiscard]] std::string_view step_name(Step s);

using Clock = std::chrono::steady_clock;

/// Durations, start times and allocation counts of one op's steps.
struct StepClock {
  std::array<std::int64_t, kStepCount> ns{};
  std::array<Clock::time_point, kStepCount> start{};
  std::array<std::uint64_t, kStepCount> allocs{};
  std::array<bool, kStepCount> ran{};

  template <typename F>
  void time(Step step, F&& f) {
    const auto i = static_cast<std::size_t>(step);
    const std::uint64_t a0 = allocations();
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    allocs[i] = allocations() - a0;
    start[i] = t0;
    ns[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count();
    ran[i] = true;
  }
  /// Sum of the step durations: the op's time, without the benchmark's
  /// own bookkeeping between steps.
  [[nodiscard]] std::int64_t total_ns() const;
  [[nodiscard]] std::uint64_t total_allocs() const;
};

// --- Work counts ------------------------------------------------------------

inline constexpr std::array<std::string_view, 6> kDropReasons = {
    "ttl", "no_route", "link_down", "loss", "queue_full", "red"};

/// Work one op did, read off the library's own counters. Sweep ops read
/// them from their fresh session; data-plane rounds take deltas across
/// the round. peak_pending, slots, mft and mct are gauges (value at the
/// op's end).
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t pushes = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t slots = 0;
  std::uint64_t spf_runs = 0;
  std::uint64_t tx_control = 0;
  std::uint64_t tx_data = 0;
  std::uint64_t queued = 0;
  std::array<std::uint64_t, kDropReasons.size()> drops{};
  std::array<std::uint64_t, hbh::net::kPacketTypeCount> rx{};
  std::uint64_t timer_fires = 0;
  std::uint64_t structural = 0;
  std::uint64_t mft = 0;
  std::uint64_t mct = 0;
  std::uint64_t fp_hits = 0;
  std::uint64_t fp_recompiles = 0;
  std::uint64_t fp_invalidations = 0;
  // Filled from the StepClock: allocations in the whole op, in the
  // constructor, and in the steps that run the simulator.
  std::uint64_t allocs = 0;
  std::uint64_t allocs_ctor = 0;
  std::uint64_t allocs_sim = 0;

  Counts& operator+=(const Counts& o);
  bool operator==(const Counts&) const = default;
  [[nodiscard]] std::uint64_t drops_total() const;
};

/// Absolute counter values of a session right now.
[[nodiscard]] Counts read_counts(hbh::harness::Session& session);

/// `after` − `before` for the cumulative counters; gauges from `after`.
[[nodiscard]] Counts delta(const Counts& before, const Counts& after);

/// Times dijkstra_into once per root on `session`'s topology; returns the
/// total nanoseconds and sets `roots` to the number of SPF runs replayed.
[[nodiscard]] std::int64_t replay_spf(hbh::harness::Session& session,
                                      std::size_t& roots);

/// 64-bit FNV-1a, the digest folded over every op output.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;  ///< folds the bit pattern
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void fold(Digest& d, const Counts& c);  ///< every count except allocations

// --- Sweep workloads --------------------------------------------------------

/// The figure grid the sweeps mirror: the library's defaults (base seed,
/// warm-up 240, drain 160) over the figure's group sizes.
[[nodiscard]] hbh::harness::ExperimentSpec sweep_spec(TopoKind topo);

struct SweepOp {
  Protocol protocol{};
  std::size_t group_size = 0;
  std::size_t trial = 0;
};

/// The op list of one pass: `trials_per_size` trial indices per group size
/// drawn from `seed` out of the paper's 500, each cell run by the four
/// protocols in paper order; cells of different group sizes interleave.
[[nodiscard]] std::vector<SweepOp> make_sweep_ops(
    const hbh::harness::ExperimentSpec& spec, std::uint64_t seed,
    std::size_t trials_per_size);

/// What one sweep op produced.
struct SweepOutcome {
  hbh::harness::TrialResult trial;
  /// HBH only (true otherwise): the measured tree's link set equals the
  /// union of routes().path() from the source to each member.
  bool tree_matches_oracle = true;

  [[nodiscard]] bool failed() const {
    return !trial.delivered || !tree_matches_oracle;
  }
};

/// One sweep op, as the public steps harness::run_trial makes.
class SweepTrial {
 public:
  SweepTrial(const hbh::harness::ExperimentSpec& spec, const SweepOp& op);

  void build_topology();
  void construct(bool audit);
  void warm_up();
  void measure();
  void teardown() { session_.reset(); }

  [[nodiscard]] hbh::harness::Session& session() { return *session_; }
  [[nodiscard]] SweepOutcome outcome() const;

 private:
  const hbh::harness::ExperimentSpec& spec_;
  SweepOp op_;
  std::optional<hbh::topo::Scenario> scenario_;
  std::vector<hbh::NodeId> receivers_;
  std::unique_ptr<hbh::harness::Session> session_;
  hbh::harness::Measurement measurement_;
};

/// Runs one sweep op with every step timed into `clock`. `inspect` runs
/// on the trial after measure and before teardown, outside the timed steps.
template <typename Inspect>
SweepOutcome run_sweep_op(const hbh::harness::ExperimentSpec& spec,
                          const SweepOp& op, StepClock& clock, bool audit,
                          Inspect&& inspect) {
  SweepTrial t{spec, op};
  clock.time(Step::kTopo, [&] { t.build_topology(); });
  clock.time(Step::kCtor, [&] { t.construct(audit); });
  clock.time(Step::kWarmup, [&] { t.warm_up(); });
  clock.time(Step::kMeasure, [&] { t.measure(); });
  inspect(t);
  const SweepOutcome out = t.outcome();
  clock.time(Step::kTeardown, [&] { t.teardown(); });
  return out;
}

// --- Data-plane workload ----------------------------------------------------

inline constexpr std::size_t kDpReceivers = 16;
inline constexpr std::size_t kDpBurst = 16;
inline constexpr hbh::Time kDpRoundDrain = 30;
inline constexpr std::size_t kDpWarmRounds = 8;
inline constexpr double kDpCapacity = 500;  ///< bytes per time unit
inline constexpr std::size_t kDpQueueLimit = 32;

/// The cost draw and receiver set of every data-plane session.
inline constexpr std::uint64_t kDpTopologySeed = 20010827;

/// One converged ISP session carrying data bursts to 16 receivers over
/// capacitated backbone links (the perf_dataplane queued mode). The run
/// seed sets the order in which the receivers join.
class DataplaneSession {
 public:
  DataplaneSession(Protocol protocol, std::uint64_t seed);

  void build_topology();
  void construct(bool audit);
  void warm_up();
  /// Probes the converged tree; true when every member got it exactly
  /// once and, for HBH, the tree equals the unicast-route oracle.
  [[nodiscard]] bool measure_ok();
  void inject_burst();
  void drain();
  /// Runs until every copy in flight has arrived (untimed).
  void settle();

  /// Folds the deliveries since the last call into per-seq delivery counts
  /// and `digest`, then clears the receivers' logs (bookkeeping between
  /// ops, so the logs never grow with the length of a run).
  void collect(Digest& digest);

  /// One verdict per seq emitted since the last call (true = some member
  /// got it other than exactly once). Call after settle() and collect().
  [[nodiscard]] std::vector<bool> verdicts();

  [[nodiscard]] Protocol protocol() const { return protocol_; }
  [[nodiscard]] hbh::harness::Session& session() { return *session_; }

 private:
  Protocol protocol_;
  std::uint64_t seed_;
  std::optional<hbh::topo::Scenario> scenario_;
  std::vector<hbh::NodeId> receivers_;
  std::unique_ptr<hbh::harness::Session> session_;
  std::uint32_t emitted_ = 0;  ///< data seqs the channel has sent
  std::uint32_t checked_ = 0;  ///< seqs already given a verdict
  /// seen_[member][seq - checked_]: deliveries counted so far (saturating).
  std::vector<std::vector<std::uint8_t>> seen_;
};

/// Step-timed set-up of one data-plane session: topology, constructor (with
/// the auditor on when `audit`), warm-up, probe, then kDpWarmRounds checked
/// bursts. Returns false when the probe or a warm-up burst failed.
bool set_up_dataplane(DataplaneSession& s, StepClock& clock, Digest& digest,
                      bool audit);

}  // namespace perfbench
