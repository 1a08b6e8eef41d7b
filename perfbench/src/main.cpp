// hbh_perfbench — the repository's steady benchmark program.
//
//   hbh_perfbench --workload <isp_sweep|rand50_sweep|dataplane_isp>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// One process, one thread. A run is a whole number of identical passes over
// a seed-determined op list; --seconds only sets how many passes (see
// nominal_pass_seconds), never cuts one short. Each pass starts with the
// workload's set-up, then times every op step by step. Timings are
// min-of-N: each op's best time over the passes. Every pass must give the
// same output digest and the same work counts, or the run is reported
// incorrect. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1, passes rotate plain / traced / audited and the
// line carries the per-layer metrics. perfbench/README.md has the details.
#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "env_pin.hpp"
#include "harness/experiment.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using hbh::harness::ExperimentSpec;

const Clock::time_point g_process_start = Clock::now();

// --- Configuration ------------------------------------------------------------

/// Ops per pass: trial indices per group size for the sweeps, burst rounds
/// per session for the data plane. Each pass holds at least 1000 ops, so the
/// p99 of the per-op best times has 10 samples beyond it.
constexpr std::size_t kIspTrialsPerSize = 32;     // 8 sizes × 32 × 4 = 1024 ops
constexpr std::size_t kRand50TrialsPerSize = 28;  // 9 sizes × 28 × 4 = 1008 ops
constexpr std::size_t kDataplaneRounds = 512;     // 512 × 4 sessions = 2048 ops

/// Set-ups timed at the start of each pass. setup_s is the median over the
/// repeats of each repeat's best time over the passes.
constexpr int kSetupRepeats = 3;

/// Wall time one pass takes on the reference machine (4 vCPU x86-64 VM,
/// Release build); passes = --seconds / this, so the work of a run depends
/// only on its arguments, never on the speed of the machine it runs on.
double nominal_pass_seconds(Workload w) {
  switch (w) {
    case Workload::kIspSweep:
      return 2.0;
    case Workload::kRand50Sweep:
      return 7.5;
    case Workload::kDataplaneIsp:
      return 1.0;
  }
  return 1.0;
}

constexpr std::size_t kMinPasses = 3;

enum class Mode : std::uint8_t { kPlain, kTraced, kAudited };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kPlain:
      return "plain";
    case Mode::kTraced:
      return "traced";
    case Mode::kAudited:
      return "audited";
  }
  return "?";
}

struct Args {
  Workload workload{};
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hbh_perfbench: %s\nusage: hbh_perfbench --workload "
               "<isp_sweep|rand50_sweep|dataplane_isp> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage("unknown workload");
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload || a.seconds <= 0) usage("--workload and --seconds are required");
  return a;
}

std::int64_t since_start_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t - g_process_start)
      .count();
}

// --- Spans ----------------------------------------------------------------------

/// Spans of the traced passes, kept in memory and written when the run ends.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  int add(std::string_view name, Clock::time_point start, std::int64_t dur_ns,
          int parent) {
    spans_.push_back({std::string(name), since_start_ns(start), dur_ns, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Step spans of one op or set-up, as children of a new `name` span.
  void add_steps(std::string_view name, const StepClock& clock) {
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
    for (std::size_t i = 0; i < kStepCount; ++i) {
      if (!clock.ran[i]) continue;
      first = std::min(first, clock.start[i]);
      last = std::max(last, clock.start[i] + std::chrono::nanoseconds(clock.ns[i]));
    }
    if (first == Clock::time_point::max()) return;
    const int parent = add(name, first, (last - first).count(), kNoParent);
    for (std::size_t i = 0; i < kStepCount; ++i) {
      if (clock.ran[i]) {
        add(step_name(static_cast<Step>(i)), clock.start[i], clock.ns[i], parent);
      }
    }
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON plus each span name's total and self time.
  bool write(const std::string& path) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns;
      }
    }
    std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [total, self] = by_name[spans_[i].name];
      total += spans_[i].dur_ns;
      self += spans_[i].dur_ns - child_ns[i];
    }
    std::ofstream out{path};
    if (!out) return false;
    out << "{\"self_time_ns\":{";
    bool first = true;
    for (const auto& [name, ts] : by_name) {
      out << (first ? "" : ",") << '"' << name << "\":{\"total\":" << ts.first
          << ",\"self\":" << ts.second << '}';
      first = false;
    }
    out << "},\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    int parent;
  };
  std::vector<Span> spans_;
};

// --- Per-pass results -------------------------------------------------------------

struct PassResult {
  Mode mode = Mode::kPlain;
  std::uint64_t digest = 0;
  std::uint64_t counts_digest = 0;
  bool mirror_ok = true;  ///< sweeps: mirror cell equals run_trial
  /// Data plane: each protocol's set-up probe and warm-up bursts were
  /// delivered exactly once (a note, not a failed op: set-up is no op).
  std::array<bool, kProtocols> setup_ok{true, true, true, true};
  std::vector<double> setup_s;  ///< one per set-up repeat
  std::vector<double> op_ms;    ///< per op, in op-list order
  std::int64_t op_ns = 0;
  Counts total;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  // Per protocol: the counts, attempts and failures of its ops.
  std::array<Counts, kProtocols> by_proto{};
  std::array<std::uint64_t, kProtocols> proto_ops{};
  std::array<std::uint64_t, kProtocols> proto_failed{};
  // Traced passes only.
  std::array<std::int64_t, kStepCount> step_ns{};
  std::array<std::uint64_t, kStepCount> step_calls{};
  std::int64_t sim_ns = 0;  ///< time inside the steps that run the simulator
  std::uint64_t sim_events = 0;
  std::int64_t spf_ns = 0;
  std::uint64_t spf_roots = 0;
  std::uint64_t ctor_allocs = 0;
  std::uint64_t ctor_calls = 0;
};

void note_steps(PassResult& r, const StepClock& clock) {
  for (std::size_t i = 0; i < kStepCount; ++i) {
    if (!clock.ran[i]) continue;
    r.step_ns[i] += clock.ns[i];
    ++r.step_calls[i];
  }
}

void record_op(PassResult& r, Protocol p, const Counts& c, bool failed,
               std::int64_t op_ns) {
  const std::size_t pi = proto_index(p);
  r.total += c;
  r.by_proto[pi] += c;
  ++r.proto_ops[pi];
  ++r.ops;
  if (failed) {
    ++r.proto_failed[pi];
    ++r.failed;
  }
  r.op_ns += op_ns;
  r.op_ms.push_back(static_cast<double>(op_ns) / 1e6);
}

// --- Sweeps ---------------------------------------------------------------------

struct SweepWork {
  ExperimentSpec spec;
  std::vector<SweepOp> ops;
  SweepOp mirror_cell;  ///< the cell checked against run_trial in set-up
};

bool same_bits(const hbh::harness::TrialResult& a,
               const hbh::harness::TrialResult& b) {
  return std::bit_cast<std::uint64_t>(a.tree_cost) ==
             std::bit_cast<std::uint64_t>(b.tree_cost) &&
         std::bit_cast<std::uint64_t>(a.mean_delay) ==
             std::bit_cast<std::uint64_t>(b.mean_delay) &&
         a.delivered == b.delivered;
}

/// Set-up of a sweep pass: the mirror cell's four ops, each run both as the
/// benchmark's step-by-step op and through harness::run_trial.
bool sweep_setup(const SweepWork& w, Digest& digest) {
  bool ok = true;
  for (const Protocol p : hbh::harness::all_protocols()) {
    SweepOp op = w.mirror_cell;
    op.protocol = p;
    StepClock clock;
    const SweepOutcome mine =
        run_sweep_op(w.spec, op, clock, false, [](SweepTrial&) {});
    const hbh::harness::TrialResult ref =
        hbh::harness::run_trial(w.spec, p, op.group_size, op.trial);
    ok = ok && same_bits(mine.trial, ref);
    digest.add(mine.trial.tree_cost);
    digest.add(mine.trial.mean_delay);
  }
  return ok;
}

PassResult sweep_pass(const SweepWork& w, Mode mode, SpanLog& spans) {
  PassResult r;
  r.mode = mode;
  r.op_ms.reserve(w.ops.size());
  Digest digest;
  Digest counts_digest;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point setup_start = Clock::now();
    r.mirror_ok = sweep_setup(w, digest) && r.mirror_ok;
    const Clock::time_point setup_end = Clock::now();
    r.setup_s.push_back(
        std::chrono::duration<double>(setup_end - setup_start).count());
    if (mode == Mode::kTraced) {
      spans.add("setup", setup_start, (setup_end - setup_start).count(),
                SpanLog::kNoParent);
    }
  }

  for (const SweepOp& op : w.ops) {
    StepClock clock;
    Counts c;
    const SweepOutcome out = run_sweep_op(
        w.spec, op, clock, mode == Mode::kAudited, [&](SweepTrial& t) {
          c = read_counts(t.session());
          if (mode == Mode::kTraced) {
            std::size_t roots = 0;
            const Clock::time_point t0 = Clock::now();
            const std::int64_t ns = replay_spf(t.session(), roots);
            r.spf_ns += ns;
            r.spf_roots += roots;
            spans.add("routing.spf_replay", t0, ns, SpanLog::kNoParent);
          }
        });
    c.allocs = clock.total_allocs();
    c.allocs_ctor = clock.allocs[static_cast<std::size_t>(Step::kCtor)];
    c.allocs_sim = clock.allocs[static_cast<std::size_t>(Step::kWarmup)] +
                   clock.allocs[static_cast<std::size_t>(Step::kMeasure)];
    record_op(r, op.protocol, c, out.failed(), clock.total_ns());
    digest.add(out.trial.tree_cost);
    digest.add(out.trial.mean_delay);
    digest.add(static_cast<std::uint64_t>(out.trial.delivered) << 1 |
               static_cast<std::uint64_t>(out.tree_matches_oracle));
    fold(counts_digest, c);
    if (mode == Mode::kTraced) {
      note_steps(r, clock);
      r.sim_ns += clock.ns[static_cast<std::size_t>(Step::kWarmup)] +
                  clock.ns[static_cast<std::size_t>(Step::kMeasure)];
      r.sim_events += c.events;
      r.ctor_allocs += c.allocs_ctor;
      ++r.ctor_calls;
      spans.add_steps("sweep.op", clock);
    }
  }
  r.digest = digest.value();
  r.counts_digest = counts_digest.value();
  return r;
}

// --- Data plane -------------------------------------------------------------------

PassResult dataplane_pass(std::uint64_t seed, Mode mode, SpanLog& spans) {
  PassResult r;
  r.mode = mode;
  r.op_ms.reserve(kDataplaneRounds * kProtocols);
  Digest digest;
  Digest counts_digest;

  // Each repeat builds the sessions afresh; the rounds run on the last.
  std::vector<DataplaneSession> sessions;
  std::vector<StepClock> setup_clocks;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sessions.clear();
    for (const Protocol p : hbh::harness::all_protocols()) {
      sessions.emplace_back(p, seed);
    }
    setup_clocks.assign(sessions.size(), StepClock{});
    const Clock::time_point setup_start = Clock::now();
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      r.setup_ok[proto_index(sessions[i].protocol())] = set_up_dataplane(
          sessions[i], setup_clocks[i], digest, mode == Mode::kAudited);
    }
    const Clock::time_point setup_end = Clock::now();
    r.setup_s.push_back(
        std::chrono::duration<double>(setup_end - setup_start).count());
    if (mode == Mode::kTraced) {
      spans.add("setup", setup_start, (setup_end - setup_start).count(),
                SpanLog::kNoParent);
    }
  }
  if (mode == Mode::kTraced) {
    for (const StepClock& clock : setup_clocks) {
      note_steps(r, clock);
      r.ctor_allocs += clock.allocs[static_cast<std::size_t>(Step::kCtor)];
      ++r.ctor_calls;
      spans.add_steps("dataplane.setup", clock);
    }
    for (DataplaneSession& s : sessions) {
      std::size_t roots = 0;
      const Clock::time_point t0 = Clock::now();
      const std::int64_t ns = replay_spf(s.session(), roots);
      r.spf_ns += ns;
      r.spf_roots += roots;
      spans.add("routing.spf_replay", t0, ns, SpanLog::kNoParent);
    }
  }

  // Counts and times of every op (a round on one session), kept for the
  // delivery verdicts that can only be given once the pass has settled.
  std::vector<std::array<Counts, kProtocols>> counts(kDataplaneRounds);
  std::vector<std::array<std::int64_t, kProtocols>> op_ns(kDataplaneRounds);
  for (std::size_t round = 0; round < kDataplaneRounds; ++round) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      DataplaneSession& s = sessions[i];
      StepClock clock;
      const Counts before = read_counts(s.session());
      clock.time(Step::kInject, [&] { s.inject_burst(); });
      clock.time(Step::kDrain, [&] { s.drain(); });
      Counts c = delta(before, read_counts(s.session()));
      s.collect(digest);
      c.allocs = clock.total_allocs();
      c.allocs_sim = clock.allocs[static_cast<std::size_t>(Step::kDrain)];
      counts[round][i] = c;
      op_ns[round][i] = clock.total_ns();
      fold(counts_digest, c);
      if (mode == Mode::kTraced) {
        note_steps(r, clock);
        r.sim_ns += clock.ns[static_cast<std::size_t>(Step::kDrain)];
        r.sim_events += c.events;
        spans.add_steps("dataplane.op", clock);
      }
    }
  }
  // Copies still in flight arrive; then every seq is checked at every member.
  std::vector<std::vector<bool>> seq_failed;
  for (DataplaneSession& s : sessions) {
    s.settle();
    s.collect(digest);
    seq_failed.push_back(s.verdicts());
  }
  for (std::size_t round = 0; round < kDataplaneRounds; ++round) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const Counts& c = counts[round][i];
      bool failed = c.drops_total() != 0;
      for (std::size_t b = 0; b < kDpBurst; ++b) {
        failed = failed || seq_failed[i][round * kDpBurst + b];
      }
      record_op(r, sessions[i].protocol(), c, failed, op_ns[round][i]);
    }
  }
  r.digest = digest.value();
  r.counts_digest = counts_digest.value();
  return r;
}

// --- Statistics and output ---------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Each op's best time (ms) over the passes of `mode`: min-of-N, which the
/// machine's slow stretches affect far less than a mean. Every pass runs
/// the same op list in the same order, so op i of one pass is op i of all.
std::vector<double> best_op_ms(const std::vector<PassResult>& passes,
                               Mode mode) {
  std::vector<double> best;
  for (const PassResult& p : passes) {
    if (p.mode != mode) continue;
    if (best.empty()) {
      best = p.op_ms;
      continue;
    }
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], p.op_ms[i]);
    }
  }
  return best;
}

/// Ops per second of one pass in which every op takes its best time.
double best_rate(const std::vector<double>& best_ms) {
  double sum_ms = 0;
  for (const double v : best_ms) sum_ms += v;
  return sum_ms > 0 ? static_cast<double>(best_ms.size()) / (sum_ms / 1e3) : 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// This process's resident-set high-water mark. getrusage's ru_maxrss would
/// report the launching process's peak instead when that was larger: Linux
/// carries it across exec. VmHWM belongs to this address space alone.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer metrics, from the traced passes (timings) and any pass
/// (counts, which every pass repeats exactly).
std::vector<Metric> per_layer_metrics(Workload w,
                                      const std::vector<PassResult>& passes) {
  const PassResult* plain = nullptr;
  std::vector<const PassResult*> traced;
  for (const PassResult& p : passes) {
    if (p.mode == Mode::kPlain && plain == nullptr) plain = &p;
    if (p.mode == Mode::kTraced) traced.push_back(&p);
  }
  std::array<double, kStepCount> step_ns{};
  std::array<double, kStepCount> step_calls{};
  double sim_ns = 0, sim_events = 0, spf_ns = 0, spf_roots = 0, op_ns = 0,
         traced_ops = 0;
  for (const PassResult* p : traced) {
    for (std::size_t i = 0; i < kStepCount; ++i) {
      step_ns[i] += static_cast<double>(p->step_ns[i]);
      step_calls[i] += static_cast<double>(p->step_calls[i]);
    }
    sim_ns += static_cast<double>(p->sim_ns);
    sim_events += static_cast<double>(p->sim_events);
    spf_ns += static_cast<double>(p->spf_ns);
    spf_roots += static_cast<double>(p->spf_roots);
    op_ns += static_cast<double>(p->op_ns);
    traced_ops += static_cast<double>(p->ops);
  }
  auto step_mean = [&](Step s, double scale) {
    const auto i = static_cast<std::size_t>(s);
    return per(step_ns[i], step_calls[i]) / scale;
  };

  const Counts& t = plain->total;
  const double n = static_cast<double>(plain->ops);
  auto per_op = [&](std::uint64_t v) { return per(static_cast<double>(v), n); };
  const double spf_us = per(spf_ns, spf_roots) / 1e3;
  const double op_us = per(op_ns, traced_ops) / 1e3;
  const double hops = static_cast<double>(t.tx_control + t.tx_data);

  std::vector<Metric> m;
  m.push_back({"topo.build_us", step_mean(Step::kTopo, 1e3), "us"});
  m.push_back({"harness.ctor_us", step_mean(Step::kCtor, 1e3), "us"});
  m.push_back({"harness.warmup_ms", step_mean(Step::kWarmup, 1e6), "ms"});
  m.push_back({"harness.measure_ms", step_mean(Step::kMeasure, 1e6), "ms"});
  m.push_back({"harness.inject_us", step_mean(Step::kInject, 1e3), "us"});
  m.push_back({"harness.drain_ms", step_mean(Step::kDrain, 1e6), "ms"});
  m.push_back({"sim.events", per_op(t.events), "count"});
  m.push_back({"sim.pushes", per_op(t.pushes), "count"});
  m.push_back({"sim.cancelled", per_op(t.cancelled), "count"});
  m.push_back({"sim.cancel_share",
               per(static_cast<double>(t.cancelled), static_cast<double>(t.pushes)),
               "ratio"});
  m.push_back({"sim.peak_pending", per_op(t.peak_pending), "count"});
  m.push_back({"sim.slots", per_op(t.slots), "count"});
  m.push_back({"sim.ns_per_event", per(sim_ns, sim_events), "ns"});
  m.push_back({"routing.spf_runs", per_op(t.spf_runs), "count"});
  m.push_back({"routing.spf_us", spf_us, "us"});
  m.push_back({"routing.spf_share", per(per_op(t.spf_runs) * spf_us, op_us),
               "ratio"});
  m.push_back({"net.tx.control", per_op(t.tx_control), "count"});
  m.push_back({"net.tx.data", per_op(t.tx_data), "count"});
  m.push_back({"net.queued", per_op(t.queued), "count"});
  for (std::size_t i = 0; i < kDropReasons.size(); ++i) {
    m.push_back({"net.drops." + std::string(kDropReasons[i]),
                 per_op(t.drops[i]), "count"});
  }
  // Hops are counted in every pass; sim time comes from the traced ones.
  m.push_back({"net.ns_per_hop",
               per(sim_ns, hops * per(traced_ops, n)), "ns"});
  for (const Protocol p : hbh::harness::all_protocols()) {
    const std::size_t pi = proto_index(p);
    const Counts& c = plain->by_proto[pi];
    const double pn = static_cast<double>(plain->proto_ops[pi]);
    auto per_pop = [&](std::uint64_t v) {
      return per(static_cast<double>(v), pn);
    };
    const std::string prefix = "mcast." + std::string(proto_label(p)) + ".";
    using hbh::net::PacketType;
    const bool pim = p == Protocol::kPimSm || p == Protocol::kPimSs;
    const std::vector<std::pair<const char*, PacketType>> types =
        pim ? std::vector<std::pair<const char*, PacketType>>{
                  {"pim_join", PacketType::kPimJoin},
                  {"pim_prune", PacketType::kPimPrune},
                  {"data", PacketType::kData}}
            : std::vector<std::pair<const char*, PacketType>>{
                  {"join", PacketType::kJoin},
                  {"tree", PacketType::kTree},
                  {"fusion", PacketType::kFusion},
                  {"data", PacketType::kData}};
    for (const auto& [label, type] : types) {
      m.push_back({prefix + "rx." + label,
                   per_pop(c.rx[static_cast<std::size_t>(type)]), "count"});
    }
    m.push_back({prefix + "timer_fires", per_pop(c.timer_fires), "count"});
    m.push_back({prefix + "structural_changes", per_pop(c.structural), "count"});
    m.push_back({prefix + "mft_entries", per_pop(c.mft), "count"});
    m.push_back({prefix + "mct_entries", per_pop(c.mct), "count"});
  }
  m.push_back({"fastpath.hits", per_op(t.fp_hits), "count"});
  m.push_back({"fastpath.recompiles", per_op(t.fp_recompiles), "count"});
  m.push_back({"fastpath.invalidations", per_op(t.fp_invalidations), "count"});
  m.push_back({"fastpath.hit_ratio",
               per(static_cast<double>(t.fp_hits), static_cast<double>(t.tx_data)),
               "ratio"});
  const auto rate = [&](Mode mode) {
    return best_rate(best_op_ms(passes, mode));
  };
  m.push_back({"metrics.audit_overhead",
               per(rate(Mode::kAudited), rate(Mode::kPlain)), "ratio"});
  m.push_back({"alloc.per_op", per_op(t.allocs), "count"});
  // Sweep ops construct a session each; the data plane constructs its four
  // in set-up, so its figure is per set-up constructor call.
  const PassResult& first_traced = *traced.front();
  m.push_back({"alloc.ctor",
               is_sweep(w) ? per_op(t.allocs_ctor)
                           : per(static_cast<double>(first_traced.ctor_allocs),
                                 static_cast<double>(first_traced.ctor_calls)),
               "count"});
  m.push_back({"alloc.per_event",
               per(static_cast<double>(t.allocs_sim), static_cast<double>(t.events)),
               "count"});
  m.push_back({"bench.trace_overhead",
               per(rate(Mode::kTraced), rate(Mode::kPlain)), "ratio"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  pin_environment();
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              std::string(workload_name(args.workload)).c_str(), args.seed,
              args.seconds, args.trace ? 1 : 0);
  std::printf("config: %s\n", resolved_config().c_str());

  std::size_t passes = std::max<std::size_t>(
      kMinPasses, static_cast<std::size_t>(std::lround(
                      args.seconds / nominal_pass_seconds(args.workload))));
  // An audited data-plane pass takes about five times as long as a plain
  // one, so a traced run makes half the passes.
  if (args.trace) passes = std::max(kMinPasses, passes / 2);

  SweepWork sweep;
  if (is_sweep(args.workload)) {
    const TopoKind topo = args.workload == Workload::kIspSweep
                              ? TopoKind::kIsp
                              : TopoKind::kRandom50;
    sweep.spec = sweep_spec(topo);
    sweep.ops = make_sweep_ops(sweep.spec, args.seed,
                               topo == TopoKind::kIsp ? kIspTrialsPerSize
                                                      : kRand50TrialsPerSize);
    // The mirror cell is the same for every seed, so set-up does the same
    // work in every run: trial 0 of the largest group size.
    sweep.mirror_cell = {Protocol::kHbh, sweep.spec.group_sizes.back(), 0};
  }

  SpanLog spans;
  std::vector<PassResult> results;
  const double startup_s =
      std::chrono::duration<double>(Clock::now() - g_process_start).count();
  for (std::size_t i = 0; i < passes; ++i) {
    const Mode mode = args.trace ? static_cast<Mode>(i % 3) : Mode::kPlain;
    results.push_back(is_sweep(args.workload)
                          ? sweep_pass(sweep, mode, spans)
                          : dataplane_pass(args.seed, mode, spans));
    PassResult& r = results.back();
    std::printf("pass %zu %-7s digest=%016" PRIx64 " counts=%016" PRIx64
                " ops=%" PRIu64 " failed=%" PRIu64 " setup_s=%.4f ops_per_s=%.1f\n",
                i, mode_name(mode), r.digest, r.counts_digest, r.ops,
                r.failed, median(r.setup_s),
                per(static_cast<double>(r.ops),
                    static_cast<double>(r.op_ns) / 1e9));
  }

  // Determinism and non-perturbation: every pass repeats the first.
  bool correct = true;
  const PassResult& ref = results.front();
  for (const PassResult& r : results) {
    Counts a = r.total;
    Counts b = ref.total;
    if (r.mode == Mode::kAudited) {  // the auditor allocates; nothing else moves
      a.allocs = b.allocs = a.allocs_ctor = b.allocs_ctor = a.allocs_sim =
          b.allocs_sim = 0;
    }
    const bool same = r.digest == ref.digest &&
                      r.counts_digest == ref.counts_digest && a == b &&
                      r.proto_failed == ref.proto_failed &&
                      r.setup_ok == ref.setup_ok;
    if (!same) {
      std::printf("error: pass (%s) differs from the first pass\n",
                  mode_name(r.mode));
    }
    if (!r.mirror_ok) std::printf("error: mirror cell differs from run_trial\n");
    correct = correct && same && r.mirror_ok;
  }
  for (const Protocol p : hbh::harness::all_protocols()) {
    if (!ref.setup_ok[proto_index(p)]) {
      std::printf("note: %s set-up probe or warm-up burst was not delivered "
                  "exactly once\n",
                  std::string(proto_label(p)).c_str());
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::array<std::uint64_t, kProtocols> p_ops{};
  std::array<std::uint64_t, kProtocols> p_failed{};
  for (const PassResult& r : results) {
    attempted += r.ops;
    failed += r.failed;
    for (std::size_t i = 0; i < kProtocols; ++i) {
      p_ops[i] += r.proto_ops[i];
      p_failed[i] += r.proto_failed[i];
    }
  }
  for (const Protocol p : hbh::harness::all_protocols()) {
    const std::size_t i = proto_index(p);
    std::printf("failures %s %s: %" PRIu64 "/%" PRIu64 "\n",
                std::string(workload_name(args.workload)).c_str(),
                std::string(proto_label(p)).c_str(), p_failed[i], p_ops[i]);
  }
  std::printf("failures %s total: %" PRIu64 "/%" PRIu64 "\n",
              std::string(workload_name(args.workload)).c_str(), failed,
              attempted);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::vector<double> best = best_op_ms(results, Mode::kPlain);
    std::vector<double> best_setup = results.front().setup_s;
    for (const PassResult& r : results) {
      for (std::size_t k = 0; k < best_setup.size(); ++k) {
        best_setup[k] = std::min(best_setup[k], r.setup_s[k]);
      }
    }
    std::printf("samples: op_ms=%zu ops and setup_s=%zu set-ups, each the "
                "best of %zu passes; start-up before the first set-up %.6f s\n",
                best.size(), best_setup.size(), passes, startup_s);
    metrics.push_back({"ops_per_s", best_rate(best), "1/s"});
    metrics.push_back({"op_ms.p50", quantile(best, 0.50), "ms"});
    metrics.push_back({"op_ms.p99", quantile(best, 0.99), "ms"});
    metrics.push_back({"setup_s", median(best_setup), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    metrics = per_layer_metrics(args.workload, results);
    if (!args.trace_out.empty()) {
      if (spans.write(args.trace_out)) {
        std::printf("spans: %zu written to %s\n", spans.size(),
                    args.trace_out.c_str());
      } else {
        std::printf("error: cannot write %s\n", args.trace_out.c_str());
        correct = false;
      }
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}
