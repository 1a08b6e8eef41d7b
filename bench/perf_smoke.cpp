// Perf smoke bench: one binary that times the experiment engine end to end
// (run_all, serial vs. HBH_JOBS-parallel) plus the simulator's hottest
// micro loops, and emits a machine-readable JSON summary. It is the tool
// for recording the perf baselines described in docs/PERFORMANCE.md.
//
// It also *checks* the determinism-under-parallelism contract: the serial
// and parallel runs must render byte-identical tables and CSV, and the
// binary exits nonzero if they do not.
//
// Knobs: HBH_TRIALS (default 20), HBH_SEED, HBH_JOBS (parallel job count,
// default all cores), HBH_PERF_OUT (JSON path, default
// BENCH_perf_smoke.json; empty string disables the file).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/trial_pool.hpp"
#include "metrics/json.hpp"
#include "routing/dijkstra.hpp"
#include "sim/event_queue.hpp"
#include "topo/isp.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

using namespace hbh;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MicroResult {
  const char* name;
  std::uint64_t items = 0;
  double seconds = 0;
};

// The event-queue throughput loop from BM_EventQueuePushPop, sized to run
// for a measurable wall time without google-benchmark's harness.
MicroResult micro_event_queue(std::size_t batch, std::size_t rounds) {
  Rng rng{1};
  const auto start = Clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) q.push(rng.uniform(0, 1000), [] {});
    while (!q.empty()) (void)q.pop();
  }
  return {"event_queue_push_pop", static_cast<std::uint64_t>(batch * rounds),
          seconds_since(start)};
}

// The clustered shape of BM_EventQueueClusteredTimes: a steady ~70
// pending events, each pop re-pushed at now + U{1..10}.
MicroResult micro_event_queue_clustered(std::size_t ops) {
  constexpr int kPending = 70;
  Rng rng{4};
  sim::EventQueue q;
  for (int i = 0; i < kPending; ++i) {
    q.push(static_cast<Time>(rng.uniform_int(1, 10)), [] {});
  }
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const Time now = q.pop().when;
    q.push(now + static_cast<Time>(rng.uniform_int(1, 10)), [] {});
  }
  return {"event_queue_clustered", static_cast<std::uint64_t>(ops),
          seconds_since(start)};
}

// The clustered loop with trivially copyable sim::Task events (the shape
// of BM_EventQueueTaskClustered): the hot path's event type.
MicroResult micro_event_queue_task_clustered(std::size_t ops) {
  constexpr int kPending = 70;
  const sim::Task noop{[](void*, std::uint64_t) {}, nullptr, 0};
  Rng rng{4};
  sim::EventQueue q;
  for (int i = 0; i < kPending; ++i) {
    q.push(static_cast<Time>(rng.uniform_int(1, 10)), noop);
  }
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const Time now = q.pop().when;
    q.push(now + static_cast<Time>(rng.uniform_int(1, 10)), noop);
  }
  return {"event_queue_task_clustered", static_cast<std::uint64_t>(ops),
          seconds_since(start)};
}

// Soft-state churn: every other event is cancelled before draining.
MicroResult micro_event_queue_cancel(std::size_t batch, std::size_t rounds) {
  Rng rng{2};
  std::vector<sim::EventId> ids;
  ids.reserve(batch);
  const auto start = Clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    sim::EventQueue q;
    ids.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(q.push(rng.uniform(0, 1000), [] {}));
    }
    for (std::size_t i = 0; i < batch; i += 2) q.cancel(ids[i]);
    while (!q.empty()) (void)q.pop();
  }
  return {"event_queue_push_cancel_pop",
          static_cast<std::uint64_t>(batch * rounds), seconds_since(start)};
}

// The fault-path SPF recompute loop with warm scratch buffers.
MicroResult micro_dijkstra(std::size_t iters) {
  auto scenario = topo::make_isp();
  Rng rng{3};
  topo::randomize_costs(scenario.topo, rng);
  routing::SpfResult out;
  routing::DijkstraScratch scratch;
  const routing::MetricFn metric = routing::cost_metric();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    routing::dijkstra_into(scenario.topo, NodeId{0}, metric, out, scratch);
  }
  return {"dijkstra_into_isp", static_cast<std::uint64_t>(iters),
          seconds_since(start)};
}

}  // namespace

int main() {
  init_log_level_from_env();
  harness::ExperimentSpec spec;
  spec.topology = harness::TopoKind::kIsp;
  spec.group_sizes = harness::isp_group_sizes();
  spec.trials = env_trials(20);
  spec.base_seed = env_seed();
  const std::size_t jobs = harness::TrialPool::resolve_jobs();

  std::printf("=== perf_smoke — experiment engine + hot loops ===\n");
  std::printf("trials=%zu seed=%llu parallel_jobs=%zu\n\n", spec.trials,
              static_cast<unsigned long long>(spec.base_seed), jobs);

  const auto serial_start = Clock::now();
  const auto serial = harness::run_all(spec, 1);
  const double serial_s = seconds_since(serial_start);

  const auto parallel_start = Clock::now();
  const auto parallel = harness::run_all(spec, jobs);
  const double parallel_s = seconds_since(parallel_start);

  // The determinism contract, checked on the rendered artifacts: tables
  // (both metrics, with CI columns) and the CSV must match byte for byte.
  const bool identical =
      harness::format_table(serial, "cost", true) ==
          harness::format_table(parallel, "cost", true) &&
      harness::format_table(serial, "delay", true) ==
          harness::format_table(parallel, "delay", true) &&
      harness::format_csv(serial) == harness::format_csv(parallel);

  std::printf("run_all serial   : %8.3f s (jobs=1)\n", serial_s);
  std::printf("run_all parallel : %8.3f s (jobs=%zu)\n", parallel_s, jobs);
  std::printf("speedup          : %8.2fx\n", serial_s / parallel_s);
  std::printf("outputs identical: %s\n\n", identical ? "yes" : "NO");

  std::vector<MicroResult> micro;
  micro.push_back(micro_event_queue(10000, 200));
  micro.push_back(micro_event_queue_cancel(10000, 200));
  micro.push_back(micro_event_queue_clustered(2000000));
  micro.push_back(micro_event_queue_task_clustered(2000000));
  micro.push_back(micro_dijkstra(20000));
  for (const MicroResult& m : micro) {
    std::printf("%-28s %9.3f s  %12.0f items/s\n", m.name, m.seconds,
                static_cast<double>(m.items) / m.seconds);
  }

  const std::string out_path =
      env_perf_out("BENCH_perf_smoke.json");
  if (!out_path.empty()) {
    std::ofstream out{out_path};
    if (!out) {
      std::fprintf(stderr, "error: cannot write HBH_PERF_OUT=%s\n",
                   out_path.c_str());
      return 1;
    }
    metrics::JsonWriter w{out};
    w.begin_object();
    w.member("schema", "hbh.perf_smoke/v1");
    w.key("config");
    w.begin_object();
    w.member("topology", to_string(spec.topology));
    w.member("trials", static_cast<std::uint64_t>(spec.trials));
    w.member("seed", spec.base_seed);
    w.member("parallel_jobs", static_cast<std::uint64_t>(jobs));
    w.end_object();
    w.key("run_all");
    w.begin_object();
    w.member("serial_seconds", serial_s);
    w.member("parallel_seconds", parallel_s);
    w.member("speedup", serial_s / parallel_s);
    w.member("outputs_identical", identical);
    w.end_object();
    w.key("micro");
    w.begin_array();
    for (const MicroResult& m : micro) {
      w.begin_object();
      w.member("name", m.name);
      w.member("items", m.items);
      w.member("seconds", m.seconds);
      w.member("items_per_second", static_cast<double>(m.items) / m.seconds);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  if (!identical) {
    std::fprintf(stderr,
                 "error: serial and parallel outputs differ — the "
                 "determinism contract is broken\n");
    return 1;
  }
  return 0;
}
