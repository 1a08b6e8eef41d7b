// Tests of the benchmark's own machinery: environment pinning, the
// step-by-step sweep op against harness::run_trial, and determinism of the
// digests hbh_perfbench compares across passes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <string>
#include <vector>

#include "env_pin.hpp"
#include "harness/experiment.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Fingerprint {
  std::uint64_t digest = 0;
  Counts counts;
};

/// Runs `ops` as hbh_perfbench does and folds outputs and counts.
Fingerprint run_sweep(const hbh::harness::ExperimentSpec& spec,
                      const std::vector<SweepOp>& ops, bool audit = false) {
  Fingerprint f;
  Digest d;
  for (const SweepOp& op : ops) {
    StepClock clock;
    Counts c;
    const SweepOutcome out = run_sweep_op(
        spec, op, clock, audit,
        [&](SweepTrial& t) { c = read_counts(t.session()); });
    d.add(out.trial.tree_cost);
    d.add(out.trial.mean_delay);
    d.add(static_cast<std::uint64_t>(out.failed()));
    fold(d, c);
    f.counts += c;
  }
  f.digest = d.value();
  return f;
}

/// Sets up the four data-plane sessions and runs `rounds` checked bursts.
Fingerprint run_dataplane(std::uint64_t seed, std::size_t rounds) {
  Fingerprint f;
  Digest d;
  for (const Protocol p : hbh::harness::all_protocols()) {
    DataplaneSession s{p, seed};
    StepClock clock;
    (void)set_up_dataplane(s, clock, d, false);
    const Counts before = read_counts(s.session());
    for (std::size_t r = 0; r < rounds; ++r) {
      s.inject_burst();
      s.drain();
      s.collect(d);
    }
    s.settle();
    f.counts += delta(before, read_counts(s.session()));
    s.collect(d);
    for (const bool failed : s.verdicts()) EXPECT_FALSE(failed);
  }
  fold(d, f.counts);
  f.digest = d.value();
  return f;
}

std::vector<SweepOp> sample_ops(const hbh::harness::ExperimentSpec& spec,
                                std::size_t stride) {
  const std::vector<SweepOp> all = make_sweep_ops(spec, 1, 2);
  std::vector<SweepOp> ops;
  for (std::size_t i = 0; i < all.size(); i += stride) ops.push_back(all[i]);
  return ops;
}

TEST(EnvPin, StrayKnobsChangeNeitherDigestNorCounts) {
  pin_environment();
  const auto spec = sweep_spec(TopoKind::kIsp);
  const std::vector<SweepOp> ops = sample_ops(spec, 5);
  const Fingerprint clean_sweep = run_sweep(spec, ops);
  const Fingerprint clean_dp = run_dataplane(3, 4);

  const auto set_stray_knobs = [] {
    setenv("HBH_FASTPATH", "0", 1);
    setenv("HBH_AUDIT", "record", 1);
    setenv("HBH_LOG_LEVEL", "error", 1);
    setenv("HBH_JOBS", "4", 1);
    setenv("HBH_SEED", "99", 1);
    setenv("HBH_TRIALS", "3", 1);
    setenv("HBH_QUEUE_LIMIT", "1", 1);
    setenv("HBH_RATE", "5", 1);
    setenv("HBH_PROF_OUT", "stray_profile.json", 1);
    setenv("HBH_REPORT", "stray_report.json", 1);
  };
  // Unpinned, the stray knobs do reach the library: the fast path is off.
  set_stray_knobs();
  EXPECT_NE(run_sweep(spec, ops).counts.fp_hits, clean_sweep.counts.fp_hits);

  set_stray_knobs();
  pin_environment();
  EXPECT_EQ(std::getenv("HBH_FASTPATH"), nullptr);
  EXPECT_EQ(std::getenv("HBH_REPORT"), nullptr);
  EXPECT_STREQ(std::getenv("HBH_JOBS"), "1");
  const Fingerprint pinned_sweep = run_sweep(spec, ops);
  const Fingerprint pinned_dp = run_dataplane(3, 4);
  EXPECT_EQ(pinned_sweep.digest, clean_sweep.digest);
  EXPECT_EQ(pinned_sweep.counts, clean_sweep.counts);
  EXPECT_EQ(pinned_dp.digest, clean_dp.digest);
  EXPECT_EQ(pinned_dp.counts, clean_dp.counts);
}

void expect_mirrors_run_trial(TopoKind topo, std::size_t stride) {
  pin_environment();
  const auto spec = sweep_spec(topo);
  for (const SweepOp& op : sample_ops(spec, stride)) {
    StepClock clock;
    const SweepOutcome mine =
        run_sweep_op(spec, op, clock, false, [](SweepTrial&) {});
    const hbh::harness::TrialResult ref =
        hbh::harness::run_trial(spec, op.protocol, op.group_size, op.trial);
    SCOPED_TRACE(std::string(proto_label(op.protocol)) + " size " +
                 std::to_string(op.group_size) + " trial " +
                 std::to_string(op.trial));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mine.trial.tree_cost),
              std::bit_cast<std::uint64_t>(ref.tree_cost));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mine.trial.mean_delay),
              std::bit_cast<std::uint64_t>(ref.mean_delay));
    EXPECT_EQ(mine.trial.delivered, ref.delivered);
  }
}

TEST(Mirror, SweepOpReproducesRunTrialOnIsp) {
  expect_mirrors_run_trial(TopoKind::kIsp, 3);
}

TEST(Mirror, SweepOpReproducesRunTrialOnRandom50) {
  expect_mirrors_run_trial(TopoKind::kRandom50, 7);
}

TEST(Determinism, SweepDigestRepeatsAndFollowsTheSeed) {
  pin_environment();
  const auto spec = sweep_spec(TopoKind::kIsp);
  const std::vector<SweepOp> ops = sample_ops(spec, 6);
  const Fingerprint a = run_sweep(spec, ops);
  const Fingerprint b = run_sweep(spec, ops);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.counts, b.counts);

  const std::vector<SweepOp> other = make_sweep_ops(spec, 2, 2);
  EXPECT_NE(run_sweep(spec, std::vector<SweepOp>(other.begin(),
                                                 other.begin() + 11))
                .digest,
            run_sweep(spec, std::vector<SweepOp>(ops.begin(), ops.begin() + 11))
                .digest);
}

TEST(Determinism, AuditorDoesNotPerturbTheSweep) {
  pin_environment();
  const auto spec = sweep_spec(TopoKind::kIsp);
  const std::vector<SweepOp> ops = sample_ops(spec, 6);
  Fingerprint plain = run_sweep(spec, ops);
  Fingerprint audited = run_sweep(spec, ops, true);
  EXPECT_EQ(plain.digest, audited.digest);
  plain.counts.allocs = audited.counts.allocs = 0;
  EXPECT_EQ(plain.counts, audited.counts);
}

TEST(Determinism, DataplaneDigestRepeatsAndFollowsTheSeed) {
  pin_environment();
  const Fingerprint a = run_dataplane(5, 6);
  const Fingerprint b = run_dataplane(5, 6);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_GT(a.counts.queued, 0u);  // the bursts do queue
  EXPECT_EQ(a.counts.drops_total(), 0u);
  EXPECT_NE(run_dataplane(6, 6).digest, a.digest);
}

TEST(Workload, SweepOpListCoversTheGridInPaperOrder) {
  const auto spec = sweep_spec(TopoKind::kRandom50);
  const std::vector<SweepOp> ops = make_sweep_ops(spec, 4, 3);
  ASSERT_EQ(ops.size(), spec.group_sizes.size() * 3 * kProtocols);
  for (std::size_t i = 0; i < ops.size(); i += kProtocols) {
    for (std::size_t k = 0; k < kProtocols; ++k) {
      EXPECT_EQ(ops[i + k].protocol, hbh::harness::all_protocols()[k]);
      EXPECT_EQ(ops[i + k].group_size, ops[i].group_size);
      EXPECT_EQ(ops[i + k].trial, ops[i].trial);
    }
    EXPECT_LT(ops[i].trial, 500u);
  }
}

}  // namespace
}  // namespace perfbench
