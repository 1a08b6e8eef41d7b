#include "workload.hpp"

#include <bit>
#include <set>
#include <stdexcept>
#include <utility>

#include "mcast/fastpath/compiled_forwarder.hpp"
#include "routing/dijkstra.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "topo/random.hpp"
#include "util/rng.hpp"

namespace perfbench {

using hbh::NodeId;
using hbh::harness::ExperimentSpec;
using hbh::harness::Session;

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kIspSweep, Workload::kRand50Sweep,
                           Workload::kDataplaneIsp}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kIspSweep:
      return "isp_sweep";
    case Workload::kRand50Sweep:
      return "rand50_sweep";
    case Workload::kDataplaneIsp:
      return "dataplane_isp";
  }
  return "?";
}

bool is_sweep(Workload w) { return w != Workload::kDataplaneIsp; }

std::string_view proto_label(Protocol p) {
  switch (p) {
    case Protocol::kHbh:
      return "hbh";
    case Protocol::kReunite:
      return "reunite";
    case Protocol::kPimSm:
      return "pim_sm";
    case Protocol::kPimSs:
      return "pim_ss";
  }
  return "?";
}

std::size_t proto_index(Protocol p) { return static_cast<std::size_t>(p); }

std::string_view step_name(Step s) {
  switch (s) {
    case Step::kTopo:
      return "topo.build";
    case Step::kCtor:
      return "harness.ctor";
    case Step::kWarmup:
      return "harness.warmup";
    case Step::kMeasure:
      return "harness.measure";
    case Step::kInject:
      return "harness.inject";
    case Step::kDrain:
      return "harness.drain";
    case Step::kTeardown:
      return "harness.teardown";
  }
  return "?";
}

std::int64_t StepClock::total_ns() const {
  std::int64_t sum = 0;
  for (const std::int64_t v : ns) sum += v;
  return sum;
}

std::uint64_t StepClock::total_allocs() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : allocs) sum += v;
  return sum;
}

// --- Counts -------------------------------------------------------------------

Counts& Counts::operator+=(const Counts& o) {
  events += o.events;
  pushes += o.pushes;
  cancelled += o.cancelled;
  peak_pending += o.peak_pending;
  slots += o.slots;
  spf_runs += o.spf_runs;
  tx_control += o.tx_control;
  tx_data += o.tx_data;
  queued += o.queued;
  for (std::size_t i = 0; i < drops.size(); ++i) drops[i] += o.drops[i];
  for (std::size_t i = 0; i < rx.size(); ++i) rx[i] += o.rx[i];
  timer_fires += o.timer_fires;
  structural += o.structural;
  mft += o.mft;
  mct += o.mct;
  fp_hits += o.fp_hits;
  fp_recompiles += o.fp_recompiles;
  fp_invalidations += o.fp_invalidations;
  allocs += o.allocs;
  allocs_ctor += o.allocs_ctor;
  allocs_sim += o.allocs_sim;
  return *this;
}

std::uint64_t Counts::drops_total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t d : drops) sum += d;
  return sum;
}

Counts read_counts(Session& session) {
  Counts c;
  const hbh::sim::Simulator& sim = session.simulator();
  c.events = sim.executed();
  c.pushes = sim.queue().total_pushes();
  // Every push either fired, was cancelled, or is still pending.
  c.cancelled = c.pushes - c.events - sim.pending();
  c.peak_pending = sim.peak_pending();
  c.slots = sim.queue().slots_allocated();
  c.spf_runs = session.routes().spf_computations();
  const hbh::net::NetworkCounters& n = session.network().counters();
  c.tx_control = n.control_transmissions;
  c.tx_data = n.data_transmissions;
  c.queued = n.queued_packets;
  c.drops = {n.drops_ttl,  n.drops_no_route,   n.drops_link_down,
             n.drops_loss, n.drops_queue_full, n.drops_red};
  const hbh::net::AgentStats agents = session.aggregate_agent_stats();
  c.rx = agents.rx_by_type;
  c.timer_fires = agents.timer_fires;
  c.structural = session.total_structural_changes();
  const hbh::harness::StateCensus census = session.state_census();
  c.mft = census.forwarding_entries;
  c.mct = census.control_entries;
  if (const hbh::fastpath::CompiledForwarder* fp = session.fastpath()) {
    c.fp_hits = fp->stats().hits;
    c.fp_recompiles = fp->stats().recompiles;
    c.fp_invalidations = fp->stats().invalidations;
  }
  return c;
}

Counts delta(const Counts& before, const Counts& after) {
  Counts d = after;
  d.events -= before.events;
  d.pushes -= before.pushes;
  d.cancelled -= before.cancelled;
  d.spf_runs -= before.spf_runs;
  d.tx_control -= before.tx_control;
  d.tx_data -= before.tx_data;
  d.queued -= before.queued;
  for (std::size_t i = 0; i < d.drops.size(); ++i) d.drops[i] -= before.drops[i];
  for (std::size_t i = 0; i < d.rx.size(); ++i) d.rx[i] -= before.rx[i];
  d.timer_fires -= before.timer_fires;
  d.structural -= before.structural;
  d.fp_hits -= before.fp_hits;
  d.fp_recompiles -= before.fp_recompiles;
  d.fp_invalidations -= before.fp_invalidations;
  return d;
}

std::int64_t replay_spf(Session& session, std::size_t& roots) {
  const hbh::net::Topology& topo = session.routes().topology();
  const hbh::routing::MetricFn metric = hbh::routing::cost_metric();
  hbh::routing::SpfResult out;
  hbh::routing::DijkstraScratch scratch;
  roots = topo.node_count();
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t r = 0; r < roots; ++r) {
    hbh::routing::dijkstra_into(topo, NodeId{r}, metric, out, scratch);
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }

void fold(Digest& d, const Counts& c) {
  for (const std::uint64_t v :
       {c.events, c.pushes, c.cancelled, c.peak_pending, c.slots, c.spf_runs,
        c.tx_control, c.tx_data, c.queued, c.timer_fires, c.structural, c.mft,
        c.mct, c.fp_hits, c.fp_recompiles, c.fp_invalidations}) {
    d.add(v);
  }
  for (const std::uint64_t v : c.drops) d.add(v);
  for (const std::uint64_t v : c.rx) d.add(v);
}

namespace {

/// The measured tree (directed links a probe copy crossed) against the
/// union of the unicast routes from the source to each member.
bool tree_matches_oracle(const Session& session,
                         const hbh::harness::Measurement& m) {
  std::set<std::pair<NodeId, NodeId>> oracle;
  const NodeId src_host = session.scenario().source_host;
  for (const NodeId member : session.members()) {
    const std::vector<NodeId> path = session.routes().path(src_host, member);
    for (std::size_t i = 1; i < path.size(); ++i) {
      oracle.emplace(path[i - 1], path[i]);
    }
  }
  std::set<std::pair<NodeId, NodeId>> measured;
  for (const auto& [link, copies] : m.per_link) {
    if (copies > 0) measured.insert(link);
  }
  return measured == oracle;
}

}  // namespace

// --- Sweeps -------------------------------------------------------------------

ExperimentSpec sweep_spec(TopoKind topo) {
  ExperimentSpec spec;
  spec.topology = topo;
  spec.group_sizes = topo == TopoKind::kIsp ? hbh::harness::isp_group_sizes()
                                            : hbh::harness::random50_group_sizes();
  return spec;
}

std::vector<SweepOp> make_sweep_ops(const ExperimentSpec& spec,
                                    std::uint64_t seed,
                                    std::size_t trials_per_size) {
  constexpr std::size_t kTrialSpace = 500;  // the paper's trial count
  std::vector<std::size_t> space(kTrialSpace);
  for (std::size_t i = 0; i < kTrialSpace; ++i) space[i] = i;
  hbh::Rng rng{seed};
  std::vector<std::vector<std::size_t>> trials;
  for (std::size_t s = 0; s < spec.group_sizes.size(); ++s) {
    trials.push_back(rng.sample(space, trials_per_size));
  }
  std::vector<SweepOp> ops;
  for (std::size_t k = 0; k < trials_per_size; ++k) {
    for (std::size_t s = 0; s < spec.group_sizes.size(); ++s) {
      for (const Protocol p : hbh::harness::all_protocols()) {
        ops.push_back({p, spec.group_sizes[s], trials[s][k]});
      }
    }
  }
  return ops;
}

SweepTrial::SweepTrial(const ExperimentSpec& spec, const SweepOp& op)
    : spec_(spec), op_(op) {}

// build_topology() and warm_up() repeat harness::run_trial's private
// set-up (cell seed, scenario, cost draw, receiver sample, staggered
// joins) through public calls; the mirror test checks the two agree.
void SweepTrial::build_topology() {
  std::uint64_t s = spec_.base_seed;
  s ^= 0x1000003u * (op_.group_size + 1);
  s ^= 0x100000001B3ull * (op_.trial + 1);
  hbh::Rng rng{hbh::splitmix64(s)};
  if (spec_.topology == TopoKind::kIsp) {
    scenario_ = hbh::topo::make_isp();
  } else {
    hbh::Rng topo_rng{spec_.base_seed};
    scenario_ = hbh::topo::make_random50(topo_rng);
  }
  hbh::topo::randomize_costs(scenario_->topo, rng);
  if (spec_.symmetric_costs) hbh::topo::symmetrize_costs(scenario_->topo);
  receivers_ = rng.sample(scenario_->candidate_receivers(), op_.group_size);
}

void SweepTrial::construct(bool audit) {
  session_ = std::make_unique<Session>(std::move(*scenario_), op_.protocol,
                                       spec_.session);
  scenario_.reset();
  if (audit) session_->enable_audit();
}

void SweepTrial::warm_up() {
  hbh::Time delay = 0.1;
  for (const NodeId r : receivers_) {
    session_->subscribe(r, delay);
    delay += 1.2 * spec_.session.timers.tree_period;
  }
  session_->run_for(delay + spec_.warmup);
}

void SweepTrial::measure() { measurement_ = session_->measure(spec_.drain); }

SweepOutcome SweepTrial::outcome() const {
  SweepOutcome out;
  out.trial.tree_cost = static_cast<double>(measurement_.tree_cost);
  out.trial.mean_delay = measurement_.mean_delay;
  out.trial.delivered = measurement_.delivered_exactly_once();
  if (op_.protocol == Protocol::kHbh && session_) {
    out.tree_matches_oracle = tree_matches_oracle(*session_, measurement_);
  }
  return out;
}

// --- Data plane ---------------------------------------------------------------

DataplaneSession::DataplaneSession(Protocol protocol, std::uint64_t seed)
    : protocol_(protocol), seed_(seed) {}

void DataplaneSession::build_topology() {
  // perf_dataplane's cost draw and receiver set (its default seed), so every
  // run seed carries the same data-plane load; the seed orders the joins.
  hbh::Rng rng{kDpTopologySeed};
  scenario_ = hbh::topo::make_isp();
  hbh::topo::randomize_costs(scenario_->topo, rng);
  hbh::topo::apply_backbone_capacity(scenario_->topo, kDpCapacity,
                                     kDpQueueLimit);
  receivers_ = rng.sample(scenario_->candidate_receivers(), kDpReceivers);
  hbh::Rng order{seed_};
  order.shuffle(receivers_);
}

void DataplaneSession::construct(bool audit) {
  session_ = std::make_unique<Session>(std::move(*scenario_), protocol_);
  scenario_.reset();
  if (audit) session_->enable_audit();
}

void DataplaneSession::warm_up() {
  const hbh::mcast::McastConfig timers{};
  hbh::Time delay = 0.1;
  for (const NodeId r : receivers_) {
    session_->subscribe(r, delay);
    delay += 1.2 * timers.tree_period;
  }
  session_->run_for(delay + 240);
}

bool DataplaneSession::measure_ok() {
  const hbh::harness::Measurement m = session_->measure();
  ++emitted_;
  return m.delivered_exactly_once() &&
         (protocol_ != Protocol::kHbh || tree_matches_oracle(*session_, m));
}

void DataplaneSession::inject_burst() {
  for (std::size_t b = 0; b < kDpBurst; ++b) {
    (void)session_->default_channel().inject_data();
  }
  emitted_ += static_cast<std::uint32_t>(kDpBurst);
}

void DataplaneSession::drain() { session_->run_for(kDpRoundDrain); }

void DataplaneSession::settle() { session_->run_for(2 * kDpRoundDrain); }

void DataplaneSession::collect(Digest& digest) {
  seen_.resize(receivers_.size());
  for (std::size_t m = 0; m < receivers_.size(); ++m) {
    std::vector<std::uint8_t>& seen = seen_[m];
    seen.resize(emitted_ - checked_, 0);
    hbh::mcast::ReceiverHost& host = session_->receiver(receivers_[m]);
    for (const hbh::mcast::Delivery& d : host.deliveries()) {
      digest.add(static_cast<std::uint64_t>(m) << 32 | d.seq);
      digest.add(d.received_at);
      if (d.seq < checked_ || d.seq >= emitted_) {
        throw std::logic_error("delivery of a seq outside the checked range");
      }
      std::uint8_t& n = seen[d.seq - checked_];
      if (n < 2) ++n;
    }
    host.clear_deliveries();
  }
}

std::vector<bool> DataplaneSession::verdicts() {
  std::vector<bool> failed(emitted_ - checked_, false);
  for (std::vector<std::uint8_t>& seen : seen_) {
    seen.resize(failed.size(), 0);
    for (std::size_t i = 0; i < failed.size(); ++i) {
      if (seen[i] != 1) failed[i] = true;
    }
    seen.clear();
  }
  checked_ = emitted_;
  return failed;
}

bool set_up_dataplane(DataplaneSession& s, StepClock& clock, Digest& digest,
                      bool audit) {
  clock.time(Step::kTopo, [&] { s.build_topology(); });
  clock.time(Step::kCtor, [&] { s.construct(audit); });
  clock.time(Step::kWarmup, [&] { s.warm_up(); });
  bool ok = true;
  clock.time(Step::kMeasure, [&] { ok = s.measure_ok(); });
  for (std::size_t r = 0; r < kDpWarmRounds; ++r) {
    s.inject_burst();
    s.drain();
  }
  s.settle();
  s.collect(digest);
  for (const bool f : s.verdicts()) ok = ok && !f;
  return ok;
}

}  // namespace perfbench
