// Group dynamics: the paper's Figures 4 and 5.
//
// Part 1 (Fig. 5): watches HBH build its tree as receivers join one by
// one on the asymmetric Figure-2 topology — including the fusion exchange
// that moves the branching point to H3 when r3 arrives.
//
// Part 2 (Fig. 4): compares tree stability on member departure — how many
// router-table changes HBH and REUNITE make when a receiver leaves a
// converged 8-receiver tree.
#include <cstdio>

#include "harness/session.hpp"
#include "mcast/hbh/router.hpp"
#include "metrics/probe.hpp"
#include "topo/scenarios.hpp"
#include "util/log.hpp"

using namespace hbh;
using harness::Protocol;
using harness::Session;

namespace {

topo::Scenario wrap_fig2(const topo::Fig2Scenario& f) {
  topo::Scenario s;
  s.topo = f.topo;
  s.routers = {f.h1, f.h2, f.h3, f.h4};
  s.hosts = {f.s, f.r1, f.r2, f.r3};
  s.source_host = f.s;
  return s;
}

topo::Scenario wrap_fig1(const topo::Fig1Scenario& f) {
  topo::Scenario s;
  s.topo = f.topo;
  s.routers = {f.h1, f.h2, f.h3, f.h4, f.h5, f.h6, f.h7};
  s.hosts = {f.s, f.r1, f.r2, f.r3, f.r4, f.r5, f.r6, f.r7, f.r8};
  s.source_host = f.s;
  return s;
}

void dump_hbh_tables(Session& session, const topo::Fig2Scenario& fig) {
  const Time now = session.simulator().now();
  const char* names[] = {"H1", "H2", "H3", "H4"};
  const NodeId routers[] = {fig.h1, fig.h2, fig.h3, fig.h4};
  for (int i = 0; i < 4; ++i) {
    const auto* st = static_cast<const mcast::hbh::HbhRouter&>(
                         session.network().agent(routers[i]))
                         .state(session.channel());
    if (st == nullptr) {
      std::printf("  %s: (no state)\n", names[i]);
    } else if (st->mft) {
      std::printf("  %s: MFT %s\n", names[i], st->mft->to_string(now).c_str());
    } else if (st->mct) {
      std::printf("  %s: MCT {%s:%s}\n", names[i],
                  st->mct->target.to_string().c_str(),
                  st->mct->state.state_string(now).c_str());
    }
  }
}

void figure5() {
  std::printf("=== Figure 5: HBH tree construction, step by step ===\n");
  const topo::Fig2Scenario fig = topo::make_fig2();
  Session session{wrap_fig2(fig), Protocol::kHbh};

  std::printf("\nr1 joins (tree state after a few refresh periods):\n");
  session.subscribe(fig.r1);
  session.run_for(60);
  dump_hbh_tables(session, fig);

  std::printf("\nr2 joins (both receivers served on shortest paths):\n");
  session.subscribe(fig.r2);
  session.run_for(60);
  dump_hbh_tables(session, fig);

  std::printf(
      "\nr3 joins -> H1 and H3 see two tree flows, send fusion messages;\n"
      "H3 becomes the branching node for {r1, r3} (marked entries at H1):\n");
  session.subscribe(fig.r3);
  session.run_for(400);
  dump_hbh_tables(session, fig);

  const harness::Measurement m = session.measure();
  std::printf("\ndata check: cost=%zu, delivered exactly once: %s\n",
              m.tree_cost, m.delivered_exactly_once() ? "yes" : "NO");
  std::printf("measured distribution tree:\n%s\n",
              metrics::render_tree(m.per_link, fig.s).c_str());
}

void figure4() {
  std::printf("=== Figure 4: tree stability on member departure ===\n");
  const topo::Fig1Scenario fig = topo::make_fig1();
  for (const Protocol proto : {Protocol::kReunite, Protocol::kHbh}) {
    Session session{wrap_fig1(fig), proto};
    for (const NodeId r : fig.receivers()) session.subscribe(r);
    session.run_for(400);
    const std::uint64_t before = session.total_structural_changes();

    session.unsubscribe(fig.r1);   // leaf departure (Fig. 4 comparison)
    session.run_for(300);
    const std::uint64_t after = session.total_structural_changes();

    const harness::Measurement m = session.measure();
    std::printf("%-8s r1 departs: %llu router-table changes, remaining 7 "
                "receivers %s\n",
                std::string(to_string(proto)).c_str(),
                static_cast<unsigned long long>(after - before),
                m.delivered_exactly_once() ? "all served" : "DISRUPTED");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  figure5();
  figure4();
  return 0;
}
