// The session-long engine workspace (RankCtx::workspace) and emission-time
// sender-side reduction:
//
//   * a long-lived session that alternates roots, bucket widths, engines,
//     pull modes and a seeded repair answers every solve exactly as a fresh
//     solver does — distances, canonical parents, every counter and the
//     wire traffic — so nothing a solve leaves in the workspace leaks into
//     the next one;
//   * once warm, the retained pool capacity stops moving;
//   * at one and at two lanes the wire traffic is pinned, per phase kind,
//     to the values the previous design (compaction of each destination's
//     stream before the exchange, one table per rank) put on the wire:
//     admitting at emission (one lane) or lane by lane before the exchange
//     (two lanes) drops exactly what that pass dropped.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/delta_engine.hpp"
#include "core/solver.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph_algos.hpp"
#include "graph/rmat.hpp"
#include "seq/dijkstra.hpp"
#include "update/dynamic_solver.hpp"

namespace parsssp {
namespace {

CsrGraph test_graph(std::uint64_t seed, int scale) {
  RmatConfig cfg;
  cfg.scale = scale;
  cfg.edge_factor = 8;
  cfg.seed = seed;
  return CsrGraph::from_edges(generate_rmat(cfg));
}

SsspOptions pull_only(std::uint32_t delta) {
  SsspOptions o = SsspOptions::prune(delta);
  o.prune_mode = PruneMode::kPullOnly;
  return o;
}

SsspOptions forced_pull(std::uint32_t delta) {
  SsspOptions o = SsspOptions::prune(delta);
  o.prune_mode = PruneMode::kForcedSequence;
  o.forced_pull = {true, false, true, true, false};
  return o;
}

SsspOptions with_details(SsspOptions o) {
  o.collect_phase_details = true;
  o.collect_bucket_details = true;  // long push ships unreduced
  return o;
}

SsspOptions with_canonical_parents(SsspOptions o) {
  o.track_parents = true;
  o.canonical_parents = true;
  return o;
}

/// Everything a solve reports except wall-clock times.
void expect_same_stats(const SsspStats& got, const SsspStats& want,
                       const std::string& what) {
  EXPECT_EQ(got.short_relaxations, want.short_relaxations) << what;
  EXPECT_EQ(got.long_push_relaxations, want.long_push_relaxations) << what;
  EXPECT_EQ(got.pull_requests, want.pull_requests) << what;
  EXPECT_EQ(got.pull_responses, want.pull_responses) << what;
  EXPECT_EQ(got.bf_relaxations, want.bf_relaxations) << what;
  EXPECT_EQ(got.async_relaxations, want.async_relaxations) << what;
  EXPECT_EQ(got.stepping_relaxations, want.stepping_relaxations) << what;
  EXPECT_EQ(got.phases, want.phases) << what;
  EXPECT_EQ(got.buckets, want.buckets) << what;
  EXPECT_EQ(got.switched_to_bf, want.switched_to_bf) << what;
  EXPECT_EQ(got.bf_switch_bucket, want.bf_switch_bucket) << what;
  EXPECT_EQ(got.pull_decisions, want.pull_decisions) << what;
  EXPECT_EQ(got.sync_allreduces, want.sync_allreduces) << what;
  EXPECT_EQ(got.sync_barriers, want.sync_barriers) << what;
  EXPECT_EQ(got.model_time_s, want.model_time_s) << what;
  EXPECT_EQ(got.model_bucket_time_s, want.model_bucket_time_s) << what;
  EXPECT_EQ(got.model_other_time_s, want.model_other_time_s) << what;
  ASSERT_EQ(got.phase_details.size(), want.phase_details.size()) << what;
  for (std::size_t i = 0; i < got.phase_details.size(); ++i) {
    EXPECT_EQ(got.phase_details[i].bucket, want.phase_details[i].bucket);
    EXPECT_EQ(got.phase_details[i].kind, want.phase_details[i].kind);
    EXPECT_EQ(got.phase_details[i].relaxations,
              want.phase_details[i].relaxations)
        << what << " phase " << i;
  }
  ASSERT_EQ(got.bucket_details.size(), want.bucket_details.size()) << what;
  for (std::size_t i = 0; i < got.bucket_details.size(); ++i) {
    const BucketDetail& g = got.bucket_details[i];
    const BucketDetail& w = want.bucket_details[i];
    EXPECT_EQ(g.bucket, w.bucket) << what;
    EXPECT_EQ(g.self_edges, w.self_edges) << what << " bucket " << i;
    EXPECT_EQ(g.backward_edges, w.backward_edges) << what << " bucket " << i;
    EXPECT_EQ(g.forward_edges, w.forward_edges) << what << " bucket " << i;
    EXPECT_EQ(g.pull_requests, w.pull_requests) << what << " bucket " << i;
    EXPECT_EQ(g.pull_responses, w.pull_responses) << what << " bucket " << i;
    EXPECT_EQ(g.used_pull, w.used_pull) << what << " bucket " << i;
  }
}

void expect_same_traffic(const TrafficCounters& got,
                         const TrafficCounters& want,
                         const std::string& what) {
  EXPECT_EQ(got.messages, want.messages) << what;
  EXPECT_EQ(got.bytes, want.bytes) << what;
  EXPECT_EQ(got.allreduces, want.allreduces) << what;
  EXPECT_EQ(got.barriers, want.barriers) << what;
}

void expect_same_result(const SsspResult& got, const SsspResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.dist, want.dist) << what << ": distances";
  EXPECT_EQ(got.parent, want.parent) << what << ": parents";
  expect_same_stats(got.stats, want.stats, what);
}

struct Step {
  const char* name;
  SsspOptions options;
};

std::vector<Step> alternating_steps() {
  return {
      {"opt25", SsspOptions::opt(25)},
      {"del10", SsspOptions::del(10)},
      {"pull-only25", pull_only(25)},
      {"forced-pull25", forced_pull(25)},
      {"bellman-ford", SsspOptions::bellman_ford()},
      {"opt25+details", with_details(SsspOptions::opt(25))},
      {"lb-opt7", SsspOptions::lb_opt(7, 16)},
      {"delta-star25", SsspOptions::delta_star(25)},
      {"opt25-again", SsspOptions::opt(25)},
  };
}

// One session, many different solves: each equals a fresh Solver's.
TEST(RelaxWorkspace, SessionSolvesMatchFreshSolvers) {
  const CsrGraph g = test_graph(31, 9);
  const std::vector<vid_t> roots = sample_roots(g, 3, 31);
  for (const unsigned lanes : {1u, 2u}) {
    const SolverConfig config{
        .machine = {.num_ranks = 4, .lanes_per_rank = lanes}};
    Solver session(g, config);
    std::size_t i = 0;
    for (const Step& step : alternating_steps()) {
      const vid_t root = roots[i++ % roots.size()];
      const SsspOptions o = with_canonical_parents(step.options);
      const std::string what = std::string(step.name) + " lanes " +
                               std::to_string(lanes) + " root " +
                               std::to_string(root);
      const SsspResult got = session.solve(root, o);
      const TrafficCounters got_traffic = session.machine().traffic().merged();
      Solver fresh(g, config);
      const SsspResult want = fresh.solve(root, o);
      expect_same_result(got, want, what);
      expect_same_traffic(got_traffic, fresh.machine().traffic().merged(),
                          what);
      EXPECT_EQ(got.dist, dijkstra_distances(g, root)) << what;
    }
  }
}

EdgeBatch small_batch(const DynamicGraph& g, vid_t a, vid_t b) {
  EdgeBatch batch;
  if (!g.has_edge(a, b)) batch.insert_edge(a, b, 3);
  const std::vector<Arc> arcs = g.arcs_of(a);
  for (const Arc& arc : arcs) {
    if (arc.to != b && arc.to != a) {
      batch.delete_edge(a, arc.to);
      break;
    }
  }
  return batch;
}

// The same on a DynamicSolver session, with a seeded repair (the engine's
// preset/settled arrays come from the workspace too) between fresh solves.
TEST(RelaxWorkspace, DynamicSessionWithRepairMatchesFreshSolvers) {
  const CsrGraph g = strip_self_loops(test_graph(32, 9));
  const std::vector<vid_t> roots = sample_roots(g, 2, 32);
  const DynamicSolverConfig config{
      .machine = {.num_ranks = 3, .lanes_per_rank = 2}, .graph = {}};
  const SsspOptions opt = with_canonical_parents(SsspOptions::opt(25));
  const SsspOptions del = with_canonical_parents(SsspOptions::del(10));

  DynamicSolver session(g, config);
  const SsspResult prior = session.solve(roots[0], opt);
  (void)session.solve(roots[1], del);  // leaves other state behind
  const EdgeBatch batch = small_batch(session.graph(), roots[0], roots[1]);
  const AppliedBatch receipt = session.apply(batch);
  const SsspResult repaired =
      session.repair(roots[0], prior, {&receipt, 1}, opt);
  const SsspResult after = session.solve(roots[1], del);

  DynamicSolver fresh_repair(g, config);
  const AppliedBatch fresh_receipt = fresh_repair.apply(batch);
  const SsspResult want_repaired =
      fresh_repair.repair(roots[0], prior, {&fresh_receipt, 1}, opt);
  expect_same_result(repaired, want_repaired, "seeded repair");

  DynamicSolver fresh_solve(g, config);
  (void)fresh_solve.apply(batch);
  expect_same_result(after, fresh_solve.solve(roots[1], del),
                     "solve after repair");
  EXPECT_EQ(repaired.dist,
            dijkstra_distances(session.graph().materialize(), roots[0]));
}

/// Elements of capacity the engine's pools hold on every rank.
std::vector<std::size_t> retained_pool_capacity(MachineSession& session) {
  std::vector<std::size_t> cap(session.num_ranks(), 0);
  session.run([&](RankCtx& ctx) {
    DeltaWorkspace& ws = ctx.workspace<DeltaWorkspace>();
    cap[ctx.rank()] = ws.relax_pool.retained_capacity() +
                      ws.req_pool.retained_capacity();
  });
  return cap;
}

// After warm-up, repeated solves allocate no further pool capacity: the
// buffers circulate and the free lists are capped.
TEST(RelaxWorkspace, RetainedPoolCapacityStopsMovingAfterWarmUp) {
  const CsrGraph g = test_graph(33, 10);
  const std::vector<vid_t> roots = sample_roots(g, 2, 33);
  Solver solver(g, {.machine = {.num_ranks = 4, .lanes_per_rank = 1}});
  const SsspOptions o = SsspOptions::opt(25);
  for (int i = 0; i < 4; ++i) (void)solver.solve(roots[i % 2], o);
  const std::vector<std::size_t> warm = retained_pool_capacity(solver.machine());
  for (int i = 0; i < 20; ++i) (void)solver.solve(roots[i % 2], o);
  EXPECT_EQ(retained_pool_capacity(solver.machine()), warm);
  std::size_t total = 0;
  for (const std::size_t c : warm) total += c;
  EXPECT_GT(total, 0u);  // the pools did keep their buffers
}

struct PinnedTraffic {
  const char* name;
  SsspOptions options;
  std::array<std::uint64_t, 7> messages;  ///< per PhaseKind, 3 roots summed
  std::array<std::uint64_t, 7> bytes;
};

// Recorded on the compaction-pass design (each destination's stream
// reduced after emission) at RMAT-1 s10, edge factor 8, seed 21, 4 ranks,
// roots sample_roots(g, 3, 21). Order: short, long push, pull request,
// pull response, Bellman-Ford, control, async.
std::vector<PinnedTraffic> pinned_traffic(unsigned lanes) {
  if (lanes == 1) {
    return {
        {"opt25", SsspOptions::opt(25),
         {1888, 2041, 3774, 2008, 1689, 1908, 0},
         {45312, 48984, 90576, 48192, 40536, 36864, 0}},
        {"del25", SsspOptions::del(25),
         {3464, 13217, 0, 0, 0, 3288, 0},
         {83136, 317208, 0, 0, 0, 59424, 0}},
        {"pull-only25", pull_only(25),
         {1892, 0, 72043, 3754, 0, 3816, 0},
         {45408, 0, 1729032, 90096, 0, 76320, 0}},
        {"bellman-ford", SsspOptions::bellman_ford(),
         {0, 0, 0, 0, 37591, 888, 0},
         {0, 0, 0, 0, 902184, 16896, 0}},
        {"delta-star25", SsspOptions::delta_star(25),
         {22251, 0, 0, 0, 0, 3288, 0},
         {534024, 0, 0, 0, 0, 40224, 0}},
    };
  }
  // Two lanes: the lanes split each frontier's arcs, so the canonical
  // streams (lane ascending) differ from the one-lane ones.
  return {
      {"opt25", SsspOptions::opt(25),
       {1905, 2023, 3774, 2008, 1677, 1908, 0},
       {45720, 48552, 90576, 48192, 40248, 36864, 0}},
      {"del25", SsspOptions::del(25),
       {3478, 13194, 0, 0, 0, 3288, 0},
       {83472, 316656, 0, 0, 0, 59424, 0}},
      {"pull-only25", pull_only(25),
       {1909, 0, 72043, 3754, 0, 3816, 0},
       {45816, 0, 1729032, 90096, 0, 76320, 0}},
      {"bellman-ford", SsspOptions::bellman_ford(),
       {0, 0, 0, 0, 37282, 888, 0},
       {0, 0, 0, 0, 894768, 16896, 0}},
      {"delta-star25", SsspOptions::delta_star(25),
       {22251, 0, 0, 0, 0, 3288, 0},
       {534024, 0, 0, 0, 0, 40224, 0}},
  };
}

TEST(RelaxWorkspace, WireTrafficIsPinnedAtOneAndTwoLanes) {
  const CsrGraph g = test_graph(21, 10);
  const std::vector<vid_t> roots = sample_roots(g, 3, 21);
  for (const unsigned lanes : {1u, 2u}) {
    for (const PinnedTraffic& row : pinned_traffic(lanes)) {
      const std::string what =
          std::string(row.name) + " lanes " + std::to_string(lanes);
      Solver solver(g, {.machine = {.num_ranks = 4, .lanes_per_rank = lanes}});
      TrafficCounters sum;
      for (const vid_t root : roots) {
        const SsspResult r = solver.solve(root, row.options);
        EXPECT_EQ(r.dist, dijkstra_distances(g, root)) << what;
        sum += solver.machine().traffic().merged();
      }
      EXPECT_EQ(sum.messages, row.messages) << what;
      EXPECT_EQ(sum.bytes, row.bytes) << what;
    }
  }
}

}  // namespace
}  // namespace parsssp
