// The stepping-family engines (core/stepping_engine.hpp,
// docs/STEPPING.md). Contract under test: distances AND canonical parents
// bit-identical to the bucket-synchronous OPT engine across {rho, Delta*,
// radius} x step-parameter sweep x rank counts x data paths, repair-path
// interchangeability (a repaired result equals a fresh stepping solve),
// option validation, the solve_multi rejection, and the serve-layer
// routing of explicit stepping queries.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "graph/builders.hpp"
#include "graph/rmat.hpp"
#include "serve/query_engine.hpp"
#include "update/dynamic_solver.hpp"
#include "update/edge_batch.hpp"

namespace parsssp {
namespace {

CsrGraph rmat_graph() {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  cfg.seed = 3;
  return CsrGraph::from_edges(generate_rmat(cfg));
}

/// The step-parameter sweep: two points per family plus one off-default
/// queue granularity each for rho and radius.
std::vector<SsspOptions> stepping_sweep() {
  return {SsspOptions::rho_stepping(64),
          SsspOptions::rho_stepping(2048),
          SsspOptions::rho_stepping(2048, /*delta=*/4),
          SsspOptions::delta_star(4),
          SsspOptions::delta_star(25),
          SsspOptions::radius_stepping(1),
          SsspOptions::radius_stepping(4),
          SsspOptions::radius_stepping(4, /*delta=*/4)};
}

std::string config_name(const SsspOptions& o) {
  switch (o.algo) {
    case SsspAlgo::kRho:
      return "rho" + std::to_string(o.rho) + "-d" + std::to_string(o.delta);
    case SsspAlgo::kDeltaStar:
      return "dstar-d" + std::to_string(o.delta);
    case SsspAlgo::kRadius:
      return "radius-k" + std::to_string(o.radius_k) + "-d" +
             std::to_string(o.delta);
    default:
      return "other";
  }
}

// --- Bit-identity with the bucket-synchronous OPT engine ------------------

using Param = std::tuple<rank_t, unsigned /*lanes*/>;

class SteppingEngineProperty : public ::testing::TestWithParam<Param> {};

TEST_P(SteppingEngineProperty, DistancesAndParentsBitIdenticalToOpt) {
  const auto [ranks, lanes] = GetParam();
  const std::vector<CsrGraph> graphs = {rmat_graph(),
                                        CsrGraph::from_edges(make_grid(12))};
  for (const CsrGraph& g : graphs) {
    Solver solver(g,
                  {.machine = {.num_ranks = ranks, .lanes_per_rank = lanes}});
    for (const vid_t root : {vid_t{0}, vid_t{g.num_vertices() / 2}}) {
      SsspOptions sync = SsspOptions::opt(25);
      sync.track_parents = true;
      sync.canonical_parents = true;
      const SsspResult want = solver.solve(root, sync);
      EXPECT_TRUE(validate_against_dijkstra(g, root, want.dist).ok);

      for (SsspOptions options : stepping_sweep()) {
        options.track_parents = true;
        const SsspResult got = solver.solve(root, options);
        ASSERT_EQ(got.dist, want.dist)
            << config_name(options) << " ranks=" << ranks
            << " lanes=" << lanes << " root=" << root;
        // Stepping parents are always canonical, so bit-identical
        // distances force bit-identical trees.
        ASSERT_EQ(got.parent, want.parent) << config_name(options);
        EXPECT_GT(got.stats.stepping_relaxations, 0u);
        EXPECT_EQ(got.stats.stepping_relaxations,
                  got.stats.total_relaxations());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SteppingEngineProperty,
    ::testing::Combine(::testing::Values(rank_t{1}, rank_t{3}, rank_t{4},
                                         rank_t{8}),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<Param>& tpi) {
      return "ranks" + std::to_string(std::get<0>(tpi.param)) + "_lanes" +
             std::to_string(std::get<1>(tpi.param));
    });

// --- Structure and accounting ---------------------------------------------

TEST(SteppingEngine, RadiusTakesFewerStepsThanDeltaStarOnAGrid) {
  // On a long-diameter low-skew graph with heterogeneous weights the
  // radius rule's whole point is leaping past occupied buckets: strictly
  // fewer outer steps than the one-bucket-per-step Delta* rule at the
  // same granularity. (Unit weights would degenerate r(v) to 1 and the
  // leap to a single level — heterogeneity is what radius exploits.)
  const CsrGraph g = CsrGraph::from_edges(
      make_grid(16, [](vid_t a, vid_t b) {
        return static_cast<weight_t>(20 + (a * 31 + b * 17) % 50);
      }));
  Solver solver(g, {.machine = {.num_ranks = 2}});
  const SsspResult dstar = solver.solve(0, SsspOptions::delta_star(4));
  const SsspResult radius =
      solver.solve(0, SsspOptions::radius_stepping(4, 4));
  EXPECT_EQ(radius.dist, dstar.dist);
  EXPECT_LT(radius.stats.buckets, dstar.stats.buckets)
      << "radius=" << radius.stats.buckets
      << " dstar=" << dstar.stats.buckets;
}

TEST(SteppingEngine, RhoCoversMoreBucketsPerStepThanDeltaStar) {
  const CsrGraph g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 4}});
  const SsspResult dstar = solver.solve(0, SsspOptions::delta_star(4));
  const SsspResult rho = solver.solve(0, SsspOptions::rho_stepping(4096, 4));
  EXPECT_EQ(rho.dist, dstar.dist);
  EXPECT_LE(rho.stats.buckets, dstar.stats.buckets);
  EXPECT_GT(rho.stats.phases, 0u);
  EXPECT_GE(rho.stats.phases, rho.stats.buckets);  // >= one round per step
}

TEST(SteppingEngine, StatsArePopulatedAndRankIdentical) {
  const CsrGraph g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 3}});
  const SsspResult r = solver.solve(7, SsspOptions::rho_stepping(512));
  EXPECT_GT(r.stats.stepping_relaxations, 0u);
  EXPECT_GT(r.stats.buckets, 0u);
  EXPECT_GT(r.stats.phases, 0u);
  EXPECT_GT(r.stats.sync_allreduces, 0u);
  EXPECT_GT(r.stats.model_time_s, 0.0);
  EXPECT_GT(r.stats.model_bucket_time_s, 0.0);
  // Determinism of the collective frame: a repeat run agrees exactly.
  const SsspResult r2 = solver.solve(7, SsspOptions::rho_stepping(512));
  EXPECT_EQ(r.dist, r2.dist);
  EXPECT_EQ(r.stats.buckets, r2.stats.buckets);
  EXPECT_EQ(r.stats.phases, r2.stats.phases);
  EXPECT_EQ(r.stats.model_time_s, r2.stats.model_time_s);
}

// --- Validation and rejection ---------------------------------------------

TEST(SteppingEngine, RejectsZeroStepParameters) {
  const CsrGraph g = CsrGraph::from_edges(make_path(8));
  Solver solver(g, {.machine = {.num_ranks = 2}});
  SsspOptions rho = SsspOptions::rho_stepping(1);
  rho.rho = 0;
  EXPECT_THROW(solver.solve(0, rho), std::invalid_argument);
  SsspOptions rad = SsspOptions::radius_stepping(1);
  rad.radius_k = 0;
  EXPECT_THROW(solver.solve(0, rad), std::invalid_argument);
}

TEST(SteppingEngine, SolveMultiRejectsSteppingAlgos) {
  const CsrGraph g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 2}});
  const std::vector<vid_t> roots = {0, 1};
  for (const SsspOptions& o :
       {SsspOptions::rho_stepping(256), SsspOptions::delta_star(25),
        SsspOptions::radius_stepping(2)}) {
    EXPECT_THROW(solver.solve_multi(roots, o), std::invalid_argument);
  }
}

// --- Repair-path interchangeability ---------------------------------------

TEST(SteppingEngine, RepairedResultMatchesFreshSteppingSolve) {
  // The repair engine runs its own seeded sweep, but its contract is
  // engine-independent: exact distances + canonical parents. So a repaired
  // result must equal a fresh stepping solve of the mutated graph, bit for
  // bit — the interchangeability that lets a tuner-routed serving tier sit
  // on top of a dynamic graph.
  CsrGraph base = strip_self_loops(rmat_graph());
  DynamicSolver dyn(base, {.machine = {.num_ranks = 3}});
  SsspOptions options = SsspOptions::rho_stepping(512);
  options.track_parents = true;

  const vid_t root = 5;
  const SsspResult prior = dyn.solve(root, options);

  std::mt19937_64 rng(42);
  EdgeBatch batch;
  std::uniform_int_distribution<vid_t> pick(0, dyn.graph().num_vertices() - 1);
  while (batch.size() < 12) {
    vid_t u = pick(rng), v = pick(rng);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (dyn.graph().has_edge(u, v)) {
      batch.update_weight(u, v, static_cast<weight_t>(1 + rng() % 64));
    } else {
      batch.insert_edge(u, v, static_cast<weight_t>(1 + rng() % 64));
    }
  }
  const AppliedBatch applied = dyn.apply(batch);

  const std::vector<AppliedBatch> receipts = {applied};
  const SsspResult repaired = dyn.repair(root, prior, receipts, options);

  // Fresh stepping solve of the mutated graph, via the Solver front end.
  Solver fresh(dyn.graph().base(), {.machine = {.num_ranks = 3}});
  const SsspResult want = fresh.solve(root, options);
  EXPECT_EQ(repaired.dist, want.dist);
  EXPECT_EQ(repaired.parent, want.parent);
}

// --- Serve-layer routing ---------------------------------------------------

TEST(SteppingEngine, ExplicitSteppingQueriesServeBitIdenticalAnswers) {
  const CsrGraph g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 3}});
  ServeConfig config;
  config.machine.num_ranks = 3;
  QueryEngine engine(g, config);

  for (const SsspOptions& options :
       {SsspOptions::rho_stepping(512), SsspOptions::delta_star(25),
        SsspOptions::radius_stepping(2)}) {
    const QueryResult first = engine.query(17, options);
    ASSERT_NE(first.answer, nullptr);
    EXPECT_FALSE(first.from_cache);
    EXPECT_EQ(first.answer->dist, solver.solve(17, options).dist);
    EXPECT_GT(first.answer->stats.stepping_relaxations, 0u);
    // The options signature includes algo + step parameters, so each
    // stepping answer is its own cache entry — and a hit the second time.
    EXPECT_TRUE(engine.query(17, options).from_cache);
  }
}

TEST(SteppingEngine, SubmitValidatesStepParameters) {
  const CsrGraph g = CsrGraph::from_edges(make_path(8));
  ServeConfig config;
  config.machine.num_ranks = 2;
  QueryEngine engine(g, config);
  SsspOptions rho = SsspOptions::rho_stepping(1);
  rho.rho = 0;
  EXPECT_THROW(engine.submit(0, rho), std::invalid_argument);
  SsspOptions rad = SsspOptions::radius_stepping(1);
  rad.radius_k = 0;
  EXPECT_THROW(engine.submit(0, rad), std::invalid_argument);
}

}  // namespace
}  // namespace parsssp
