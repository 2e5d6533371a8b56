// Incremental repair vs fresh solve: the bit-identity contract, fuzzed
// over random insert/delete/reweight batches, algorithm variants, bucket
// widths, rank counts, lane counts and mode toggles,
// plus targeted disconnect/reconnect and error-path cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph_algos.hpp"
#include "graph/rmat.hpp"
#include "seq/dijkstra.hpp"
#include "update/dynamic_solver.hpp"

namespace parsssp {
namespace {

CsrGraph test_graph(std::uint64_t seed, int scale = 8) {
  RmatConfig cfg;
  cfg.scale = scale;
  cfg.edge_factor = 8;
  cfg.seed = seed;
  return strip_self_loops(CsrGraph::from_edges(generate_rmat(cfg)));
}

/// Random valid batch: ops never touch the same pair twice, so apply()
/// always succeeds (validity of each op against the live graph is part of
/// what DynamicGraph tests cover; here the subject is repair).
EdgeBatch random_batch(const DynamicGraph& g, std::mt19937_64& rng,
                       std::size_t ops) {
  EdgeBatch batch;
  std::set<std::pair<vid_t, vid_t>> used;
  std::uniform_int_distribution<vid_t> pick(0, g.num_vertices() - 1);
  while (batch.size() < ops) {
    const auto roll = rng() % 4;
    if (roll == 0) {
      vid_t u = pick(rng), v = pick(rng);
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (g.has_edge(u, v) || !used.insert({u, v}).second) continue;
      batch.insert_edge(u, v, static_cast<weight_t>(1 + rng() % 255));
    } else {
      const vid_t u = pick(rng);
      const std::vector<Arc> arcs = g.arcs_of(u);
      if (arcs.empty()) continue;
      const vid_t v = arcs[rng() % arcs.size()].to;
      if (!used.insert(std::minmax(u, v)).second) continue;
      if (roll == 1) {
        batch.delete_edge(u, v);
      } else {
        batch.update_weight(u, v, static_cast<weight_t>(1 + rng() % 255));
      }
    }
  }
  return batch;
}

void expect_identical(const SsspResult& got, const SsspResult& want,
                      const char* what) {
  ASSERT_EQ(got.dist, want.dist) << what << ": distances diverge";
  ASSERT_EQ(got.parent, want.parent) << what << ": parents diverge";
}

/// Repaired result == DynamicSolver fresh solve == static Solver on the
/// materialized graph (an independent code path from the dynamic views).
void check_round(DynamicSolver& solver, vid_t root, const SsspResult& repaired,
                 const SsspOptions& options, rank_t ranks, const char* what) {
  const SsspResult fresh = solver.solve(root, options);
  expect_identical(repaired, fresh, what);

  const CsrGraph materialized = solver.graph().materialize();
  Solver oracle(materialized, {.machine = {.num_ranks = ranks}});
  SsspOptions canon = options;
  canon.canonical_parents = true;
  expect_identical(repaired, oracle.solve(root, canon), what);
}

enum class Algo { kBellmanFord, kDel25, kPrune25, kOpt25 };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kBellmanFord: return "BellmanFord";
    case Algo::kDel25: return "Del25";
    case Algo::kPrune25: return "Prune25";
    case Algo::kOpt25: return "Opt25";
  }
  return "?";
}

SsspOptions algo_options(Algo a) {
  switch (a) {
    case Algo::kBellmanFord: return SsspOptions::bellman_ford();
    case Algo::kDel25: return SsspOptions::del(25);
    case Algo::kPrune25: return SsspOptions::prune(25);
    case Algo::kOpt25: return SsspOptions::opt(25);
  }
  return {};
}

using Param = std::tuple<std::uint64_t /*seed*/, Algo, rank_t>;

class RepairFuzz : public ::testing::TestWithParam<Param> {};

// The headline fuzz: chained random batches, each repaired from the
// previous round's (repaired) result and checked against two fresh-solve
// oracles. Chaining matters — it feeds repair output back in as the prior,
// so a single non-canonical parent or off-by-one distance compounds.
TEST_P(RepairFuzz, RepairedEqualsFreshSolveBitForBit) {
  const auto [seed, algo, ranks] = GetParam();
  DynamicSolver solver(test_graph(seed), {.machine = {.num_ranks = ranks}});
  SsspOptions options = algo_options(algo);
  options.track_parents = true;

  std::mt19937_64 rng(seed * 977 + 1);
  const vid_t root = 1;
  SsspResult prior = solver.solve(root, options);
  for (int round = 0; round < 4; ++round) {
    const AppliedBatch applied =
        solver.apply(random_batch(solver.graph(), rng, 6));
    const std::span<const AppliedBatch> batches(&applied, 1);
    const SsspResult repaired = solver.repair(root, prior, batches, options);
    check_round(solver, root, repaired, options, ranks, algo_name(algo));
    prior = repaired;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RepairFuzz,
    ::testing::Combine(::testing::Values(61ULL, 62ULL),
                       ::testing::Values(Algo::kBellmanFord, Algo::kDel25,
                                         Algo::kPrune25, Algo::kOpt25),
                       ::testing::Values(rank_t{1}, rank_t{3}, rank_t{4})),
    [](const ::testing::TestParamInfo<Param>& tpi) {
      return "seed" + std::to_string(std::get<0>(tpi.param)) + "_" +
             algo_name(std::get<1>(tpi.param)) + "_ranks" +
             std::to_string(std::get<2>(tpi.param));
    });

// Bucket widths stress phase mixes (including pull phases under prune).
class RepairDeltaSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RepairDeltaSweep, BitIdenticalAcrossDeltas) {
  const std::uint32_t delta = GetParam();
  DynamicSolver solver(test_graph(71), {.machine = {.num_ranks = 4}});
  std::mt19937_64 rng(delta);
  for (SsspOptions options :
       {SsspOptions::prune(delta), SsspOptions::opt(delta)}) {
    options.track_parents = true;
    SsspResult prior = solver.solve(0, options);
    const AppliedBatch applied =
        solver.apply(random_batch(solver.graph(), rng, 6));
    const std::span<const AppliedBatch> batches(&applied, 1);
    const SsspResult repaired = solver.repair(0, prior, batches, options);
    check_round(solver, 0, repaired, options, 4, "delta sweep");
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, RepairDeltaSweep,
                         ::testing::Values(1u, 5u, 25u, 256u, 10000u));

// Lane counts and mode toggles: the repair sweep rides the same engine as
// a fresh solve (serial apply at one lane, lane-parallel apply at two), so
// every toggle must stay result-inert here too.
TEST(RepairToggles, LanesAndForcedPullMatch) {
  std::mt19937_64 rng(81);
  std::vector<SsspOptions> variants;
  {
    variants.push_back(SsspOptions::opt(25));

    SsspOptions forced = SsspOptions::prune(25);
    forced.prune_mode = PruneMode::kForcedSequence;
    forced.forced_pull.assign(64, true);
    variants.push_back(forced);
  }
  for (const unsigned lanes : {1u, 2u}) {
    for (SsspOptions options : variants) {
      options.track_parents = true;
      DynamicSolver solver(
          test_graph(83),
          {.machine = {.num_ranks = 3, .lanes_per_rank = lanes}, .graph = {}});
      SsspResult prior = solver.solve(2, options);
      const AppliedBatch applied =
          solver.apply(random_batch(solver.graph(), rng, 8));
      const std::span<const AppliedBatch> batches(&applied, 1);
      const SsspResult repaired = solver.repair(2, prior, batches, options);
      check_round(solver, 2, repaired, options, 3, "toggles");
    }
  }
}

// One repair may cover several applied batches, passed as the receipts in
// order — including receipts that partially undo each other.
TEST(RepairMultiBatch, SingleRepairOverSeveralReceipts) {
  DynamicSolver solver(test_graph(91), {.machine = {.num_ranks = 4}});
  SsspOptions options = SsspOptions::del(25);
  options.track_parents = true;
  std::mt19937_64 rng(92);

  SsspResult prior = solver.solve(0, options);
  std::vector<AppliedBatch> receipts;
  for (int i = 0; i < 3; ++i) {
    receipts.push_back(solver.apply(random_batch(solver.graph(), rng, 5)));
  }
  const SsspResult repaired = solver.repair(0, prior, receipts, options);
  check_round(solver, 0, repaired, options, 4, "multi batch");
}

// Disconnect and reconnect: deletions can push vertices to infinity (the
// repaired result must agree there is no path), and a later insert must
// bring them back at the right distance.
TEST(RepairTargeted, DisconnectThenReconnect) {
  EdgeList edges(5);
  edges.add_edge(0, 1, 1);
  edges.add_edge(1, 2, 1);
  edges.add_edge(2, 3, 1);
  edges.add_edge(3, 4, 1);
  edges.canonicalize();
  DynamicSolver solver(CsrGraph::from_edges(edges),
                       {.machine = {.num_ranks = 2}});
  SsspOptions options = SsspOptions::del(2);
  options.track_parents = true;

  SsspResult prior = solver.solve(0, options);
  ASSERT_EQ(prior.dist[4], 4u);

  const AppliedBatch cut = solver.apply(EdgeBatch{}.delete_edge(2, 3));
  const std::span<const AppliedBatch> cut_span(&cut, 1);
  SsspResult repaired = solver.repair(0, prior, cut_span, options);
  EXPECT_EQ(repaired.dist[3], kInfDist);
  EXPECT_EQ(repaired.dist[4], kInfDist);
  EXPECT_EQ(repaired.parent[4], kInvalidVid);
  check_round(solver, 0, repaired, options, 2, "disconnect");
  prior = std::move(repaired);

  const AppliedBatch link = solver.apply(EdgeBatch{}.insert_edge(0, 4, 2));
  const std::span<const AppliedBatch> link_span(&link, 1);
  repaired = solver.repair(0, prior, link_span, options);
  EXPECT_EQ(repaired.dist[4], 2u);
  EXPECT_EQ(repaired.dist[3], 3u);  // re-reached through the new edge
  check_round(solver, 0, repaired, options, 2, "reconnect");
}

// A batch that cannot affect the tree (non-tree edge deleted, weight
// increase off-tree) must still repair to exactly the fresh answer — the
// planner's no-seed early-out path.
TEST(RepairTargeted, NoOpBatchStillMatches) {
  EdgeList edges(4);
  edges.add_edge(0, 1, 1);
  edges.add_edge(0, 2, 1);
  edges.add_edge(1, 2, 10);  // never on a shortest path
  edges.add_edge(2, 3, 1);
  edges.canonicalize();
  DynamicSolver solver(CsrGraph::from_edges(edges),
                       {.machine = {.num_ranks = 2}});
  SsspOptions options = SsspOptions::del(4);
  options.track_parents = true;
  const SsspResult prior = solver.solve(0, options);

  const AppliedBatch applied = solver.apply(EdgeBatch{}.delete_edge(1, 2));
  const std::span<const AppliedBatch> batches(&applied, 1);
  const SsspResult repaired = solver.repair(0, prior, batches, options);
  EXPECT_FALSE(solver.last_repair_stats().swept);  // planner-only repair
  check_round(solver, 0, repaired, options, 2, "no-op batch");
}

// A fresh DynamicSolver::solve runs the engine options.algo names, exactly
// like Solver::solve: one rank makes even the asynchronous engine's
// speculative work count deterministic, so the stats must agree.
TEST(DynamicSolve, HonorsTheRequestedEngine) {
  const CsrGraph g = test_graph(95, /*scale=*/10);
  DynamicSolver dynamic(g, {.machine = {.num_ranks = 1}, .graph = {}});
  Solver fixed(g, {.machine = {.num_ranks = 1}});
  SsspOptions options = SsspOptions::async_opt(25);
  options.track_parents = true;
  const vid_t root = sample_roots(g, 1, 95).at(0);
  const SsspResult got = dynamic.solve(root, options);
  const SsspResult want = fixed.solve(root, options);
  EXPECT_EQ(got.dist, dijkstra_distances(g, root));
  EXPECT_GT(got.stats.async_relaxations, 0u);
  EXPECT_EQ(got.stats.async_relaxations, want.stats.async_relaxations);
  EXPECT_EQ(got.stats.global_syncs(), want.stats.global_syncs());
  EXPECT_EQ(got.parent, want.parent);  // both canonical
}

TEST(RepairErrors, RequiresParentsAndAWellFormedPrior) {
  DynamicSolver solver(test_graph(97), {.machine = {.num_ranks = 2}});
  SsspOptions options = SsspOptions::del(25);
  options.track_parents = true;
  const SsspResult prior = solver.solve(0, options);
  const AppliedBatch applied = solver.apply(EdgeBatch{}.insert_edge(0, 3, 9));
  const std::span<const AppliedBatch> batches(&applied, 1);

  SsspOptions no_parents = options;
  no_parents.track_parents = false;
  EXPECT_THROW(solver.repair(0, prior, batches, no_parents),
               std::invalid_argument);

  SsspResult truncated = prior;
  truncated.parent.pop_back();
  EXPECT_THROW(solver.repair(0, truncated, batches, options),
               std::invalid_argument);

  // Prior rooted elsewhere: rejected by the planner's root check.
  EXPECT_THROW(solver.repair(1, prior, batches, options),
               std::invalid_argument);

  EXPECT_THROW(
      solver.solve(solver.graph().num_vertices(), options),
      std::out_of_range);

  // Malformed option sets are rejected before any view is built.
  SsspOptions zero_delta = options;
  zero_delta.delta = 0;
  EXPECT_THROW(solver.solve(0, zero_delta), std::invalid_argument);
  EXPECT_THROW(solver.repair(0, prior, batches, zero_delta),
               std::invalid_argument);
  SsspOptions zero_rho = SsspOptions::rho_stepping(0);
  zero_rho.track_parents = true;
  EXPECT_THROW(solver.solve(0, zero_rho), std::invalid_argument);
  EXPECT_THROW(solver.repair(0, prior, batches, zero_rho),
               std::invalid_argument);
  SsspOptions zero_radius = SsspOptions::radius_stepping(0);
  zero_radius.track_parents = true;
  EXPECT_THROW(solver.solve(0, zero_radius), std::invalid_argument);
  EXPECT_THROW(solver.repair(0, prior, batches, zero_radius),
               std::invalid_argument);
}

}  // namespace
}  // namespace parsssp
