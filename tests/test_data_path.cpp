// Property suite for the relax data path (pooled send buffers, zero-copy
// segment exchange, sender-side reduction, serial apply at one lane and
// lane-parallel apply at more): under every algorithm variant, bucket
// width, rank count and lane count, the engines' distances equal the
// sequential Dijkstra oracle, their canonical parents equal the canonical
// tree of the oracle's distances, and their raw parents form a valid
// shortest-path tree — including the batched multi-root engine and BFS.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/bfs_engine.hpp"
#include "core/parent_canon.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph_algos.hpp"
#include "graph/rmat.hpp"
#include "seq/dijkstra.hpp"

namespace parsssp {
namespace {

enum class Algo {
  kDijkstra,
  kBellmanFord,
  kDel25,
  kPrune25,
  kOpt25,
  kLbOpt25
};

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kDijkstra:
      return "Dijkstra";
    case Algo::kBellmanFord:
      return "BellmanFord";
    case Algo::kDel25:
      return "Del25";
    case Algo::kPrune25:
      return "Prune25";
    case Algo::kOpt25:
      return "Opt25";
    case Algo::kLbOpt25:
      return "LbOpt25";
  }
  return "?";
}

SsspOptions algo_options(Algo a) {
  switch (a) {
    case Algo::kDijkstra:
      return SsspOptions::dijkstra();
    case Algo::kBellmanFord:
      return SsspOptions::bellman_ford();
    case Algo::kDel25:
      return SsspOptions::del(25);
    case Algo::kPrune25:
      return SsspOptions::prune(25);
    case Algo::kOpt25:
      return SsspOptions::opt(25);
    case Algo::kLbOpt25:
      return SsspOptions::lb_opt(25, 16);
  }
  return {};
}

const Algo kAllAlgos[] = {Algo::kDijkstra, Algo::kBellmanFord, Algo::kDel25,
                          Algo::kPrune25,  Algo::kOpt25,       Algo::kLbOpt25};

CsrGraph test_graph(std::uint64_t seed, int scale = 8) {
  RmatConfig cfg;
  cfg.scale = scale;
  cfg.edge_factor = 8;
  cfg.seed = seed;
  return CsrGraph::from_edges(generate_rmat(cfg));
}

/// Solves `root` twice, with raw and with canonical parents, and checks
/// both against the oracle: dist == seq::dijkstra, raw parents form a
/// valid shortest-path tree, canonical parents equal the canonical tree of
/// the oracle's distances. Returns the raw-parent result.
SsspResult expect_matches_oracle(Solver& solver, const CsrGraph& g,
                                 vid_t root, SsspOptions options,
                                 const std::string& what) {
  const std::vector<dist_t> oracle = dijkstra_distances(g, root);
  options.track_parents = true;
  options.canonical_parents = false;
  SsspResult raw = solver.solve(root, options);
  EXPECT_EQ(raw.dist, oracle) << what << ": distances diverge from Dijkstra";
  const ValidationReport tree =
      check_parent_tree(g, root, raw.dist, raw.parent);
  EXPECT_TRUE(tree.ok) << what << ": raw parents: " << tree.message;

  options.canonical_parents = true;
  const SsspResult canon = solver.solve(root, options);
  std::vector<vid_t> want(g.num_vertices());
  canonicalize_parents(g, root, oracle, want);
  EXPECT_EQ(canon.dist, oracle) << what << ": canonical run distances";
  EXPECT_EQ(canon.parent, want) << what << ": canonical parents diverge";
  return raw;
}

using Param = std::tuple<std::uint64_t /*seed*/, Algo, rank_t, unsigned>;

class RelaxPathProperty : public ::testing::TestWithParam<Param> {};

// The headline property, with parent tracking on (raw parents are the
// sharpest detector of message-order bugs) at one lane (serial apply) and
// two lanes (the lane-parallel apply actually partitions).
TEST_P(RelaxPathProperty, MatchesSequentialOracle) {
  const auto [seed, algo, ranks, lanes] = GetParam();
  const auto g = test_graph(seed);
  Solver solver(g,
                {.machine = {.num_ranks = ranks, .lanes_per_rank = lanes}});
  for (const vid_t root : sample_roots(g, 2, seed)) {
    expect_matches_oracle(solver, g, root, algo_options(algo),
                          algo_name(algo));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RelaxPathProperty,
    ::testing::Combine(::testing::Values(11ULL, 12ULL),
                       ::testing::ValuesIn(kAllAlgos),
                       ::testing::Values(rank_t{1}, rank_t{3}, rank_t{4}),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<Param>& tpi) {
      return "seed" + std::to_string(std::get<0>(tpi.param)) + "_" +
             algo_name(std::get<1>(tpi.param)) + "_ranks" +
             std::to_string(std::get<2>(tpi.param)) + "_lanes" +
             std::to_string(std::get<3>(tpi.param));
    });

// Bucket widths stress different phase mixes (many short phases at small
// Delta, long-phase dominated at large Delta, pull phases under prune).
class RelaxPathDeltaSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RelaxPathDeltaSweep, MatchesSequentialOracleAcrossDeltas) {
  const std::uint32_t delta = GetParam();
  const auto g = test_graph(21);
  Solver solver(g, {.machine = {.num_ranks = 4, .lanes_per_rank = 2}});
  for (const SsspOptions& base :
       {SsspOptions::prune(delta), SsspOptions::opt(delta)}) {
    expect_matches_oracle(solver, g, 0, base, "delta sweep");
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, RelaxPathDeltaSweep,
                         ::testing::Values(1u, 5u, 25u, 256u, 10000u));

// Serial apply (one lane) and lane-parallel apply (two lanes) must agree
// on the algorithmic work accounting: relax counters count emissions
// before sender-side reduction, so neither the apply mode nor what the
// reducer dropped may change them, phase by phase.
TEST(RelaxPathLanes, SerialAndParallelApplyAgreeOnCounters) {
  const auto g = test_graph(31);
  Solver serial(g, {.machine = {.num_ranks = 3, .lanes_per_rank = 1}});
  Solver parallel(g, {.machine = {.num_ranks = 3, .lanes_per_rank = 2}});
  for (const Algo algo : kAllAlgos) {
    SsspOptions o = algo_options(algo);
    o.collect_phase_details = true;
    const SsspResult a = serial.solve(5, o);
    const SsspResult b = parallel.solve(5, o);
    const SsspStats& sa = a.stats;
    const SsspStats& sb = b.stats;
    EXPECT_EQ(a.dist, b.dist) << algo_name(algo);
    EXPECT_EQ(sa.short_relaxations, sb.short_relaxations) << algo_name(algo);
    EXPECT_EQ(sa.long_push_relaxations, sb.long_push_relaxations)
        << algo_name(algo);
    EXPECT_EQ(sa.pull_requests, sb.pull_requests) << algo_name(algo);
    EXPECT_EQ(sa.pull_responses, sb.pull_responses) << algo_name(algo);
    EXPECT_EQ(sa.bf_relaxations, sb.bf_relaxations) << algo_name(algo);
    EXPECT_EQ(sa.phases, sb.phases) << algo_name(algo);
    EXPECT_EQ(sa.buckets, sb.buckets) << algo_name(algo);
    EXPECT_GT(sa.total_relaxations(), 0u) << algo_name(algo);
    ASSERT_EQ(sa.phase_details.size(), sb.phase_details.size())
        << algo_name(algo);
    for (std::size_t i = 0; i < sa.phase_details.size(); ++i) {
      EXPECT_EQ(sa.phase_details[i].bucket, sb.phase_details[i].bucket);
      EXPECT_EQ(sa.phase_details[i].kind, sb.phase_details[i].kind);
      EXPECT_EQ(sa.phase_details[i].relaxations,
                sb.phase_details[i].relaxations)
          << algo_name(algo) << " phase " << i;
    }
  }
}

// Forced pull sequences route everything through the request/response path;
// diagnostics collection disables long-push reduction (Fig 7 counts every
// emitted relaxation receiver-side) — both must still match the oracle.
TEST(RelaxPathModes, ForcedPullAndDiagnosticsMatchOracle) {
  const auto g = test_graph(37);
  for (const unsigned lanes : {1u, 2u}) {
    Solver solver(g, {.machine = {.num_ranks = 4, .lanes_per_rank = lanes}});
    SsspOptions forced = SsspOptions::prune(25);
    forced.prune_mode = PruneMode::kForcedSequence;
    forced.forced_pull.assign(64, true);
    const SsspResult pulled =
        expect_matches_oracle(solver, g, 2, forced, "forced pull");
    EXPECT_GT(pulled.stats.pull_requests, 0u);

    SsspOptions diag = SsspOptions::opt(25);
    diag.collect_phase_details = true;
    diag.collect_bucket_details = true;
    const SsspResult r = expect_matches_oracle(solver, g, 2, diag, "diag");
    EXPECT_FALSE(r.stats.phase_details.empty());
    EXPECT_FALSE(r.stats.bucket_details.empty());
  }
}

// The batched multi-root engine rides the same pooled path; every root's
// distance vector must match the oracle.
TEST(RelaxPathMultiRoot, SolveMultiMatchesOracle) {
  const auto g = test_graph(41);
  const std::vector<vid_t> roots = {0, 7, 7, 19, 3};
  for (const unsigned lanes : {1u, 2u}) {
    Solver solver(g, {.machine = {.num_ranks = 3, .lanes_per_rank = lanes}});
    const auto got = solver.solve_multi(roots, SsspOptions::opt(25));
    ASSERT_EQ(got.dist.size(), roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      EXPECT_EQ(got.dist[i], dijkstra_distances(g, roots[i]))
          << "root index " << i << " lanes=" << lanes;
    }
  }
}

// BFS: levels equal the sequential BFS and every parent is a neighbour one
// level up, with and without direction optimization (bottom-up steps
// exchange bitmaps through the pool too).
TEST(RelaxPathBfs, LevelsAndParentsMatchOracle) {
  const auto g = test_graph(47);
  const vid_t root = 1;
  const std::vector<dist_t> oracle = bfs_levels(g, root);
  BfsSolver bfs(g, {.num_ranks = 4});
  for (const bool dirs : {true, false}) {
    BfsOptions o;
    o.direction_optimize = dirs;
    o.track_parents = true;
    const auto got = bfs.solve(root, o);
    EXPECT_EQ(got.level, oracle) << "direction_optimize=" << dirs;
    ASSERT_EQ(got.parent.size(), g.num_vertices());
    EXPECT_EQ(got.parent[root], root);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (v == root) continue;
      const vid_t p = got.parent[v];
      if (oracle[v] == kInfDist) {
        EXPECT_EQ(p, kInvalidVid) << "v=" << v;
        continue;
      }
      ASSERT_LT(p, g.num_vertices()) << "v=" << v;
      EXPECT_EQ(oracle[p] + 1, oracle[v]) << "v=" << v;
      const auto arcs = g.neighbors(v);
      EXPECT_TRUE(std::any_of(arcs.begin(), arcs.end(),
                              [p](const Arc& a) { return a.to == p; }))
          << "parent of " << v << " is not a neighbour";
    }
  }
}

// Sender-side reduction must actually shrink the wire. On a complete
// bipartite graph split across two ranks every relaxation crosses the
// wire, so without reduction the relax messages on the wire would equal
// the relaxations; one side's frontier relaxes every vertex of the other
// side many times over in one phase, so the reduced stream is smaller.
TEST(RelaxPathTraffic, WireMessagesFewerThanRelaxations) {
  constexpr vid_t kSide = 24;
  EdgeList edges(2 * kSide);
  for (vid_t u = 0; u < kSide; ++u) {
    for (vid_t v = kSide; v < 2 * kSide; ++v) edges.add_edge(u, v, 10);
  }
  const CsrGraph g = CsrGraph::from_edges(edges);
  Solver solver(g, {.machine = {.num_ranks = 2}});
  for (const SsspOptions& o :
       {SsspOptions::del(25), SsspOptions::bellman_ford()}) {
    const SsspResult r = solver.solve(0, o);
    EXPECT_EQ(r.dist, dijkstra_distances(g, 0));
    const TrafficCounters t = solver.machine().traffic().merged();
    auto wire = [&t](PhaseKind k) {
      return t.messages[static_cast<std::size_t>(k)];
    };
    const std::uint64_t wire_relax = wire(PhaseKind::kShortPhase) +
                                     wire(PhaseKind::kLongPush) +
                                     wire(PhaseKind::kBellmanFord);
    const std::uint64_t relaxations = r.stats.short_relaxations +
                                      r.stats.long_push_relaxations +
                                      r.stats.bf_relaxations;
    EXPECT_GT(wire_relax, 0u);
    EXPECT_LT(wire_relax, relaxations);
  }
}

}  // namespace
}  // namespace parsssp
