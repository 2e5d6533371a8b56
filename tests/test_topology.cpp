#include "runtime/topology.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/solver.hpp"
#include "graph/graph_algos.hpp"
#include "graph/rmat.hpp"

namespace parsssp {
namespace {

TEST(Torus, RingDistances) {
  const TorusTopology ring({8});
  EXPECT_EQ(ring.hops(0, 1), 1u);
  EXPECT_EQ(ring.hops(0, 4), 4u);
  EXPECT_EQ(ring.hops(0, 7), 1u);  // wraparound
  EXPECT_EQ(ring.diameter(), 4u);
}

TEST(Torus, TwoDGrid) {
  const TorusTopology torus({4, 4});
  EXPECT_EQ(torus.capacity(), 16u);
  EXPECT_EQ(torus.hops(0, 5), 2u);   // (0,0)->(1,1)
  EXPECT_EQ(torus.hops(0, 15), 2u);  // (0,0)->(3,3) wraps both dims
  EXPECT_EQ(torus.diameter(), 4u);
}

TEST(Torus, CoordinatesRoundTrip) {
  const TorusTopology torus({2, 3, 4});
  for (rank_t r = 0; r < torus.capacity(); ++r) {
    const auto c = torus.coordinates(r);
    ASSERT_EQ(c.size(), 3u);
    const rank_t back = (c[0] * 3 + c[1]) * 4 + c[2];
    EXPECT_EQ(back, r);
  }
}

TEST(Torus, SymmetryAndIdentity) {
  const TorusTopology torus({3, 5});
  for (rank_t a = 0; a < torus.capacity(); ++a) {
    EXPECT_EQ(torus.hops(a, a), 0u);
    for (rank_t b = 0; b < torus.capacity(); ++b) {
      EXPECT_EQ(torus.hops(a, b), torus.hops(b, a));
    }
  }
}

TEST(Torus, BalancedCoversRanks) {
  for (const rank_t ranks : {1u, 7u, 16u, 33u}) {
    const auto torus = TorusTopology::balanced(ranks, 3);
    EXPECT_GE(torus.capacity(), ranks);
  }
}

TEST(Torus, MeanHopsPositive) {
  const auto torus = TorusTopology::balanced(32, 3);
  EXPECT_GT(torus.mean_hops(), 0.0);
  EXPECT_LE(torus.mean_hops(), torus.diameter());
}

TEST(Torus, RejectsBadDims) {
  EXPECT_THROW(TorusTopology({}), std::invalid_argument);
  EXPECT_THROW(TorusTopology({4, 0}), std::invalid_argument);
}

TEST(Torus, WeightedVolume) {
  const TorusTopology ring({4});
  // 10 messages 0->1 (1 hop), 5 messages 0->2 (2 hops).
  std::vector<std::uint64_t> matrix(16, 0);
  matrix[0 * 4 + 1] = 10;
  matrix[0 * 4 + 2] = 5;
  EXPECT_DOUBLE_EQ(ring.weighted_volume(matrix, 4), 10.0 + 10.0);
}

TEST(PairTraffic, RecordedWhenEnabled) {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  const auto g = CsrGraph::from_edges(generate_rmat(cfg));
  Solver solver(g, {.machine = {.num_ranks = 4, .lanes_per_rank = 1,
                                .record_pair_traffic = true}});
  const vid_t root = sample_roots(g, 1, 1).at(0);
  solver.solve(root, SsspOptions::del(25));
  const auto& matrix = solver.machine().pair_messages();
  ASSERT_EQ(matrix.size(), 16u);
  std::uint64_t total = 0;
  std::uint64_t diagonal = 0;
  for (rank_t s = 0; s < 4; ++s) {
    for (rank_t d = 0; d < 4; ++d) {
      total += matrix[s * 4 + d];
      if (s == d) diagonal += matrix[s * 4 + d];
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(diagonal, 0u);  // self messages never hit the network
}

// Solver's machine is a MachineSession, whose counters accumulate across
// jobs; Solver::solve and solve_multi reset them first, so every reader of
// solver.machine().traffic() / pair_messages() sees the last call alone.
TEST(PairTraffic, PerSolveOnTheSessionHost) {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  const auto g = CsrGraph::from_edges(generate_rmat(cfg));
  Solver solver(g, {.machine = {.num_ranks = 4, .lanes_per_rank = 1,
                                .record_pair_traffic = true}});
  const vid_t root = sample_roots(g, 1, 1).at(0);
  const SsspOptions options = SsspOptions::opt(25);
  struct Reading {
    TrafficCounters merged;
    std::vector<std::uint64_t> pairs;
  };
  const auto solve_once = [&] {
    solver.solve(root, options);
    return Reading{solver.machine().traffic().merged(),
                   solver.machine().pair_messages()};
  };
  const auto expect_same = [](const Reading& a, const Reading& b) {
    EXPECT_EQ(a.merged.messages, b.merged.messages);
    EXPECT_EQ(a.merged.bytes, b.merged.bytes);
    EXPECT_EQ(a.merged.allreduces, b.merged.allreduces);
    EXPECT_EQ(a.merged.barriers, b.merged.barriers);
    EXPECT_EQ(a.pairs, b.pairs);
  };
  const Reading first = solve_once();
  EXPECT_GT(first.merged.total_messages(), 0u);
  expect_same(first, solve_once());

  const std::vector<vid_t> roots = sample_roots(g, 3, 7);
  solver.solve_multi(roots, options);
  const Reading multi{solver.machine().traffic().merged(),
                      solver.machine().pair_messages()};
  solver.solve_multi(roots, options);
  expect_same(multi, Reading{solver.machine().traffic().merged(),
                             solver.machine().pair_messages()});
  expect_same(first, solve_once());
}

TEST(PairTraffic, EmptyWhenDisabled) {
  RmatConfig cfg;
  cfg.scale = 8;
  const auto g = CsrGraph::from_edges(generate_rmat(cfg));
  Solver solver(g, {.machine = {.num_ranks = 2}});
  solver.solve(0, SsspOptions::del(25));
  EXPECT_TRUE(solver.machine().pair_messages().empty());
}

}  // namespace
}  // namespace parsssp
