// The asynchronous SSSP engine (core/async_engine.hpp, docs/ASYNC.md).
// Contract under test: distances bit-identical to the bucket-synchronous
// OPT engine across graph families x Delta x rank counts x data paths,
// canonical parents matching, exactly one global synchronization per solve
// (the final stats allreduce), and the serve-layer cold-query routing.
// Plus unit tests of the lazy-batched bucket queue the engine runs on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/lazy_pq.hpp"
#include "core/options.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "graph/builders.hpp"
#include "graph/rmat.hpp"
#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"

namespace parsssp {
namespace {

// --- LazyBucketQueue ------------------------------------------------------

using Entry = std::pair<vid_t, dist_t>;

TEST(LazyBucketQueue, EmptyQueuePopsInfBucket) {
  LazyBucketQueue q(4);
  EXPECT_TRUE(q.empty());
  std::vector<Entry> out = {{1, 1}};
  EXPECT_EQ(q.pop_batch(out), kInfBucket);
  EXPECT_TRUE(out.empty());  // pop clears even when there is nothing
}

TEST(LazyBucketQueue, PopsTheLowestNonEmptyBucketWhole) {
  LazyBucketQueue q(4);
  q.push(1, 7);    // bucket 1
  q.push(2, 100);  // bucket 25
  q.push(3, 0);    // bucket 0
  q.push(4, 5);    // bucket 1
  EXPECT_EQ(q.size(), 4u);

  std::vector<Entry> out;
  EXPECT_EQ(q.pop_batch(out), 0u);
  EXPECT_EQ(out, (std::vector<Entry>{{3, 0}}));
  EXPECT_EQ(q.pop_batch(out), 1u);
  EXPECT_EQ(out, (std::vector<Entry>{{1, 7}, {4, 5}}));  // push order kept
  EXPECT_EQ(q.pop_batch(out), 25u);
  EXPECT_EQ(out, (std::vector<Entry>{{2, 100}}));
  EXPECT_TRUE(q.empty());
}

TEST(LazyBucketQueue, LowerPushAfterPopRewindsTheCursor) {
  LazyBucketQueue q(4);
  q.push(1, 40);
  std::vector<Entry> out;
  EXPECT_EQ(q.pop_batch(out), 10u);
  // A speculative relaxation improved some vertex below the popped level:
  // the cursor must come back down for it.
  q.push(2, 3);
  EXPECT_EQ(q.pop_batch(out), 0u);
  EXPECT_EQ(out, (std::vector<Entry>{{2, 3}}));
}

TEST(LazyBucketQueue, LazyDeletionKeepsBothEntries) {
  // An improvement does not remove the stale entry; it queues a second,
  // lower one. The engine filters staleness against its distance array;
  // the queue just surfaces both in bucket order.
  LazyBucketQueue q(4);
  q.push(7, 10);  // bucket 2: will become stale
  q.push(7, 3);   // bucket 0: the improvement
  EXPECT_EQ(q.size(), 2u);
  std::vector<Entry> out;
  EXPECT_EQ(q.pop_batch(out), 0u);
  EXPECT_EQ(out, (std::vector<Entry>{{7, 3}}));
  EXPECT_EQ(q.pop_batch(out), 2u);
  EXPECT_EQ(out, (std::vector<Entry>{{7, 10}}));
}

TEST(LazyBucketQueue, InfDeltaDegeneratesToASingleBucket) {
  LazyBucketQueue q(SsspOptions::kInfDelta);
  q.push(1, 0);
  q.push(2, 1000000);
  q.push(3, 42);
  std::vector<Entry> out;
  EXPECT_EQ(q.pop_batch(out), 0u);
  EXPECT_EQ(out.size(), 3u);  // the whole frontier is one batch
  EXPECT_TRUE(q.empty());
}

// --- Bit-identity with the bucket-synchronous OPT engine ------------------

CsrGraph rmat_graph() {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  cfg.seed = 3;
  return CsrGraph::from_edges(generate_rmat(cfg));
}

using Param = std::tuple<std::uint32_t /*delta*/, rank_t, unsigned /*lanes*/>;

class AsyncEngineProperty : public ::testing::TestWithParam<Param> {};

TEST_P(AsyncEngineProperty, DistancesAndParentsBitIdenticalToOpt) {
  const auto [delta, ranks, lanes] = GetParam();
  const std::vector<CsrGraph> graphs = {rmat_graph(),
                                        CsrGraph::from_edges(make_grid(12))};
  for (const CsrGraph& g : graphs) {
    Solver solver(g,
                  {.machine = {.num_ranks = ranks, .lanes_per_rank = lanes}});
    for (const vid_t root : {vid_t{0}, vid_t{g.num_vertices() / 2}}) {
      SsspOptions sync = SsspOptions::opt(delta);
      sync.track_parents = true;
      sync.canonical_parents = true;
      SsspOptions async = SsspOptions::async_opt(delta);
      async.track_parents = true;

      const SsspResult want = solver.solve(root, sync);
      const SsspResult got = solver.solve(root, async);
      ASSERT_EQ(got.dist, want.dist)
          << "delta=" << delta << " ranks=" << ranks
          << " lanes=" << lanes << " root=" << root;
      // Canonical parents are a pure function of graph + dist, so
      // bit-identical distances force bit-identical trees.
      ASSERT_EQ(got.parent, want.parent);
      // And both are right, not merely consistent with each other.
      EXPECT_TRUE(validate_against_dijkstra(g, root, got.dist).ok);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AsyncEngineProperty,
    ::testing::Combine(::testing::Values(4u, 25u, SsspOptions::kInfDelta),
                       ::testing::Values(rank_t{1}, rank_t{3}, rank_t{4},
                                         rank_t{8}),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<Param>& tpi) {
      const auto delta = std::get<0>(tpi.param);
      return std::string("delta") +
             (delta == SsspOptions::kInfDelta ? "inf"
                                              : std::to_string(delta)) +
             "_ranks" + std::to_string(std::get<1>(tpi.param)) + "_lanes" +
             std::to_string(std::get<2>(tpi.param));
    });

// --- Synchronization accounting -------------------------------------------

TEST(AsyncEngine, ExactlyOneGlobalSyncPerSolve) {
  const auto g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 4}});
  const SsspResult r = solver.solve(0, SsspOptions::async_opt(25));
  // The one collective is the final stats allreduce; the data plane is
  // barrier-free.
  EXPECT_EQ(r.stats.sync_allreduces, 1u);
  EXPECT_EQ(r.stats.sync_barriers, 0u);
  EXPECT_EQ(r.stats.global_syncs(), 1u);
  EXPECT_GT(r.stats.async_relaxations, 0u);
  EXPECT_GT(r.stats.quiescence_rounds, 0u);
  EXPECT_GT(r.stats.token_hops, 0u);
}

TEST(AsyncEngine, AtLeastTenTimesFewerSyncsThanOpt) {
  const auto g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 4}});
  const SsspResult sync = solver.solve(0, SsspOptions::opt(25));
  const SsspResult async = solver.solve(0, SsspOptions::async_opt(25));
  EXPECT_GE(sync.stats.global_syncs(), 10 * async.stats.global_syncs())
      << "opt=" << sync.stats.global_syncs()
      << " async=" << async.stats.global_syncs();
}

TEST(AsyncEngine, SingleRankRunsAreReproducible) {
  const auto g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 1}});
  const SsspResult a = solver.solve(5, SsspOptions::async_opt(25));
  const SsspResult b = solver.solve(5, SsspOptions::async_opt(25));
  EXPECT_EQ(a.dist, b.dist);
  // One rank, one schedule: even the speculative work count is stable.
  EXPECT_EQ(a.stats.async_relaxations, b.stats.async_relaxations);
}

TEST(AsyncEngine, SolveMultiRejectsTheAsyncEngine) {
  const auto g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 2}});
  const std::vector<vid_t> roots = {0, 1};
  EXPECT_THROW(solver.solve_multi(roots, SsspOptions::async_opt(25)),
               std::invalid_argument);
}

// --- Serve-layer routing ---------------------------------------------------

TEST(AsyncEngine, ExplicitAsyncQueriesServeBitIdenticalAnswers) {
  const auto g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 3}});
  ServeConfig config;
  config.machine.num_ranks = 3;
  QueryEngine engine(g, config);

  const SsspOptions options = SsspOptions::async_opt(25);
  const QueryResult first = engine.query(17, options);
  ASSERT_NE(first.answer, nullptr);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(first.answer->dist, solver.solve(17, options).dist);
  EXPECT_EQ(first.answer->stats.global_syncs(), 1u);
  // The options signature includes the algorithm, so the async answer is
  // its own cache entry — and a hit the second time around.
  EXPECT_TRUE(engine.query(17, options).from_cache);
}

TEST(AsyncEngine, ColdQueryConfigFlagRoutesCacheMissesBarrierFree) {
  const auto g = rmat_graph();
  Solver solver(g, {.machine = {.num_ranks = 3}});
  MetricsRegistry metrics;
  ServeConfig config;
  config.machine.num_ranks = 3;
  config.async_cold_queries = true;
  config.metrics = &metrics;
  QueryEngine engine(g, config);

  // The client asks for plain OPT; the engine may serve the cold miss
  // barrier-free because the answer is bit-identical.
  const SsspOptions options = SsspOptions::opt(25);
  const QueryResult r = engine.query(21, options);
  EXPECT_EQ(r.answer->dist, solver.solve(21, options).dist);

  const auto barriers_of = [&metrics]() -> std::uint64_t {
    for (const auto& c : metrics.snapshot().counters) {
      if (c.name == "sssp.barriers") return c.value;
    }
    return 0;
  };
  // sssp.barriers counts the solve's global syncs: exactly one for the
  // async path. A cache hit adds nothing.
  EXPECT_EQ(barriers_of(), 1u);
  EXPECT_TRUE(engine.query(21, options).from_cache);
  EXPECT_EQ(barriers_of(), 1u);

  // Non-canonical parent queries are exempt from the rerouting (raw trees
  // are engine-specific): the synchronous path shows up as a barrier burst.
  SsspOptions parents = SsspOptions::opt(25);
  parents.track_parents = true;
  const QueryResult p = engine.query(21, parents);
  EXPECT_EQ(p.answer->dist, solver.solve(21, options).dist);
  EXPECT_GT(barriers_of(), 2u);
}

}  // namespace
}  // namespace parsssp
