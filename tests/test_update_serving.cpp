// QueryEngine in dynamic mode: versioned cache invalidation (a stale
// answer is never served), failed batches leaving the graph and the cache
// untouched, exactness across compactions, and — under the opt-in
// ServeConfig::fence_updates — update batches serialized through the same
// FIFO as queries. MVCC-specific behaviour (concurrent serving, snapshot
// lifecycle) lives in test_snapshot.cpp and test_serve_races.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <vector>

#include "core/parent_canon.hpp"
#include "graph/edge_list.hpp"
#include "graph/rmat.hpp"
#include "seq/dijkstra.hpp"
#include "serve/query_engine.hpp"
#include "update/dynamic_graph.hpp"

namespace parsssp {
namespace {

using namespace std::chrono_literals;

CsrGraph rmat_graph(std::uint64_t seed, int scale = 7) {
  RmatConfig cfg;
  cfg.scale = scale;
  cfg.edge_factor = 8;
  cfg.seed = seed;
  return strip_self_loops(CsrGraph::from_edges(generate_rmat(cfg)));
}

ServeConfig serve_config(rank_t ranks, std::size_t cache = 64) {
  ServeConfig config;
  config.machine.num_ranks = ranks;
  config.machine.checked_exchange = true;
  config.max_batch = 4;
  config.batch_window = 200us;
  config.cache_capacity = cache;
  return config;
}

/// An edge of `v` plus a non-edge of `v`, for building valid batches.
struct Probe {
  vid_t neighbor = 0;
  weight_t w = 0;
  vid_t non_neighbor = 0;
};

Probe probe_vertex(const DynamicGraph& g, vid_t v) {
  Probe p;
  const std::vector<Arc> arcs = g.arcs_of(v);
  EXPECT_FALSE(arcs.empty());
  p.neighbor = arcs.front().to;
  p.w = arcs.front().w;
  p.non_neighbor = v;
  do {
    p.non_neighbor = (p.non_neighbor + 1) % g.num_vertices();
  } while (p.non_neighbor == v || g.has_edge(v, p.non_neighbor));
  return p;
}

TEST(UpdateServing, StaleCachedAnswerIsNeverServed) {
  DynamicGraph graph(rmat_graph(11));
  QueryEngine engine(graph, serve_config(3));
  const SsspOptions options = SsspOptions::del(25);
  const vid_t root = 5;

  const QueryResult before = engine.query(root, options);
  EXPECT_TRUE(engine.query(root, options).from_cache);  // warm at version 0

  // Shorten the first edge out of the root: the cached answer is now wrong.
  const Probe p = probe_vertex(graph, root);
  const UpdateResult applied =
      engine.update(EdgeBatch{}.update_weight(root, p.neighbor, 1).insert_edge(
          root, p.non_neighbor, 1));
  EXPECT_EQ(applied.version, 1u);
  EXPECT_EQ(applied.ops, 2u);
  EXPECT_EQ(engine.graph_version(), 1u);

  const QueryResult after = engine.query(root, options);
  EXPECT_FALSE(after.from_cache);  // version mismatch dropped the entry
  EXPECT_EQ(after.answer->dist, dijkstra_distances(graph.materialize(), root));
  EXPECT_NE(after.answer.get(), before.answer.get());

  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.graph_version, 1u);
  EXPECT_GE(stats.cache.version_misses, 1u);

  // Re-cached under the new version: hits again until the next update.
  EXPECT_TRUE(engine.query(root, options).from_cache);
}

TEST(UpdateServing, FifoOrderSplitsOldAndNewGraphQueries) {
  DynamicGraph graph(rmat_graph(13));
  const std::vector<dist_t> old_dist = dijkstra_distances(graph.base(), 3);
  const Probe p = probe_vertex(graph, 3);

  // Expected answers per version, computed up front on a mirror (the engine
  // owns `graph` once serving starts).
  const EdgeBatch batch1 = EdgeBatch{}.insert_edge(3, p.non_neighbor, 1);
  const EdgeBatch batch2 = EdgeBatch{}.update_weight(3, p.non_neighbor, 200);
  DynamicGraph mirror(graph.base());
  mirror.apply(batch1);
  const std::vector<dist_t> v1_dist = dijkstra_distances(mirror.materialize(), 3);

  ServeConfig config = serve_config(2, /*cache=*/0);
  config.batch_window = 60s;  // only an update fence can close a batch
  config.fence_updates = true;
  QueryEngine engine(graph, config);
  const SsspOptions options = SsspOptions::del(25);

  // Admission order: query | update | query | update. The long window
  // proves the fences close the query prefixes — each query would
  // otherwise wait out the minute.
  std::future<QueryResult> before = engine.submit(3, options);
  std::future<UpdateResult> update1 = engine.apply_updates(batch1);
  std::future<QueryResult> after = engine.submit(3, options);
  std::future<UpdateResult> update2 = engine.apply_updates(batch2);

  EXPECT_EQ(before.get().answer->dist, old_dist);  // pre-update graph
  EXPECT_EQ(update1.get().version, 1u);
  EXPECT_EQ(after.get().answer->dist, v1_dist);    // between the updates
  EXPECT_EQ(update2.get().version, 2u);
  mirror.apply(batch2);
  EXPECT_EQ(graph.materialize_edges().edges(),
            mirror.materialize_edges().edges());
}

TEST(UpdateServing, FailedBatchLeavesGraphCacheAndServingIntact) {
  DynamicGraph graph(rmat_graph(17));
  QueryEngine engine(graph, serve_config(2));
  const SsspOptions options = SsspOptions::del(25);
  const QueryResult before = engine.query(9, options);

  // Second op is invalid (deletes an absent edge): the whole batch must
  // reject, with the validation error surfacing through the future.
  const Probe p = probe_vertex(graph, 9);
  std::future<UpdateResult> failed = engine.apply_updates(
      EdgeBatch{}.update_weight(9, p.neighbor, 7).delete_edge(
          9, p.non_neighbor));
  EXPECT_THROW(failed.get(), std::invalid_argument);

  // Nothing changed: version still 0, the cached answer is still valid and
  // still served, and the engine keeps serving exact answers.
  EXPECT_EQ(engine.graph_version(), 0u);
  EXPECT_EQ(engine.stats().updates, 0u);
  const QueryResult again = engine.query(9, options);
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(again.answer.get(), before.answer.get());
  EXPECT_EQ(graph.find_edge(9, p.neighbor), p.w);  // weight untouched
}

TEST(UpdateServing, StaticEngineRejectsUpdates) {
  const CsrGraph g = rmat_graph(19);
  QueryEngine engine(g, serve_config(2));
  EXPECT_THROW(engine.apply_updates(EdgeBatch{}.insert_edge(0, 1, 1)),
               std::logic_error);
  EXPECT_EQ(engine.graph_version(), 0u);
}

TEST(UpdateServing, DynamicAdmissionValidatesRootsUpFront) {
  DynamicGraph graph(rmat_graph(19));
  QueryEngine engine(graph, serve_config(2));
  EXPECT_THROW(engine.submit(graph.num_vertices(), SsspOptions::del(25)),
               std::out_of_range);
  // Out-of-range endpoints in a batch surface through the future (the
  // batch is validated where it is applied, atomically).
  std::future<UpdateResult> bad = engine.apply_updates(
      EdgeBatch{}.insert_edge(0, graph.num_vertices(), 1));
  EXPECT_THROW(bad.get(), std::invalid_argument);
}

TEST(UpdateServing, ServesExactlyAcrossCompactions) {
  // compact_min 1 + ratio 0: every apply() compacts, so every update takes
  // the rebuild-views path instead of the per-vertex patch path.
  DynamicGraph graph(rmat_graph(23),
                     DynamicGraphConfig{.compact_ratio = 0, .compact_min = 1});
  QueryEngine engine(graph, serve_config(3));
  const SsspOptions options = SsspOptions::del(25);

  for (int round = 0; round < 3; ++round) {
    const vid_t v = static_cast<vid_t>(7 + round);
    const Probe p = probe_vertex(graph, v);
    const UpdateResult applied = engine.update(
        EdgeBatch{}.insert_edge(v, p.non_neighbor, 2).update_weight(
            v, p.neighbor, p.w + 3));
    EXPECT_TRUE(applied.compacted);
    const QueryResult r = engine.query(v, options);
    EXPECT_EQ(r.answer->dist, dijkstra_distances(graph.materialize(), v))
        << "round " << round;
  }
  EXPECT_EQ(engine.graph_version(), 3u);
}

TEST(UpdateServing, ParentsStayCanonicalThroughUpdates) {
  DynamicGraph graph(rmat_graph(29));
  QueryEngine engine(graph, serve_config(2));
  SsspOptions options = SsspOptions::del(25);
  options.track_parents = true;

  const Probe p = probe_vertex(graph, 2);
  engine.update(EdgeBatch{}.insert_edge(2, p.non_neighbor, 1));
  const QueryResult served = engine.query(2, options);

  // Any tight-predecessor tree is acceptable from the serving layer; check
  // the tree invariant directly against the mutated graph.
  const CsrGraph now = graph.materialize();
  const std::vector<dist_t> dist = dijkstra_distances(now, 2);
  ASSERT_EQ(served.answer->dist, dist);
  const auto& parent = served.answer->parent;
  ASSERT_EQ(parent.size(), now.num_vertices());
  for (vid_t v = 0; v < now.num_vertices(); ++v) {
    if (v == 2) {
      EXPECT_EQ(parent[v], 2u);
    } else if (dist[v] == kInfDist) {
      EXPECT_EQ(parent[v], kInvalidVid);
    } else {
      bool tight = false;
      for (const Arc& a : now.neighbors(v)) {
        if (a.to == parent[v] && dist[a.to] + a.w == dist[v]) tight = true;
      }
      EXPECT_TRUE(tight) << "v=" << v;
    }
  }
}

// Canonical parents are a function of the logical graph: where the served
// engine canonicalizes (async, stepping, canonical_parents) it must read
// the arcs of the snapshot's views, not the snapshot's base CSR, which
// lags every update until the next compaction.
TEST(UpdateServing, CanonicalParentsFollowTheLogicalGraph) {
  DynamicGraph graph(rmat_graph(29));
  QueryEngine engine(graph, serve_config(2, /*cache=*/0));
  const Probe p = probe_vertex(graph, 2);
  engine.update(EdgeBatch{}.insert_edge(2, p.non_neighbor, 1));

  const CsrGraph now = graph.materialize();
  const std::vector<dist_t> dist = dijkstra_distances(now, 2);
  std::vector<vid_t> expected(now.num_vertices());
  canonicalize_parents(now, 2, dist, expected);
  SsspOptions del = SsspOptions::del(25);
  del.canonical_parents = true;
  for (SsspOptions options :
       {del, SsspOptions::async_opt(25), SsspOptions::delta_star(25)}) {
    options.track_parents = true;
    const QueryResult served = engine.query(2, options);
    ASSERT_EQ(served.answer->dist, dist);
    EXPECT_EQ(served.answer->parent, expected)
        << "algo " << static_cast<int>(options.algo);
  }
}

}  // namespace
}  // namespace parsssp
