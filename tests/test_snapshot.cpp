// The MVCC snapshot layer (docs/SNAPSHOTS.md): frozen-view equivalence
// against the live DynamicGraph, pin/publish/retire lifecycle and
// reclamation, the patch log, the snapshots-disabled guards, and — written
// for the TSan lane of scripts/check.sh, required to pass without it —
// publish/pin/retire churn with forced compactions under concurrent
// readers, plus the destroyed-owner negative test (an outstanding
// SnapshotRef keeps its whole version alive after the QueryEngine, the
// DynamicGraph and the SnapshotManager are gone).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "graph/rmat.hpp"
#include "seq/dijkstra.hpp"
#include "serve/query_engine.hpp"
#include "snapshot/graph_snapshot.hpp"
#include "snapshot/snapshot_manager.hpp"
#include "update/dynamic_graph.hpp"

namespace parsssp {
namespace {

CsrGraph rmat_graph(std::uint64_t seed, int scale = 7) {
  RmatConfig cfg;
  cfg.scale = scale;
  cfg.edge_factor = 8;
  cfg.seed = seed;
  return strip_self_loops(CsrGraph::from_edges(generate_rmat(cfg)));
}

std::vector<Arc> sorted_arcs(std::vector<Arc> arcs) {
  std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
    return std::tie(a.to, a.w) < std::tie(b.to, b.w);
  });
  return arcs;
}

std::vector<Arc> snapshot_arcs(const GraphSnapshot& snap, vid_t v) {
  return sorted_arcs(snap.arcs_of(v));
}

std::vector<Arc> graph_arcs(const CsrGraph& g, vid_t v) {
  const auto span = g.neighbors(v);
  return sorted_arcs(std::vector<Arc>(span.begin(), span.end()));
}

/// Valid-by-construction batches, generated against (and applied to) a
/// mirror so batch i is valid at version i-1 for any graph replaying the
/// same sequence from the same base.
std::vector<EdgeBatch> make_batches(DynamicGraph& mirror, std::size_t count,
                                    std::size_t ops, std::mt19937_64& rng) {
  std::vector<EdgeBatch> batches;
  std::uniform_int_distribution<vid_t> pick(0, mirror.num_vertices() - 1);
  std::uniform_int_distribution<weight_t> pick_w(1, 200);
  while (batches.size() < count) {
    EdgeBatch batch;
    std::map<std::pair<vid_t, vid_t>, bool> used;
    while (batch.size() < ops) {
      vid_t u = pick(rng);
      vid_t v = pick(rng);
      if (u == v || !used.emplace(std::minmax(u, v), true).second) continue;
      const auto w = mirror.find_edge(u, v);
      switch (rng() % 4) {
        case 0:
          if (!w) batch.insert_edge(u, v, pick_w(rng));
          break;
        case 1:
          if (w) batch.delete_edge(u, v);
          break;
        default:
          if (w) batch.update_weight(u, v, pick_w(rng));
          break;
      }
    }
    if (batch.size() == 0) continue;
    mirror.apply(batch);
    batches.push_back(std::move(batch));
  }
  return batches;
}

TEST(Snapshot, FrozenViewMatchesLiveGraphAndMaterialization) {
  DynamicGraph graph(rmat_graph(31));
  std::mt19937_64 rng(7);
  DynamicGraph mirror(graph.base());
  for (const EdgeBatch& b : make_batches(mirror, 3, 6, rng)) graph.apply(b);

  const SnapshotRef snap = graph.snapshot();
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->version(), 3u);
  EXPECT_EQ(snap->num_vertices(), graph.num_vertices());
  EXPECT_EQ(snap->num_undirected_edges(), graph.num_undirected_edges());
  EXPECT_FALSE(snap->delta().empty());

  const CsrGraph frozen = graph.materialize();
  std::size_t degree_sum = 0;
  for (vid_t v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(snapshot_arcs(*snap, v), graph_arcs(frozen, v)) << "v=" << v;
    EXPECT_EQ(snap->degree(v), graph.degree(v)) << "v=" << v;
    EXPECT_EQ(snapshot_arcs(*snap, v), sorted_arcs(graph.arcs_of(v)))
        << "v=" << v;
    degree_sum += snap->degree(v);
  }
  EXPECT_EQ(degree_sum, 2 * snap->num_undirected_edges());
  for (vid_t u = 0; u < 40; ++u) {
    for (vid_t v = 0; v < 40; ++v) {
      EXPECT_EQ(snap->find_edge(u, v), graph.find_edge(u, v))
          << u << "-" << v;
    }
  }
}

TEST(Snapshot, CompactionRepublishesSameVersionOnFreshBase) {
  DynamicGraph graph(rmat_graph(37));
  const Arc first = graph.arcs_of(0).front();
  graph.apply(EdgeBatch{}.update_weight(0, first.to, first.w + 9));

  const SnapshotRef before = graph.snapshot();
  EXPECT_FALSE(before->delta().empty());
  graph.compact();
  const SnapshotRef after = graph.snapshot();

  EXPECT_EQ(before->version(), after->version());  // same logical graph
  EXPECT_LT(before->publish_seq(), after->publish_seq());
  EXPECT_TRUE(after->new_base());
  EXPECT_TRUE(after->delta().empty());
  EXPECT_NE(before->base_ptr().get(), after->base_ptr().get());
  for (vid_t v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(snapshot_arcs(*before, v), snapshot_arcs(*after, v));
  }
}

TEST(Snapshot, PinnedReaderSurvivesUpdatesAndForcedCompactions) {
  // Every apply compacts (fresh base each version): the pinned version-0
  // reader must keep seeing the original graph bit-for-bit throughout.
  DynamicGraph graph(rmat_graph(41),
                     DynamicGraphConfig{.compact_ratio = 0, .compact_min = 1});
  const SnapshotRef pinned = graph.snapshot();
  const CsrGraph expect = graph.materialize();

  std::mt19937_64 rng(11);
  DynamicGraph mirror(graph.base());
  for (const EdgeBatch& b : make_batches(mirror, 5, 8, rng)) {
    graph.apply(b);
  }
  EXPECT_EQ(graph.version(), 5u);
  EXPECT_EQ(pinned->version(), 0u);
  for (vid_t v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(snapshot_arcs(*pinned, v), graph_arcs(expect, v)) << "v=" << v;
  }

  SnapshotManager* manager = graph.snapshot_manager();
  manager->collect();
  const SnapshotManager::Stats stats = manager->stats();
  EXPECT_EQ(stats.head_version, 5u);
  EXPECT_EQ(stats.oldest_pinned_version, 0u);  // us
  EXPECT_GE(stats.published, 6u);              // seed + 5 compactions
  EXPECT_GE(stats.reclaimed, 4u);              // intermediates are gone
  EXPECT_LE(stats.live, 2u);                   // head + the pinned v0
}

TEST(Snapshot, SupersededUnpinnedVersionsAreReclaimed) {
  DynamicGraph graph(rmat_graph(43));
  std::mt19937_64 rng(13);
  DynamicGraph mirror(graph.base());
  for (const EdgeBatch& b : make_batches(mirror, 4, 4, rng)) graph.apply(b);

  SnapshotManager* manager = graph.snapshot_manager();
  manager->collect();
  const SnapshotManager::Stats stats = manager->stats();
  EXPECT_EQ(stats.published, 5u);  // seed + 4
  EXPECT_EQ(stats.reclaimed, 4u);
  EXPECT_EQ(stats.live, 1u);
  EXPECT_EQ(stats.head_version, 4u);
  EXPECT_EQ(stats.oldest_pinned_version, 4u);  // only the head is live
  EXPECT_GE(stats.retire_latency_last_s, 0.0);
  EXPECT_GE(stats.retire_latency_max_s, stats.retire_latency_last_s);
}

TEST(Snapshot, TouchedBetweenUnionsThePatchLog) {
  DynamicGraph graph(rmat_graph(47));
  const Arc a0 = graph.arcs_of(0).front();
  const Arc a5 = graph.arcs_of(5).front();
  const std::uint64_t seq0 = graph.snapshot()->publish_seq();

  graph.apply(EdgeBatch{}.update_weight(0, a0.to, a0.w + 1));
  graph.apply(EdgeBatch{}.update_weight(5, a5.to, a5.w + 1));
  const std::uint64_t seq2 = graph.snapshot()->publish_seq();
  ASSERT_EQ(seq2, seq0 + 2);

  SnapshotManager* manager = graph.snapshot_manager();
  const auto both = manager->touched_between(seq0, seq2);
  ASSERT_TRUE(both.has_value());
  std::vector<vid_t> expect{0, a0.to, 5, a5.to};
  std::sort(expect.begin(), expect.end());
  expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
  EXPECT_EQ(*both, expect);

  EXPECT_TRUE(manager->touched_between(seq2, seq2).has_value());
  EXPECT_TRUE(manager->touched_between(seq2, seq2)->empty());

  // A compaction publishes a fresh base: per-vertex patching cannot bridge
  // it, so any range crossing it reports "rebuild".
  graph.compact();
  const std::uint64_t seq3 = graph.snapshot()->publish_seq();
  EXPECT_FALSE(manager->touched_between(seq2, seq3).has_value());
  EXPECT_FALSE(manager->touched_between(seq0, seq3).has_value());
}

TEST(Snapshot, DisabledSnapshotsGuardRails) {
  DynamicGraph graph(rmat_graph(53), DynamicGraphConfig{.snapshots = false});
  EXPECT_FALSE(graph.snapshots_enabled());
  EXPECT_EQ(graph.snapshot_manager(), nullptr);
  EXPECT_THROW(graph.snapshot(), std::logic_error);
  // compact() must refuse with a descriptive error instead of pulling the
  // base out from under potential readers.
  try {
    graph.compact();
    FAIL() << "compact() on a snapshot-less graph must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("snapshots are disabled"),
              std::string::npos);
  }
  // The serving layer refuses the graph outright.
  ServeConfig serve;
  serve.machine.num_ranks = 2;
  EXPECT_THROW(QueryEngine(graph, serve), std::invalid_argument);
  // The graph itself still works single-threadedly (PR-5 contract).
  const Arc a = graph.arcs_of(0).front();
  graph.apply(EdgeBatch{}.update_weight(0, a.to, a.w + 1));
  EXPECT_EQ(graph.version(), 1u);
}

TEST(Snapshot, OutstandingRefOutlivesEngineGraphAndManager) {
  // Negative test: destroying the QueryEngine (and then the DynamicGraph,
  // taking the SnapshotManager with it) while a client still holds a
  // SnapshotRef must not free the base early — the ref keeps the whole
  // version readable, bit-for-bit.
  SnapshotRef survivor;
  std::vector<dist_t> expect_dist;
  CsrGraph expect = rmat_graph(59);
  {
    auto graph = std::make_unique<DynamicGraph>(expect);
    ServeConfig serve;
    serve.machine.num_ranks = 2;
    auto engine = std::make_unique<QueryEngine>(*graph, serve);
    const Arc a = graph->arcs_of(1).front();
    engine->update(EdgeBatch{}.update_weight(1, a.to, a.w + 7));
    survivor = engine->current_snapshot();
    ASSERT_TRUE(survivor);
    EXPECT_EQ(survivor->version(), 1u);
    expect = graph->materialize();
    expect_dist = dijkstra_distances(expect, 1);
    engine.reset();  // engine gone, ref still out
    graph.reset();   // graph + manager gone, ref still out
  }
  for (vid_t v = 0; v < expect.num_vertices(); ++v) {
    EXPECT_EQ(snapshot_arcs(*survivor, v), graph_arcs(expect, v));
  }
  // The frozen adjacency still drives a correct solve.
  std::vector<dist_t> dist(survivor->num_vertices(), kInfDist);
  dist[1] = 0;
  // Bellman-Ford over the snapshot's arc iterator: slow but dependency-free.
  for (vid_t round = 0; round < survivor->num_vertices(); ++round) {
    bool changed = false;
    for (vid_t v = 0; v < survivor->num_vertices(); ++v) {
      if (dist[v] == kInfDist) continue;
      survivor->for_each_arc(v, [&](const Arc& arc) {
        if (dist[v] + arc.w < dist[arc.to]) {
          dist[arc.to] = dist[v] + arc.w;
          changed = true;
        }
      });
    }
    if (!changed) break;
  }
  EXPECT_EQ(dist, expect_dist);
  survivor.reset();  // the last unpin reclaims the version; ASan watches
}

TEST(Snapshot, ChurnPublishPinRetireUnderForcedCompactions) {
  // TSan stress: one writer thread publishing (every apply compacts, so
  // every publish swaps the base) against reader threads that pin the
  // current snapshot, walk it, and verify internal consistency. A reader
  // pinned at version 0 for the whole run re-checks its view at the end.
  DynamicGraph graph(rmat_graph(61, /*scale=*/6),
                     DynamicGraphConfig{.compact_ratio = 0, .compact_min = 1});
  const CsrGraph expect0 = graph.materialize();
  const SnapshotRef pinned0 = graph.snapshot();

  constexpr std::size_t kBatches = 60;
  std::mt19937_64 rng(17);
  DynamicGraph mirror(graph.base());
  const std::vector<EdgeBatch> batches = make_batches(mirror, kBatches, 4, rng);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pins{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&graph, &stop, &pins, t] {
      std::uint64_t last_version = 0;
      std::mt19937_64 local(100 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotRef snap = graph.snapshot();
        // Publishes are ordered: a later pin never sees an older version.
        EXPECT_GE(snap->version(), last_version);
        last_version = snap->version();
        // The pinned version stays internally consistent however many
        // bases the writer swaps underneath.
        std::size_t degree_sum = 0;
        for (vid_t v = 0; v < snap->num_vertices(); ++v) {
          degree_sum += snap->degree(v);
        }
        EXPECT_EQ(degree_sum, 2 * snap->num_undirected_edges());
        const vid_t v = static_cast<vid_t>(local() % snap->num_vertices());
        snap->for_each_arc(v, [&](const Arc& a) {
          EXPECT_LT(a.to, snap->num_vertices());
          EXPECT_GE(a.w, 1u);
        });
        pins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // True once a reader has finished a pin beyond `seen`; false after 30 s,
  // so a reader that never gets going fails the test instead of hanging it.
  const auto pinned_beyond = [&pins](std::uint64_t seen) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (pins.load(std::memory_order_relaxed) <= seen) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  // On a loaded host the 60 publishes can finish before any reader is
  // scheduled, and then nothing raced. Publish only once a reader runs,
  // and halfway through wait until a reader has finished a pin since the
  // publishing began.
  const bool readers_started = pinned_beyond(0);
  const std::uint64_t pins_before = pins.load(std::memory_order_relaxed);
  bool pinned_while_publishing = false;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (i == batches.size() / 2) {
      pinned_while_publishing = readers_started && pinned_beyond(pins_before);
    }
    const AppliedBatch applied = graph.apply(batches[i]);
    EXPECT_TRUE(applied.compacted);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(readers_started) << "no reader pinned a snapshot within 30 s";
  EXPECT_TRUE(pinned_while_publishing)
      << "no reader pinned a snapshot while the writer was publishing";

  EXPECT_EQ(pinned0->version(), 0u);
  for (vid_t v = 0; v < expect0.num_vertices(); ++v) {
    EXPECT_EQ(snapshot_arcs(*pinned0, v), graph_arcs(expect0, v));
  }

  SnapshotManager* manager = graph.snapshot_manager();
  manager->collect();
  const SnapshotManager::Stats stats = manager->stats();
  EXPECT_EQ(stats.head_version, kBatches);
  EXPECT_EQ(stats.oldest_pinned_version, 0u);
  EXPECT_EQ(stats.published, kBatches + 1);
  EXPECT_GE(stats.reclaimed, kBatches - stats.live);
}

}  // namespace
}  // namespace parsssp
