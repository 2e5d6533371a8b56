// The query-serving front end: admission queue, batching policy, result
// cache, and a persistent simulated machine.
//
// A QueryEngine owns one MachineSession (rank threads spawned once, parked
// between jobs) and one dispatcher ServiceThread. Clients call submit(root,
// options) from any thread and receive a future; the dispatcher closes
// batches off the admission queue and serves them on the session:
//
//   * Batching policy: a batch closes as soon as max_batch queries are
//     queued, or when the oldest queued query has waited batch_window —
//     bounded latency under light load, full batches under heavy load. Only
//     queries with identical option signatures share a batch (they must:
//     a batch runs as one sweep under one option set). The window deadline
//     is polled at idle_poll granularity.
//   * Cache: answers are remembered in an exact LRU keyed by
//     (root, options signature); a hit is served without touching the
//     machine and marked from_cache.
//   * Execution: duplicate roots in a batch are computed once. A batch
//     with one unique (uncached) root — or any batch tracking parents —
//     runs the full single-root engine (run_engine) per root; larger
//     batches run the batched multi-root engine (run_multi_engine), one
//     shared bucket-synchronous sweep for the whole batch. Distances are
//     bit-identical between both paths and Solver::solve; batched-path
//     statistics are batch-level (see docs/SERVING.md).
//
// Dynamic serving is MVCC by default (docs/SNAPSHOTS.md): every batch pins
// the latest immutable GraphSnapshot at close and solves on it, while
// update batches build the next version on a separate builder
// ServiceThread — queries never stall behind a repair, and a pinned
// version (including its base CSR) outlives any number of concurrent
// mutations and compactions. Correctness is carried by the version-stamped
// result cache: an answer computed on snapshot V is cached at V and a
// lookup at V' != V can never return it. ServeConfig::fence_updates
// restores the strict PR-5 ordering — updates ride the query FIFO as
// barriers and every query sees the newest version at admission order.
//
// All machine work happens on the dispatcher thread; submit() never blocks
// on a solve. Layering (analyzer rule A3): this layer spawns no threads —
// the only concurrency primitives it touches are MachineSession,
// ServiceThread and a mutex around the queues; the snapshot layer is
// consumed through the GraphSnapshot/SnapshotManager facade only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/auto_tune.hpp"
#include "core/dist_graph.hpp"
#include "core/options.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "graph/csr.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/machine_session.hpp"
#include "runtime/partition.hpp"
#include "runtime/service_thread.hpp"
#include "serve/result_cache.hpp"
#include "snapshot/graph_snapshot.hpp"
#include "snapshot/snapshot_manager.hpp"
#include "update/dynamic_graph.hpp"
#include "update/edge_batch.hpp"

namespace parsssp {

struct ServeConfig {
  MachineConfig machine;
  /// Largest batch one sweep serves; clamped to [1, kMaxMultiRoots].
  std::size_t max_batch = 8;
  /// Longest a queued query waits for batchmates before its batch closes.
  std::chrono::nanoseconds batch_window = std::chrono::microseconds(200);
  /// Result cache capacity in answers; 0 disables caching.
  std::size_t cache_capacity = 1024;
  /// Granularity at which the dispatcher re-checks the window deadline.
  std::chrono::nanoseconds idle_poll = std::chrono::microseconds(50);
  /// Strict PR-5 ordering for dynamic engines: updates share the query
  /// FIFO and fence it (a batch never spans an update; queries behind an
  /// update wait for it). Off by default — MVCC serving lets queries run
  /// on their pinned snapshot while updates build the next version
  /// concurrently (docs/SNAPSHOTS.md).
  bool fence_updates = false;
  /// Serve cold single-root queries on the asynchronous engine
  /// (docs/ASYNC.md): a one-query batch that misses the cache runs
  /// barrier-free instead of bucket-synchronous. Distances are
  /// bit-identical, so the answer is cached under the client's own option
  /// signature; queries tracking non-canonical parents are exempted (the
  /// async engine always canonicalizes). Clients can also opt in per query
  /// via SsspOptions::algo, whatever this flag says.
  bool async_cold_queries = false;
  /// Auto-tune cold single-root queries (docs/STEPPING.md): the first
  /// eligible cache miss per graph version pays a short probe pass
  /// (core/auto_tune.hpp) and every later one runs on the engine + step
  /// parameter the tuner learned for that version. Only queries on the
  /// default algorithm are rewritten (an explicit SsspAlgo choice is
  /// always honored), and — as with async_cold_queries — queries tracking
  /// non-canonical parents are exempt. Distances are bit-identical across
  /// the whole candidate space, so answers are cached under the client's
  /// own option signature.
  bool auto_tune = false;

  // --- Observability (docs/OBSERVABILITY.md) ----------------------------

  /// When non-null, the engine keeps serve-layer counters, gauges and
  /// latency/batch-size histograms in this registry. Must outlive the
  /// engine; instruments are shared with whoever else snapshots it.
  MetricsRegistry* metrics = nullptr;
  /// When non-null, the dispatcher records admission/batch/cache/solve
  /// spans into its own lane (and the update builder publish/retire spans
  /// into its lane), and solves propagate the recorder into the engines
  /// (overriding SsspOptions::trace for served queries). Must outlive the
  /// engine.
  TraceRecorder* trace = nullptr;
};

/// What a submitted query's future resolves to.
struct QueryResult {
  std::shared_ptr<const QueryAnswer> answer;
  bool from_cache = false;
  /// Graph version the answer was computed (or cache-validated) at; 0 on
  /// static engines. The snapshot actually solved on, not the newest one.
  std::uint64_t version = 0;
  std::chrono::steady_clock::time_point completed_at;
};

/// What an apply_updates() future resolves to (dynamic engines only).
struct UpdateResult {
  std::uint64_t version = 0;  ///< graph version the batch produced
  std::size_t ops = 0;
  bool compacted = false;
  std::chrono::steady_clock::time_point completed_at;
};

/// Counter snapshot for throughput/SLO reporting.
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t batches = 0;
  std::uint64_t single_solves = 0;  ///< roots served by the per-root engine
  std::uint64_t multi_sweeps = 0;   ///< batched multi-root sweeps executed
  std::uint64_t updates = 0;        ///< update batches applied (dynamic mode)
  std::uint64_t graph_version = 0;  ///< latest published version (dynamic)
  // MVCC snapshot health (dynamic mode; docs/SNAPSHOTS.md).
  std::uint64_t snapshots_published = 0;
  std::uint64_t snapshots_reclaimed = 0;
  std::uint64_t snapshots_live = 0;
  std::uint64_t oldest_pinned_version = 0;
  /// batch_size_histogram[s] = closed batches of size s (index 0 unused).
  std::vector<std::uint64_t> batch_size_histogram;
  ResultCache::Counters cache;
};

class QueryEngine {
 public:
  /// Static mode: `graph` must outlive the engine. Spawns the session's
  /// rank threads and the dispatcher immediately.
  QueryEngine(const CsrGraph& graph, ServeConfig config);

  /// Dynamic mode: serves a mutable graph (docs/DYNAMIC.md). `graph` must
  /// outlive the engine, have snapshots enabled (throws
  /// std::invalid_argument otherwise) and, while the engine lives, be
  /// mutated *only* through apply_updates(). Queries are answered on
  /// pinned snapshots and cached under the version actually solved on, so
  /// a stale cached answer is never served — in fenced and MVCC mode
  /// alike.
  QueryEngine(DynamicGraph& graph, ServeConfig config);

  /// Fails queued queries with JobCancelled, finishes the in-flight batch
  /// and update, stops the builder, the dispatcher and the session.
  /// Outstanding SnapshotRefs held by clients survive the engine.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Enqueues a query. Root/option validation happens here (throws
  /// std::out_of_range on a bad root, std::invalid_argument on malformed
  /// options); the future resolves once the answer is served from cache or
  /// computed. Thread-safe.
  std::future<QueryResult> submit(vid_t root, const SsspOptions& options);

  /// Convenience: submit + wait.
  QueryResult query(vid_t root, const SsspOptions& options);

  /// Dynamic mode only (throws std::logic_error on a static engine):
  /// enqueues one atomic mutation batch. MVCC mode applies it on the
  /// builder thread, concurrently with query serving; fenced mode applies
  /// it on the dispatcher in admission order (queries submitted before it
  /// see the old graph, queries after it the new one). The future resolves
  /// with the new graph version, or with the DynamicGraph::apply
  /// validation error (in which case the graph is unchanged). Thread-safe.
  std::future<UpdateResult> apply_updates(EdgeBatch batch);

  /// Convenience: apply_updates + wait.
  UpdateResult update(EdgeBatch batch);

  /// Latest published graph version (0 on static engines). Thread-safe.
  std::uint64_t graph_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Pins the latest published snapshot (dynamic mode; throws
  /// std::logic_error on a static engine). What a batch closing right now
  /// would serve on. Thread-safe.
  SnapshotRef current_snapshot() const;

  /// Fails every queued-but-unbatched query and unapplied update with
  /// JobCancelled; returns how many. Queries already in a closed batch
  /// still complete. Thread-safe.
  std::size_t cancel_pending();

  ServeStats stats() const;
  const ServeConfig& config() const { return config_; }
  vid_t num_vertices() const { return num_vertices_; }

 private:
  struct Pending {
    enum class Kind : std::uint8_t { kQuery, kUpdate };
    Kind kind = Kind::kQuery;
    vid_t root = 0;
    SsspOptions options;
    std::string signature;
    std::promise<QueryResult> promise;          ///< kQuery only
    EdgeBatch updates;                          ///< kUpdate only
    std::promise<UpdateResult> update_promise;  ///< kUpdate only
    std::chrono::steady_clock::time_point submitted_at;

    void fail(std::exception_ptr error) {
      if (kind == Kind::kQuery) {
        promise.set_exception(std::move(error));
      } else {
        update_promise.set_exception(std::move(error));
      }
    }
  };

  /// Delegate of both public constructors.
  QueryEngine(const CsrGraph* graph, DynamicGraph* dynamic,
              ServeConfig config);

  bool mvcc() const { return dynamic_ != nullptr && !config_.fence_updates; }

  /// Dispatcher ServiceThread step: closes at most one batch and serves
  /// it (fenced mode also applies updates here, in FIFO order).
  bool dispatch_step();
  /// Builder ServiceThread step (MVCC mode only): applies one update.
  bool builder_step();
  void serve_batch(std::vector<Pending> batch);
  /// Applies one update batch and publishes the new version. Runs on the
  /// builder thread (MVCC) or the dispatcher (fenced) — the only mutator
  /// of the DynamicGraph either way.
  void serve_update(Pending update);
  /// Pushes cache counters into the metrics registry.
  void refresh_cache_metrics();
  /// Reclaims droppable snapshots and refreshes the snapshot gauges
  /// (graph version, live count, oldest pinned, retire latency).
  void refresh_snapshot_metrics();
  /// Computes answers for `roots` (unique, uncached) under `options`,
  /// reading the graph through `snap` (null = static mode).
  std::vector<std::shared_ptr<const QueryAnswer>> compute(
      const std::vector<vid_t>& roots, const SsspOptions& options,
      const SnapshotRef& snap);
  /// Dispatcher-thread-only: one single-root solve on the session with
  /// the engine options.algo names (the auto-tuner's probe passes keep
  /// only its statistics); syncs the views to (options.delta, snap) first.
  QueryAnswer solve_one(vid_t root, const SsspOptions& options,
                        const CsrGraph* graph, const SnapshotRef& snap,
                        const std::shared_ptr<void>& keepalive);
  /// Dispatcher-thread-only: sync the per-rank edge views to (`delta`,
  /// `snap`) — patched forward through the manager's patch log when
  /// possible, rebuilt otherwise.
  void ensure_views(std::uint32_t delta, const SnapshotRef& snap);

  /// Static mode only; null when serving a DynamicGraph.
  const CsrGraph* const static_graph_;
  /// Null in static mode. Mutated only on the builder (MVCC) or
  /// dispatcher (fenced) thread.
  DynamicGraph* const dynamic_;
  /// dynamic_->snapshot_manager(), cached; null in static mode.
  SnapshotManager* const manager_;
  const ServeConfig config_;
  /// Vertex count is version-invariant (updates never add vertices).
  const vid_t num_vertices_;
  BlockPartition part_;
  ResultCache cache_;
  MachineSession session_;
  /// Per-version learned engine configs (config_.auto_tune); probed and
  /// read on the dispatcher thread only, but internally thread-safe.
  AutoTuner tuner_;
  /// Mirror of the latest published version for lock-free reads.
  std::atomic<std::uint64_t> version_{0};

  mutable Mutex mutex_;
  std::deque<Pending> queue_ MPS_GUARDED_BY(mutex_);
  /// MVCC mode: updates wait here for the builder instead of fencing the
  /// query FIFO. Unused (always empty) in fenced and static mode.
  std::deque<Pending> update_queue_ MPS_GUARDED_BY(mutex_);
  bool accepting_ MPS_GUARDED_BY(mutex_) = true;
  ServeStats stats_ MPS_GUARDED_BY(mutex_);

  // Dispatcher-thread-only state (no lock: one owner).
  std::vector<LocalEdgeView> views_;
  std::uint32_t views_delta_ = 0;
  /// Publish sequence the views reflect (0 = never built).
  std::uint64_t views_seq_ = 0;
  bool views_ready_ = false;
  /// Dispatcher trace lane, registered on the dispatcher thread's first
  /// step (null when config_.trace is null).
  TraceLane* dlane_ = nullptr;
  /// Builder trace lane (MVCC mode; fenced updates trace into dlane_).
  TraceLane* blane_ = nullptr;

  // Metrics handles (null when config_.metrics is null). The registry owns
  // the instruments; references stay valid for its lifetime.
  Counter* m_submitted_ = nullptr;
  Counter* m_completed_ = nullptr;
  Counter* m_cache_hits_ = nullptr;
  Counter* m_cache_misses_ = nullptr;
  Counter* m_updates_ = nullptr;
  /// Global synchronizations (allreduces + barriers) the per-root solves
  /// paid, cumulatively — the latency tax async_cold_queries removes.
  Counter* m_barriers_ = nullptr;
  Gauge* g_queue_depth_ = nullptr;
  Gauge* g_graph_version_ = nullptr;
  Gauge* g_cache_evictions_ = nullptr;
  Gauge* g_cache_version_misses_ = nullptr;
  Gauge* g_cache_invalidations_ = nullptr;
  Gauge* g_snapshots_live_ = nullptr;
  Gauge* g_oldest_pinned_ = nullptr;
  Gauge* g_retire_latency_ = nullptr;
  Histogram* h_latency_ = nullptr;
  Histogram* h_batch_size_ = nullptr;

  std::unique_ptr<ServiceThread> dispatcher_;  ///< stopped first
  /// MVCC mode only: the single thread that mutates the DynamicGraph.
  std::unique_ptr<ServiceThread> builder_;
};

}  // namespace parsssp
