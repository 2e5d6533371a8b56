#include "serve/query_engine.hpp"

#include "core/engine_job.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace parsssp {

namespace {
std::size_t clamp_batch(std::size_t requested) {
  return std::min(std::max<std::size_t>(requested, 1), kMaxMultiRoots);
}
}  // namespace

QueryEngine::QueryEngine(const CsrGraph& graph, ServeConfig config)
    : QueryEngine(&graph, /*dynamic=*/nullptr, std::move(config)) {}

QueryEngine::QueryEngine(DynamicGraph& graph, ServeConfig config)
    : QueryEngine(nullptr, &graph, std::move(config)) {}

QueryEngine::QueryEngine(const CsrGraph* graph, DynamicGraph* dynamic,
                         ServeConfig config)
    : static_graph_(graph),
      dynamic_(dynamic),
      manager_(dynamic != nullptr ? dynamic->snapshot_manager() : nullptr),
      config_([&] {
        config.max_batch = clamp_batch(config.max_batch);
        return config;
      }()),
      num_vertices_(dynamic_ != nullptr ? dynamic_->num_vertices()
                                        : static_graph_->num_vertices()),
      part_(num_vertices_, config_.machine.num_ranks),
      cache_(config_.cache_capacity),
      session_(config_.machine),
      tuner_(config_.metrics) {
  if (dynamic_ != nullptr) {
    if (manager_ == nullptr) {
      throw std::invalid_argument(
          "QueryEngine: dynamic serving pins MVCC snapshots; construct the "
          "DynamicGraph with Config::snapshots enabled");
    }
    version_.store(dynamic_->version(), std::memory_order_release);
  }
  {
    MutexLock lock(mutex_);
    stats_.batch_size_histogram.assign(config_.max_batch + 1, 0);
  }
  if (config_.metrics != nullptr) {
    MetricsRegistry& reg = *config_.metrics;
    m_submitted_ = &reg.counter("serve.submitted");
    m_completed_ = &reg.counter("serve.completed");
    m_cache_hits_ = &reg.counter("serve.cache_hits");
    m_cache_misses_ = &reg.counter("serve.cache_misses");
    m_barriers_ = &reg.counter("sssp.barriers");
    g_queue_depth_ = &reg.gauge("serve.queue_depth");
    h_latency_ = &reg.histogram("serve.latency_s");
    // Batch sizes are small integers: start the geometric buckets at 1.
    h_batch_size_ = &reg.histogram("serve.batch_size",
                                   Histogram::Config{1.0, std::pow(2.0, 0.25),
                                                     32});
    if (dynamic_ != nullptr) {
      m_updates_ = &reg.counter("serve.updates");
      g_graph_version_ = &reg.gauge("serve.graph_version");
      g_cache_evictions_ = &reg.gauge("serve.cache_evictions");
      g_cache_version_misses_ = &reg.gauge("serve.cache_version_misses");
      g_cache_invalidations_ = &reg.gauge("serve.cache_invalidations");
      g_snapshots_live_ = &reg.gauge("serve.snapshots_live");
      g_oldest_pinned_ = &reg.gauge("serve.oldest_pinned_version");
      g_retire_latency_ = &reg.gauge("serve.snapshot_retire_latency_s");
      g_graph_version_->set(static_cast<double>(graph_version()));
    }
  }
  dispatcher_ = std::make_unique<ServiceThread>(
      [this] { return dispatch_step(); }, config_.idle_poll);
  if (mvcc()) {
    builder_ = std::make_unique<ServiceThread>(
        [this] { return builder_step(); }, config_.idle_poll);
  }
}

QueryEngine::~QueryEngine() {
  {
    MutexLock lock(mutex_);
    accepting_ = false;
  }
  // Stop the service threads first: after these joins no new batch can
  // open and no update can start, so draining the queues races with
  // nothing. Clients keeping SnapshotRefs are unaffected — their versions
  // are self-contained and reclaim themselves on the last unpin.
  dispatcher_.reset();
  builder_.reset();
  std::deque<Pending> orphaned;
  {
    MutexLock lock(mutex_);
    orphaned.swap(queue_);
    for (Pending& p : update_queue_) orphaned.push_back(std::move(p));
    update_queue_.clear();
    stats_.cancelled += orphaned.size();
  }
  for (Pending& p : orphaned) {
    p.fail(std::make_exception_ptr(
        JobCancelled("QueryEngine destroyed before the query was served")));
  }
  // session_ (and its rank threads) is torn down by member destruction.
}

std::future<QueryResult> QueryEngine::submit(vid_t root,
                                             const SsspOptions& options) {
  if (root >= num_vertices_) {
    throw std::out_of_range("QueryEngine::submit: root " +
                            std::to_string(root) +
                            " out of range (graph has " +
                            std::to_string(num_vertices_) +
                            " vertices)");
  }
  check_options("QueryEngine::submit", options);
  Pending p;
  p.root = root;
  p.options = options;
  p.signature = options_signature(options);
  p.submitted_at = std::chrono::steady_clock::now();
  std::future<QueryResult> fut = p.promise.get_future();
  {
    MutexLock lock(mutex_);
    if (!accepting_) {
      throw std::logic_error(
          "QueryEngine::submit on an engine that is shutting down");
    }
    queue_.push_back(std::move(p));
    ++stats_.submitted;
    if (g_queue_depth_ != nullptr) {
      g_queue_depth_->set(static_cast<double>(queue_.size()));
    }
  }
  if (m_submitted_ != nullptr) m_submitted_->inc();
  dispatcher_->wake();
  return fut;
}

QueryResult QueryEngine::query(vid_t root, const SsspOptions& options) {
  return submit(root, options).get();
}

std::future<UpdateResult> QueryEngine::apply_updates(EdgeBatch batch) {
  if (dynamic_ == nullptr) {
    throw std::logic_error(
        "QueryEngine::apply_updates: engine serves an immutable graph "
        "(construct it from a DynamicGraph to accept updates)");
  }
  Pending p;
  p.kind = Pending::Kind::kUpdate;
  p.updates = std::move(batch);
  p.submitted_at = std::chrono::steady_clock::now();
  std::future<UpdateResult> fut = p.update_promise.get_future();
  const bool to_builder = mvcc();
  {
    MutexLock lock(mutex_);
    if (!accepting_) {
      throw std::logic_error(
          "QueryEngine::apply_updates on an engine that is shutting down");
    }
    // MVCC: updates queue for the builder thread and never fence queries.
    // Fenced: updates ride the query FIFO as barriers.
    (to_builder ? update_queue_ : queue_).push_back(std::move(p));
    if (!to_builder && g_queue_depth_ != nullptr) {
      g_queue_depth_->set(static_cast<double>(queue_.size()));
    }
  }
  (to_builder ? builder_ : dispatcher_)->wake();
  return fut;
}

UpdateResult QueryEngine::update(EdgeBatch batch) {
  return apply_updates(std::move(batch)).get();
}

SnapshotRef QueryEngine::current_snapshot() const {
  if (manager_ == nullptr) {
    throw std::logic_error(
        "QueryEngine::current_snapshot: static engines have no snapshots");
  }
  return manager_->current();
}

std::size_t QueryEngine::cancel_pending() {
  std::deque<Pending> cancelled;
  {
    MutexLock lock(mutex_);
    cancelled.swap(queue_);
    for (Pending& p : update_queue_) cancelled.push_back(std::move(p));
    update_queue_.clear();
    stats_.cancelled += cancelled.size();
  }
  for (Pending& p : cancelled) {
    p.fail(std::make_exception_ptr(
        JobCancelled("query cancelled before its batch closed")));
  }
  return cancelled.size();
}

ServeStats QueryEngine::stats() const {
  ServeStats out;
  {
    MutexLock lock(mutex_);
    out = stats_;
  }
  out.cache = cache_.counters();
  out.graph_version = graph_version();
  if (manager_ != nullptr) {
    manager_->collect();
    const SnapshotManager::Stats s = manager_->stats();
    out.snapshots_published = s.published;
    out.snapshots_reclaimed = s.reclaimed;
    out.snapshots_live = s.live;
    out.oldest_pinned_version = s.oldest_pinned_version;
  }
  return out;
}

bool QueryEngine::dispatch_step() {
  // First step on the dispatcher thread: register its trace lane.
  if (config_.trace != nullptr && dlane_ == nullptr) {
    dlane_ = &config_.trace->thread_lane("serve-dispatcher");
  }
  std::vector<Pending> batch;
  const std::int64_t t0 = dlane_ != nullptr ? dlane_->now_ns() : 0;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    const auto now = std::chrono::steady_clock::now();
    // Fenced mode only — MVCC routes updates to the builder, so the query
    // FIFO never contains one. An update at the head closes immediately as
    // its own single-item batch: it is a barrier between the graph
    // versions on either side, and making it wait for batchmates would
    // only add latency.
    if (queue_.front().kind == Pending::Kind::kUpdate) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (g_queue_depth_ != nullptr) {
        g_queue_depth_->set(static_cast<double>(queue_.size()));
      }
    } else {
      const bool full = queue_.size() >= config_.max_batch;
      const bool due =
          now - queue_.front().submitted_at >= config_.batch_window;
      // An update anywhere in the queue is a fence: later arrivals land
      // behind it, so waiting can never grow the head prefix — close it now
      // instead of letting the window run out in front of the fence.
      const bool fenced =
          std::any_of(queue_.begin(), queue_.end(), [](const Pending& p) {
            return p.kind == Pending::Kind::kUpdate;
          });
      if (!full && !due && !fenced) {
        return false;  // park; idle_poll re-checks the window
      }
      // Close the longest same-signature query prefix: a batch is one sweep
      // under one option set. A query with a different signature — or any
      // update — waits its turn (FIFO keeps admission order, so nothing
      // starves and updates stay ordered against queries).
      const std::string signature = queue_.front().signature;
      while (!queue_.empty() && batch.size() < config_.max_batch &&
             queue_.front().kind == Pending::Kind::kQuery &&
             queue_.front().signature == signature) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++stats_.batches;
      ++stats_.batch_size_histogram[batch.size()];
      if (g_queue_depth_ != nullptr) {
        g_queue_depth_->set(static_cast<double>(queue_.size()));
      }
    }
  }
  if (batch.front().kind == Pending::Kind::kUpdate) {
    serve_update(std::move(batch.front()));
    return true;
  }
  if (dlane_ != nullptr) {
    // The batch-close span covers the queue pop; each query additionally
    // gets an admission span reconstructed from its submit timestamp — its
    // time waiting in the queue for batchmates.
    const std::int64_t closed = dlane_->now_ns();
    dlane_->record(SpanCat::kBatchClose, t0, closed - t0, batch.size());
    for (const Pending& p : batch) {
      const std::int64_t s = dlane_->to_ns(p.submitted_at);
      dlane_->record(SpanCat::kAdmission, s, closed - s, p.root);
    }
  }
  if (h_batch_size_ != nullptr) {
    h_batch_size_->record(static_cast<double>(batch.size()));
  }
  serve_batch(std::move(batch));
  return true;
}

bool QueryEngine::builder_step() {
  // First step on the builder thread: register its trace lane and route
  // the manager's publish/retire spans into it.
  if (config_.trace != nullptr && blane_ == nullptr) {
    blane_ = &config_.trace->thread_lane("serve-builder");
    manager_->set_trace_lane(blane_);
  }
  Pending update;
  {
    MutexLock lock(mutex_);
    if (update_queue_.empty()) return false;
    update = std::move(update_queue_.front());
    update_queue_.pop_front();
  }
  serve_update(std::move(update));
  return true;
}

void QueryEngine::serve_batch(std::vector<Pending> batch) {
  // Pin the newest published version for the whole batch. Queries keep
  // this snapshot — base CSR included — alive through solve and cache
  // admission, whatever the builder publishes or compacts meanwhile.
  SnapshotRef snap;
  if (manager_ != nullptr) snap = manager_->current();
  const std::uint64_t version = snap ? snap->version() : 0;

  const auto fulfill = [this, version](
                           Pending& p,
                           std::shared_ptr<const QueryAnswer> answer,
                           bool from_cache) {
    // Count before fulfilling: a client whose future has resolved must
    // already see itself in stats().completed.
    {
      MutexLock lock(mutex_);
      ++stats_.completed;
    }
    const auto now = std::chrono::steady_clock::now();
    if (m_completed_ != nullptr) m_completed_->inc();
    if (h_latency_ != nullptr) {
      h_latency_->record(
          std::chrono::duration<double>(now - p.submitted_at).count());
    }
    p.promise.set_value(
        QueryResult{std::move(answer), from_cache, version, now});
  };

  // Cache pass: hits complete immediately, misses proceed to the machine.
  // Every lookup/insert is keyed by the pinned snapshot's version — the
  // version this batch actually serves, not whatever is newest — so a
  // pre-update answer can never satisfy a post-update query and vice
  // versa.
  std::vector<Pending> misses;
  {
    ScopedSpan span(dlane_, SpanCat::kCacheLookup, batch.size());
    for (Pending& p : batch) {
      if (auto hit = cache_.lookup(p.root, p.signature, version)) {
        if (m_cache_hits_ != nullptr) m_cache_hits_->inc();
        fulfill(p, std::move(hit), /*from_cache=*/true);
      } else {
        if (m_cache_misses_ != nullptr) m_cache_misses_->inc();
        misses.push_back(std::move(p));
      }
    }
  }
  if (!misses.empty()) {
    // Dedup roots: batchmates querying the same root share one computation.
    std::vector<vid_t> unique;
    std::vector<std::size_t> slot_of(misses.size());
    {
      std::unordered_map<vid_t, std::size_t> index;
      for (std::size_t i = 0; i < misses.size(); ++i) {
        const auto [it, inserted] =
            index.emplace(misses[i].root, unique.size());
        if (inserted) unique.push_back(misses[i].root);
        slot_of[i] = it->second;
      }
    }

    const std::vector<std::shared_ptr<const QueryAnswer>> answers =
        compute(unique, misses.front().options, snap);

    for (std::size_t s = 0; s < unique.size(); ++s) {
      cache_.insert(unique[s], misses.front().signature, answers[s], version);
    }
    for (std::size_t i = 0; i < misses.size(); ++i) {
      fulfill(misses[i], answers[slot_of[i]], /*from_cache=*/false);
    }
    refresh_cache_metrics();
  }
  if (manager_ != nullptr) {
    // Drop the batch's pin before refreshing the gauges, so a snapshot
    // kept alive only by this batch is reclaimed (and counted) now rather
    // than at the next update.
    snap.reset();
    refresh_snapshot_metrics();
  }
}

void QueryEngine::serve_update(Pending update) {
  // Runs on the builder thread in MVCC mode, the dispatcher in fenced
  // mode; either way this is the DynamicGraph's only mutator.
  TraceLane* lane = mvcc() ? blane_ : dlane_;
  if (lane != nullptr && !mvcc()) manager_->set_trace_lane(lane);
  ScopedSpan span(lane, SpanCat::kUpdateApply, update.updates.size());
  AppliedBatch applied;
  try {
    applied = dynamic_->apply(update.updates);
  } catch (...) {
    // Validation failure: the graph (and therefore snapshots, cache,
    // version) is untouched; the client gets the error, serving continues.
    update.update_promise.set_exception(std::current_exception());
    return;
  }
  version_.store(applied.version, std::memory_order_release);
  {
    MutexLock lock(mutex_);
    ++stats_.updates;
    stats_.graph_version = applied.version;
  }
  if (m_updates_ != nullptr) m_updates_->inc();
  refresh_snapshot_metrics();
  update.update_promise.set_value(
      UpdateResult{applied.version, applied.ops.size(), applied.compacted,
                   std::chrono::steady_clock::now()});
}

void QueryEngine::refresh_cache_metrics() {
  if (g_cache_evictions_ == nullptr) return;
  const ResultCache::Counters c = cache_.counters();
  g_cache_evictions_->set(static_cast<double>(c.evictions));
  g_cache_version_misses_->set(static_cast<double>(c.version_misses));
  g_cache_invalidations_->set(static_cast<double>(c.invalidations));
}

void QueryEngine::refresh_snapshot_metrics() {
  if (manager_ == nullptr) return;
  manager_->collect();
  if (g_graph_version_ == nullptr) return;
  const SnapshotManager::Stats s = manager_->stats();
  g_graph_version_->set(static_cast<double>(s.head_version));
  g_snapshots_live_->set(static_cast<double>(s.live));
  g_oldest_pinned_->set(static_cast<double>(s.oldest_pinned_version));
  g_retire_latency_->set(s.retire_latency_last_s);
}

QueryAnswer QueryEngine::solve_one(vid_t root, const SsspOptions& options,
                                   const CsrGraph* graph,
                                   const SnapshotRef& snap,
                                   const std::shared_ptr<void>& keepalive) {
  ensure_views(options.delta, snap);
  QueryAnswer answer;
  answer.root = root;
  // The base CSR may lag the logical graph; give the push/pull estimator
  // the snapshot's weight bound instead.
  run_engine(session_,
             {.graph = graph,
              .part = part_,
              .views = &views_,
              .dist = &answer.dist,
              .parent = options.track_parents ? &answer.parent : nullptr,
              .root = root,
              .stats = &answer.stats,
              .max_weight = snap ? snap->max_weight() : 0},
             options, keepalive);
  return answer;
}

std::vector<std::shared_ptr<const QueryAnswer>> QueryEngine::compute(
    const std::vector<vid_t>& roots, const SsspOptions& opts_in,
    const SnapshotRef& snap) {
  ScopedSpan span(dlane_, SpanCat::kServeSolve, roots.size());
  // Served solves trace into the engine's recorder, whatever the client
  // put in its options (trace is excluded from the batch signature).
  SsspOptions options = opts_in;
  options.trace = config_.trace;
  // The graph the engines see: the snapshot's base CSR (its arcs may lag
  // the logical graph — engines read adjacency through the views, which
  // ensure_views synced to the snapshot) or the static graph. The session
  // job additionally pins the snapshot for its own lifetime, so the data
  // it reads outlives even an engine teardown racing a late rank.
  const CsrGraph* graph = snap ? &snap->base() : static_graph_;
  const std::shared_ptr<void> keepalive =
      snap ? std::make_shared<SnapshotRef>(snap) : nullptr;

  // Auto-tune rewrite (docs/STEPPING.md): a cold single-root query on the
  // default algorithm runs on this version's learned engine config. The
  // first such query per version triggers the probe pass, right here on
  // the dispatcher. Answers are bit-identical across the candidate space,
  // so the rewrite never changes what gets cached — only its cost.
  if (config_.auto_tune && roots.size() == 1 &&
      options.algo == SsspAlgo::kBucketSync &&
      (!options.track_parents || options.canonical_parents)) {
    const std::uint64_t version = snap ? snap->version() : 0;
    const vid_t probe_root = roots[0];
    const TunedConfig tuned = tuner_.tune(
        version, *graph, options, [&](SsspOptions candidate) {
          candidate.track_parents = false;  // probes keep only the stats
          return solve_one(probe_root, candidate, graph, snap, keepalive)
              .stats;
        });
    options = tuned.apply(options);
  }
  ensure_views(options.delta, snap);
  std::vector<std::shared_ptr<const QueryAnswer>> answers;
  answers.reserve(roots.size());

  // Parent tracking (and the degenerate one-root batch) runs the full
  // per-root engine: parents come out exactly as from Solver::solve, and
  // single queries skip the batched engine's slot overhead. The async and
  // stepping engines (explicit client choice, or the auto-tune rewrite
  // above) are single-root by construction, so they ride this path too.
  if (options.track_parents || roots.size() == 1 ||
      options.algo == SsspAlgo::kAsync || is_stepping_algo(options.algo)) {
    // Cold single-root queries run barrier-free when the engine is
    // configured for it (compute() only sees cache misses); parents must
    // be canonical for the answers to stay interchangeable.
    if (options.algo == SsspAlgo::kBucketSync && config_.async_cold_queries &&
        roots.size() == 1 &&
        (!options.track_parents || options.canonical_parents)) {
      options.algo = SsspAlgo::kAsync;
    }
    for (const vid_t root : roots) {
      auto answer = std::make_shared<QueryAnswer>(
          solve_one(root, options, graph, snap, keepalive));
      if (m_barriers_ != nullptr) {
        m_barriers_->inc(answer->stats.global_syncs());
      }
      answers.push_back(std::move(answer));
      MutexLock lock(mutex_);
      ++stats_.single_solves;
    }
    return answers;
  }

  // Batched path: one shared sweep for the whole batch (roots.size() <=
  // max_batch <= kMaxMultiRoots by construction).
  std::vector<std::vector<dist_t>> dists(roots.size());
  const MultiStats multi_stats = run_multi_engine(
      session_, part_, views_, roots, dists, options, keepalive);
  for (std::size_t s = 0; s < roots.size(); ++s) {
    // Batched-path statistics: relaxations are per root (exact), structure
    // and times are batch-level — the sweep is shared, so per-root time
    // attribution would be fiction. See docs/SERVING.md.
    auto answer = std::make_shared<QueryAnswer>();
    answer->root = roots[s];
    answer->dist = std::move(dists[s]);
    SsspStats& st = answer->stats;
    st.short_relaxations = multi_stats.per_root_relaxations[s];
    st.phases = multi_stats.phases;
    st.buckets = multi_stats.epochs;
    st.model_time_s = multi_stats.model_time_s;
    st.wall_time_s = multi_stats.wall_time_s;
    answers.push_back(std::move(answer));
  }
  {
    MutexLock lock(mutex_);
    ++stats_.multi_sweeps;
  }
  return answers;
}

void QueryEngine::ensure_views(std::uint32_t delta, const SnapshotRef& snap) {
  const std::uint64_t seq = snap ? snap->publish_seq() : 1;
  if (views_ready_ && views_delta_ == delta && views_seq_ == seq) return;
  if (snap && views_ready_ && views_delta_ == delta && views_seq_ < seq) {
    // Patch forward through the manager's bounded publish log: cheaper
    // than a rebuild when few vertices changed since the views' sequence.
    // nullopt means the range crossed a compaction or aged out.
    if (const auto touched = manager_->touched_between(views_seq_, seq)) {
      for (const vid_t v : *touched) {
        const rank_t r = part_.owner(v);
        views_[r].patch_vertex(v - part_.begin(r), snap->arcs_of(v));
      }
      views_seq_ = seq;
      return;
    }
  }
  views_.assign(session_.num_ranks(), LocalEdgeView{});
  const GraphSnapshot* s = snap.get();
  const std::shared_ptr<void> keepalive =
      snap ? std::make_shared<SnapshotRef>(snap) : nullptr;
  session_
      .submit(
          [this, delta, s](RankCtx& ctx) {
            views_[ctx.rank()] =
                s != nullptr
                    ? s->build_local_view(part_, ctx.rank(), delta)
                    : LocalEdgeView::build(*static_graph_, part_, ctx.rank(),
                                           delta);
          },
          keepalive)
      .get();
  views_delta_ = delta;
  views_seq_ = seq;
  views_ready_ = true;
}

}  // namespace parsssp
