#include "core/async_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

namespace parsssp {
namespace {

/// How long a passive rank parks on its inbox between quiescence polls.
/// Long enough not to burn a core spinning, short enough that the token
/// ring closes its circuits in a handful of wakeups.
constexpr std::chrono::microseconds kIdleWait{50};

/// Bounded-asynchrony window: a rank only relaxes buckets at most this
/// many levels above the slowest published frontier (LevelBoard).
/// Uncontrolled speculation relaxes many times more edges than the
/// synchronous schedule — a rank races through its high buckets on
/// distances a slower peer is about to improve — and that redone work is
/// pure loss whenever ranks outnumber cores. The window recovers the
/// synchronous schedule's work efficiency without its collectives: the
/// board is relaxed atomics, a throttled rank parks on its inbox (woken
/// early by any delivery), and the minimum rank is never throttled.
constexpr std::uint64_t kSpeculationWindow = 0;

}  // namespace

AsyncEngine::AsyncEngine(RankCtx& ctx, const EngineJob& job,
                         const SsspOptions& options,
                         AsyncChannel<RelaxMsg>& channel, LevelBoard& board)
    : ctx_(ctx),
      job_(job),
      opt_(options),
      view_((*job.views)[ctx.rank()]),
      channel_(channel),
      board_(board),
      begin_(job.part.begin(ctx.rank())),
      nloc_(job.part.count(ctx.rank())),
      pq_(options.delta),
      detector_(ctx.rank(), ctx.num_ranks()),
      cost_(options.cost_model) {
  dist_ = std::span<dist_t>(job_.dist->data() + begin_, nloc_);
  if (job_.parent != nullptr) {
    parent_ = std::span<vid_t>(job_.parent->data() + begin_, nloc_);
  }
  out_pool_.configure(/*lanes=*/1, ctx_.num_ranks());
  in_pending_.assign(nloc_, 0);

  sync0_allreduces_ = ctx_.traffic().allreduces;
  sync0_barriers_ = ctx_.traffic().barriers;

  if (opt_.trace != nullptr) {
    tlane_ = &opt_.trace->thread_lane(
        "rank" + std::to_string(ctx_.rank()));
  }
}

void AsyncEngine::init() {
  // Each rank only ever touches its own dist/parent slice, and inbound
  // batches park in the channel until their owner drains them — so no
  // start-of-solve barrier is needed: a rank that finishes init late has
  // simply not drained yet.
  std::fill(dist_.begin(), dist_.end(), kInfDist);
  if (!parent_.empty()) {
    std::fill(parent_.begin(), parent_.end(), kInvalidVid);
  }
  if (job_.part.owner(job_.root) == ctx_.rank()) {
    const vid_t local = to_local(job_.root);
    dist_[local] = 0;
    if (!parent_.empty()) parent_[local] = job_.root;
    pq_.push(local, 0);
  }
}

void AsyncEngine::apply_local(vid_t local, dist_t nd, vid_t pred) {
  if (nd >= dist_[local]) return;
  dist_[local] = nd;
  if (!parent_.empty()) parent_[local] = pred;
  // Lazy re-queue: a previous, higher entry for this vertex may still sit
  // in the queue; it is skipped at pop time (d != dist_[v]).
  pq_.push(local, nd);
}

void AsyncEngine::apply_batch(std::vector<RelaxMsg>& msgs) {
  for (const RelaxMsg& m : msgs) {
    apply_local(to_local(m.v), m.nd, m.pred);
  }
}

void AsyncEngine::ensure_phase() {
  // Shards accumulate across the relax rounds of one bucket level and are
  // flushed at the level boundary (main_loop), so the pool phase opens
  // lazily: exactly one begin_phase per flush. Nothing may push into a
  // shard outside an open phase — begin_phase clears shard sizes.
  if (phase_open_) return;
  out_pool_.begin_phase();
  phase_open_ = true;
}

void AsyncEngine::relax_arcs(vid_t v, dist_t d, std::span<const Arc> arcs) {
  const rank_t self = ctx_.rank();
  for (const Arc& a : arcs) {
    const dist_t nd = d + a.w;
    ++counters_.async_relaxations;
    const rank_t owner = job_.part.owner(a.to);
    if (owner == self) {
      // Intra-rank work never crosses the network: applied on the spot,
      // invisible to the quiescence balance.
      apply_local(to_local(a.to), nd, to_global(v));
    } else {
      out_pool_.shard(0, owner).push_back({a.to, nd, to_global(v)});
    }
  }
}

void AsyncEngine::relax_one_batch() {
  ensure_phase();
  pq_.pop_batch(batch_);
  for (const auto& [v, d] : batch_) {
    if (d != dist_[v]) continue;  // stale lazy entry, already improved
    // Delta-stepping's light/heavy split, asynchronously: a within-level
    // reactivation re-relaxes only the short arcs (the ones that can feed
    // the same level back); long arcs are deferred to close_level so each
    // settles once per level with the best distance known at the boundary,
    // instead of once per improvement of its source.
    relax_arcs(v, d, view_.short_arcs(v));
    if (!in_pending_[v] && !view_.long_arcs(v).empty()) {
      in_pending_[v] = 1;
      long_pending_.push_back(v);
    }
  }
}

bool AsyncEngine::close_level() {
  const bool had_pending = !long_pending_.empty();
  if (had_pending) {
    ensure_phase();
    for (const vid_t v : long_pending_) {
      in_pending_[v] = 0;
      // dist_ may have improved since the vertex was queued here — the
      // long arcs go out with the best distance this rank knows at the
      // boundary. A still-later improvement re-queues the vertex, which
      // re-registers it for the level it then settles in, so every arc's
      // final relaxation uses the final distance.
      relax_arcs(v, dist_[v], view_.long_arcs(v));
    }
    long_pending_.clear();
  }
  const bool posted = flush_sends();
  return had_pending || posted;
}

bool AsyncEngine::flush_sends() {
  if (!phase_open_) return false;
  phase_open_ = false;
  bool posted = false;
  const rank_t self = ctx_.rank();
  const rank_t ranks = ctx_.num_ranks();
  for (rank_t d = 0; d < ranks; ++d) {
    if (d == self) continue;
    std::vector<RelaxMsg>& shard = out_pool_.shard(0, d);
    if (shard.empty()) continue;
    const std::uint64_t n = shard.size();
    // Lower the recipient's board slot to this batch's frontier before it
    // is even delivered, so the speculation window sees in-flight work.
    std::uint64_t minb = kInfBucket;
    for (const RelaxMsg& m : shard) {
      minb = std::min(minb, bucket_of(m.nd, opt_.delta));
    }
    board_.donate(d, minb);
    ctx_.traffic().add(PhaseKind::kAsync, n, n * sizeof(RelaxMsg));
    bytes_sent_ += n * sizeof(RelaxMsg);
    // Count the send before posting: the receiver may drain and count the
    // receive the instant the inbox lock drops.
    detector_.on_send(n);
    channel_.post(self, d, std::move(shard));
    posted = true;
  }
  return posted;
}

void AsyncEngine::main_loop() {
  const rank_t self = ctx_.rank();
  while (!channel_.done(self)) {
    bool worked = false;

    arrived_.clear();
    const std::size_t got = channel_.drain(self, arrived_);
    if (got != 0) {
      ScopedSpan span(tlane_, SpanCat::kAsyncDrain, got);
      detector_.on_receive(got);
      for (auto& batch : arrived_) {
        apply_batch(batch.msgs);
        // Retire the drained buffer into the pool's free list; the next
        // begin_phase() re-seats it as an outgoing shard — capacity
        // migrates across ranks and balances out over the solve.
        out_pool_.push_incoming(batch.source, std::move(batch.msgs));
      }
      worked = true;
    }

    QuiescenceToken token;
    if (channel_.take_token(self, token)) detector_.receive_token(token);

    if (!pq_.empty()) {
      const std::uint64_t next = pq_.min_bucket();
      board_.publish(self, next);
      if (next > board_.global_min() + kSpeculationWindow) {
        // A peer's frontier is still below the window: relaxing this
        // bucket now is work that frontier is about to invalidate. Make
        // our own frontier visible to it, then yield — not a timed park:
        // board advances carry no notification, and a yield hands the
        // core straight to the frontier rank when ranks outnumber cores,
        // where a timer would serialize every level behind its timeout.
        // (publish precedes the read, so the minimum rank always sees
        // next == global_min and is never throttled — progress holds.)
        close_level();
        std::this_thread::yield();
        continue;
      }
      ScopedSpan span(tlane_, SpanCat::kAsyncRelax);
      relax_one_batch();
      // Close at bucket-level boundaries, not per relax round: the
      // deferred long arcs go out once per level, and cascaded same-level
      // work lands in the same shards, so one post per (level,
      // destination) replaces a notify storm of micro-batches — the async
      // analogue of the synchronous engine's per-phase exchange.
      if (pq_.empty() || pq_.min_bucket() != next) close_level();
      worked = true;
    } else {
      board_.publish(self, kInfBucket);
    }
    // Re-check the inbox before declaring this rank passive: the batch we
    // just relaxed may already have produced replies.
    if (worked) continue;

    // Termination safety net: nothing may sit unsent or deferred once this
    // rank calls itself passive — the detector's balance only covers
    // posted batches, and deferred long arcs are future work. (Unreachable
    // in the current flow, since every relax round above either keeps the
    // queue non-empty or closes the level; cheap to keep exact.)
    if (close_level()) continue;

    const QuiescenceRank::Action action = detector_.poll(/*passive=*/true);
    if (action.kind == QuiescenceRank::ActionKind::kTerminate) {
      ScopedSpan span(tlane_, SpanCat::kQuiescence);
      channel_.announce_done();
      break;
    }
    if (action.kind == QuiescenceRank::ActionKind::kForward) {
      ScopedSpan span(tlane_, SpanCat::kQuiescence, action.token.round);
      ++token_hops_;
      channel_.post_token(action.dest, action.token);
      continue;
    }
    // Nothing to do and no token to move: park until a delivery (or give
    // up after kIdleWait and re-poll — wakeups may be missed by design).
    channel_.wait(self, kIdleWait);
  }
}

RankCounters AsyncEngine::run() {
  ctx_.set_trace(tlane_);
  double total_wall = 0;
  {
    PhaseTimer total(total_wall);
    init();
    main_loop();
  }
  ctx_.set_trace(nullptr);
  // The async loop has no bucket bookkeeping; all wall time is OtherTime.
  counters_.wall_other_time_s = total_wall;
  finalize();
  return counters_;
}

void AsyncEngine::finalize() {
  // The one collective of the whole solve (+1 counts it). The barrier-free
  // claim is checked, not asserted: sssp_cli --validate prints
  // SsspStats::global_syncs() and bench/async_latency gates on it.
  counters_.allreduces = ctx_.traffic().allreduces - sync0_allreduces_ + 1;
  counters_.barriers = ctx_.traffic().barriers - sync0_barriers_;

  struct AsyncReduce {
    double wall = 0;
    std::uint64_t work = 0;
    std::uint64_t bytes = 0;
    std::uint64_t rounds = 0;  ///< nonzero on rank 0 only (probe launcher)
    std::uint64_t hops = 0;
    std::uint64_t allreduces = 0;
    std::uint64_t barriers = 0;
  };
  struct AsyncReduceOp {
    AsyncReduce operator()(const AsyncReduce& a, const AsyncReduce& b) const {
      return {std::max(a.wall, b.wall),     std::max(a.work, b.work),
              std::max(a.bytes, b.bytes),   std::max(a.rounds, b.rounds),
              a.hops + b.hops,              std::max(a.allreduces, b.allreduces),
              std::max(a.barriers, b.barriers)};
    }
  };
  const AsyncReduce red = ctx_.allreduce(
      AsyncReduce{counters_.wall_other_time_s, counters_.async_relaxations,
                  bytes_sent_, detector_.rounds_started(), token_hops_,
                  counters_.allreduces, counters_.barriers},
      AsyncReduceOp{});

  if (ctx_.rank() == 0) {
    SsspStats& s = *job_.stats;
    s.sync_allreduces = red.allreduces;
    s.sync_barriers = red.barriers;
    s.quiescence_rounds = red.rounds;
    s.token_hops = red.hops;
    // No phase/bucket structure to report: the modeled time is the
    // bottleneck rank's relax work plus its injected bytes, with the
    // superstep latency term charged once per quiescence probe circuit
    // (the only ring-wide waiting the async schedule does).
    const double latency_ns = cost_.step_cost(0, 0);
    const double work_ns = cost_.step_cost(red.work, red.bytes) - latency_ns;
    s.model_other_time_s =
        (work_ns + static_cast<double>(red.rounds) * latency_ns) * 1e-9;
    s.model_bucket_time_s = 0;
    s.model_time_s = s.model_other_time_s;
    s.wall_time_s = red.wall;
    s.wall_bucket_time_s = 0;
    s.wall_other_time_s = red.wall;
  }
}

RankCounters run_async_sssp_job(RankCtx& ctx, const EngineJob& job,
                                const SsspOptions& options,
                                AsyncChannel<RelaxMsg>& channel,
                                LevelBoard& board) {
  AsyncEngine engine(ctx, job, options, channel, board);
  return engine.run();
}

}  // namespace parsssp
