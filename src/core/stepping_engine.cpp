#include "core/stepping_engine.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace parsssp {
namespace {

// All wall-clock reads go through the obs/ helpers (PhaseTimer /
// TimedSection / ScopedSpan), same discipline as the other engines (lint
// rule R8).

/// Per-round accounting reduction: continuation flag, bottleneck work and
/// bytes, total relaxations.
struct RoundReduce {
  std::uint64_t max_work = 0;
  std::uint64_t max_bytes = 0;
  std::uint64_t sum_relax = 0;
};
struct RoundReduceOp {
  RoundReduce operator()(const RoundReduce& a, const RoundReduce& b) const {
    return {std::max(a.max_work, b.max_work),
            std::max(a.max_bytes, b.max_bytes), a.sum_relax + b.sum_relax};
  }
};

/// rho-stepping's bucket-count window: per-bucket queue sizes of the
/// first kRhoWindow buckets at the global minimum, summed across ranks.
/// Sized to fit the 64-byte collective slot.
constexpr std::size_t kRhoWindow = 6;
struct RhoScan {
  std::uint64_t cnt[kRhoWindow] = {};
};
struct RhoScanOp {
  RhoScan operator()(const RhoScan& a, const RhoScan& b) const {
    RhoScan out;
    for (std::size_t j = 0; j < kRhoWindow; ++j) {
      out.cnt[j] = a.cnt[j] + b.cnt[j];
    }
    return out;
  }
};

/// Radius rule inputs: minimum live distance and minimum reach
/// (d(v) + r(v)) over the front bucket, minimized across ranks.
struct RadScan {
  dist_t min_live = kInfDist;
  dist_t min_reach = kInfDist;
};
struct RadScanOp {
  RadScan operator()(const RadScan& a, const RadScan& b) const {
    return {std::min(a.min_live, b.min_live),
            std::min(a.min_reach, b.min_reach)};
  }
};

/// Exclusive upper distance limit of bucket `b`, saturating at kInfDist
/// (speculative long-tail distances can sit in the last buckets before
/// the wrap point).
dist_t bucket_limit(std::uint64_t b, std::uint32_t delta) {
  const dist_t start = static_cast<dist_t>(b) * delta;
  const dist_t end = start + delta;
  return end < start ? kInfDist : end;
}

dist_t saturating_add(dist_t a, dist_t b) {
  const dist_t s = a + b;
  return s < a ? kInfDist : s;
}

}  // namespace

SteppingEngine::SteppingEngine(RankCtx& ctx, const EngineJob& job,
                               const SsspOptions& options)
    : ctx_(ctx),
      job_(job),
      opt_(options),
      view_((*job.views)[ctx.rank()]),
      begin_(job.part.begin(ctx.rank())),
      nloc_(job.part.count(ctx.rank())),
      pq_(options.delta),
      ws_(ctx.workspace<SteppingWorkspace>()),
      cost_(options.cost_model) {
  dist_ = std::span<dist_t>(job_.dist->data() + begin_, nloc_);
  if (job_.parent != nullptr) {
    parent_ = std::span<vid_t>(job_.parent->data() + begin_, nloc_);
  }
  ws_.relax_pool.configure(/*lanes=*/1, ctx_.num_ranks());
  ws_.filter.ensure(job_.part.num_vertices());

  sync0_allreduces_ = ctx_.traffic().allreduces;
  sync0_barriers_ = ctx_.traffic().barriers;

  if (opt_.trace != nullptr) {
    tlane_ = &opt_.trace->thread_lane(
        "rank" + std::to_string(ctx_.rank()));
  }
}

void SteppingEngine::init() {
  std::fill(dist_.begin(), dist_.end(), kInfDist);
  if (!parent_.empty()) {
    std::fill(parent_.begin(), parent_.end(), kInvalidVid);
  }
  if (job_.part.owner(job_.root) == ctx_.rank()) {
    dist_[to_local(job_.root)] = 0;
    if (!parent_.empty()) parent_[to_local(job_.root)] = job_.root;
    pq_.push(job_.root, 0);
  }
  if (opt_.algo == SsspAlgo::kRadius) compute_radii();
}

void SteppingEngine::compute_radii() {
  r_.assign(nloc_, 1);
  const std::uint32_t k = std::max<std::uint32_t>(1, opt_.radius_k);
  std::vector<weight_t> weights;
  for (vid_t lv = 0; lv < nloc_; ++lv) {
    const std::span<const Arc> arcs = view_.all_arcs(lv);
    if (arcs.empty()) continue;
    weights.clear();
    for (const Arc& a : arcs) weights.push_back(a.w);
    const std::size_t idx =
        std::min<std::size_t>(k, weights.size()) - 1;
    std::nth_element(weights.begin(), weights.begin() + idx, weights.end());
    r_[lv] = weights[idx];
  }
}

bool SteppingEngine::any_active_globally(bool local_active) {
  TimedSection sw(counters_.wall_bucket_time_s, tlane_, SpanCat::kBucketScan);
  const bool any =
      ctx_.allreduce(static_cast<std::uint64_t>(local_active), OrOp{}) != 0;
  model_bkt_ns_ += cost_.scan_cost(0);
  return any;
}

dist_t SteppingEngine::step_threshold() {
  TimedSection sw(counters_.wall_bucket_time_s, tlane_, SpanCat::kBucketScan);
  const std::uint32_t delta = opt_.delta;
  const std::uint64_t gmin = ctx_.allreduce(pq_.min_bucket(), MinOp{});
  model_bkt_ns_ += cost_.scan_cost(0);
  if (gmin == kInfBucket) return kInfDist;

  switch (opt_.algo) {
    case SsspAlgo::kDeltaStar:
      return bucket_limit(gmin, delta);
    case SsspAlgo::kRho: {
      // Cover front buckets until ~rho queued entries are included. The
      // counts are queue entries (stale included) — an upper bound on
      // live work, which is all the batch-size rule needs; the window is
      // bounded by the collective payload, so a sparse long tail just
      // takes several steps.
      RhoScan local;
      for (std::size_t j = 0; j < kRhoWindow; ++j) {
        local.cnt[j] = pq_.bucket_size(gmin + j);
      }
      const RhoScan global = ctx_.allreduce(local, RhoScanOp{});
      model_bkt_ns_ += cost_.scan_cost(kRhoWindow);
      const std::uint64_t rho = std::max<std::uint32_t>(1, opt_.rho);
      std::uint64_t covered = 0;
      std::uint64_t last = gmin;
      for (std::size_t j = 0; j < kRhoWindow; ++j) {
        covered += global.cnt[j];
        last = gmin + j;
        if (covered >= rho) break;
      }
      return bucket_limit(last, delta);
    }
    case SsspAlgo::kRadius: {
      // min over live front-bucket entries of d(v) + r(v). The fallback
      // (front bucket globally stale, or some r of 0-weight arcs) is a
      // plain bucket step; the max() keeps every step settling at least
      // the globally minimum live vertex.
      RadScan local;
      const std::span<const LazyBucketQueue::Entry> front =
          pq_.entries_of(gmin);
      for (const auto& [v, d] : front) {
        const vid_t lv = to_local(v);
        if (d != dist_[lv]) continue;  // stale
        local.min_live = std::min(local.min_live, d);
        local.min_reach =
            std::min(local.min_reach, saturating_add(d, r_[lv]));
      }
      const RadScan global = ctx_.allreduce(local, RadScanOp{});
      model_bkt_ns_ += cost_.scan_cost(front.size());
      if (global.min_live == kInfDist) return bucket_limit(gmin, delta);
      return std::max(global.min_reach,
                      saturating_add(global.min_live, 1));
    }
    default:
      assert(false && "stepping engine dispatched on a non-stepping algo");
      return bucket_limit(gmin, delta);
  }
}

std::uint64_t SteppingEngine::drain_and_relax(dist_t t) {
  std::uint64_t emitted = 0;
  while (!pq_.empty()) {
    const std::uint64_t b = pq_.min_bucket();
    if (static_cast<dist_t>(b) * opt_.delta >= t) break;
    pq_.pop_batch(batch_);
    for (const auto& [v, d] : batch_) {
      const vid_t lv = to_local(v);
      assert(lv < nloc_);
      if (d != dist_[lv]) continue;  // stale: a lower entry exists
      if (d >= t) {
        // A bucket straddling the threshold (radius rule): live entries
        // at or above t park until the step ends.
        deferred_.push_back({v, d});
        continue;
      }
      for (const Arc& a : view_.all_arcs(lv)) {
        ++emitted;
        // Sender-side reduction at emission time (docs/PERFORMANCE.md).
        if (!ws_.filter.admit(a.to, d + a.w)) continue;
        ws_.relax_pool.shard(0, job_.part.owner(a.to))
            .push_back({a.to, d + a.w, v});
      }
    }
  }
  counters_.stepping_relaxations += emitted;
  return emitted;
}

std::uint64_t SteppingEngine::apply_incoming() {
  std::uint64_t total = 0;
  for (const auto& batch : ws_.relax_pool.incoming()) total += batch.size();
  ScopedSpan span(tlane_, SpanCat::kApply, total);
  for (const auto& batch : ws_.relax_pool.incoming()) {
    for (const RelaxMsg& m : batch) {
      const vid_t local = to_local(m.v);
      assert(local < nloc_);
      if (m.nd >= dist_[local]) continue;
      dist_[local] = m.nd;
      if (!parent_.empty()) parent_[local] = m.pred;
      // Unconditional re-queue: below the step threshold the in-step
      // fixpoint picks it up, above it the entry waits for its step.
      pq_.push(m.v, m.nd);
    }
  }
  return total;
}

void SteppingEngine::account_round(std::uint64_t work, std::uint64_t bytes,
                                   std::uint64_t relax) {
  const RoundReduce red =
      ctx_.allreduce(RoundReduce{work, bytes, relax}, RoundReduceOp{});
  model_other_ns_ += cost_.step_cost(red.max_work, red.max_bytes);
}

void SteppingEngine::settle_below(dist_t t) {
  const std::uint32_t delta = opt_.delta;
  auto has_work_below = [&] {
    if (pq_.empty()) return false;
    return static_cast<dist_t>(pq_.min_bucket()) * delta < t;
  };
  while (any_active_globally(has_work_below())) {
    ++phases_;
    ScopedSpan span(tlane_, SpanCat::kShortPhase, steps_);
    ws_.relax_pool.begin_phase();
    ws_.filter.begin_stream();
    const std::uint64_t emitted = drain_and_relax(t);
    // Messages that crossed (post-reduction): the byte basis.
    const std::uint64_t posted = ws_.relax_pool.pending_messages();
    ctx_.exchange_pooled(ws_.relax_pool, PhaseKind::kShortPhase);
    const std::uint64_t applied = apply_incoming();
    account_round(emitted + applied, posted * sizeof(RelaxMsg), emitted);
  }
}

RankCounters SteppingEngine::run() {
  ctx_.set_trace(tlane_);
  double total_wall = 0;
  {
    PhaseTimer total(total_wall);
    ScopedSpan solve(tlane_, SpanCat::kSolve, ctx_.rank());
    {
      ScopedSpan init_span(tlane_, SpanCat::kInit);
      init();
      ctx_.barrier();
    }
    while (any_active_globally(!pq_.empty())) {
      ++steps_;
      const dist_t t = step_threshold();
      settle_below(t);
      for (const auto& [v, d] : deferred_) pq_.push(v, d);
      deferred_.clear();
    }
  }
  ctx_.set_trace(nullptr);
  counters_.wall_other_time_s = total_wall - counters_.wall_bucket_time_s;
  finalize();
  return counters_;
}

void SteppingEngine::finalize() {
  // Synchronization cost of the solve body (this final reduction included:
  // +1 below); same discipline as the bucket-synchronous engine.
  counters_.allreduces = ctx_.traffic().allreduces - sync0_allreduces_ + 1;
  counters_.barriers = ctx_.traffic().barriers - sync0_barriers_;
  const double wall =
      counters_.wall_bucket_time_s + counters_.wall_other_time_s;
  struct WallReduce {
    double total;
    double bucket;
    std::uint64_t allreduces;
    std::uint64_t barriers;
  };
  struct WallReduceOp {
    WallReduce operator()(const WallReduce& a, const WallReduce& b) const {
      return {std::max(a.total, b.total), std::max(a.bucket, b.bucket),
              std::max(a.allreduces, b.allreduces),
              std::max(a.barriers, b.barriers)};
    }
  };
  const WallReduce wr = ctx_.allreduce(
      WallReduce{wall, counters_.wall_bucket_time_s, counters_.allreduces,
                 counters_.barriers},
      WallReduceOp{});

  if (ctx_.rank() == 0) {
    SsspStats& s = *job_.stats;
    s.sync_allreduces = wr.allreduces;
    s.sync_barriers = wr.barriers;
    s.phases = phases_;
    s.buckets = steps_;
    s.model_bucket_time_s = model_bkt_ns_ * 1e-9;
    s.model_other_time_s = model_other_ns_ * 1e-9;
    s.model_time_s = (model_bkt_ns_ + model_other_ns_) * 1e-9;
    s.wall_time_s = wr.total;
    s.wall_bucket_time_s = wr.bucket;
    s.wall_other_time_s = wr.total - wr.bucket;
  }
}

RankCounters run_stepping_sssp_job(RankCtx& ctx, const EngineJob& job,
                                   const SsspOptions& options) {
  SteppingEngine engine(ctx, job, options);
  return engine.run();
}

}  // namespace parsssp
