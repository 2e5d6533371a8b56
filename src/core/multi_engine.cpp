#include "core/multi_engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>

#include "core/buckets.hpp"
#include "obs/trace.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace parsssp {
namespace {

// Wall-clock reads go through the obs/ helpers (PhaseTimer / TimedSection /
// ScopedSpan) so every accounted interval is a trace span — lint rule R8.

// Collective slots carry at most kSlotBytes (64) bytes, so per-slot vectors
// (next buckets, relax counts) are reduced in chunks of eight uint64s.
using Chunk = std::array<std::uint64_t, 8>;
inline constexpr std::size_t kChunkLen = std::tuple_size_v<Chunk>;

struct ChunkMinOp {
  Chunk operator()(const Chunk& a, const Chunk& b) const {
    Chunk r;
    for (std::size_t i = 0; i < kChunkLen; ++i) r[i] = std::min(a[i], b[i]);
    return r;
  }
};
struct ChunkSumOp {
  Chunk operator()(const Chunk& a, const Chunk& b) const {
    Chunk r;
    for (std::size_t i = 0; i < kChunkLen; ++i) r[i] = a[i] + b[i];
    return r;
  }
};

struct StepReduce {
  std::uint64_t max_work = 0;
  std::uint64_t max_bytes = 0;
  std::uint64_t sum_relax = 0;
};
struct StepReduceOp {
  StepReduce operator()(const StepReduce& a, const StepReduce& b) const {
    return {std::max(a.max_work, b.max_work),
            std::max(a.max_bytes, b.max_bytes), a.sum_relax + b.sum_relax};
  }
};

/// One rank's execution of a batched sweep. Mirrors DeltaEngine's epoch
/// structure with every per-vertex array widened by a slot dimension; see
/// multi_engine.hpp for what is intentionally not replicated (pull mode,
/// hybridization, intra-rank lanes).
class MultiEngine {
 public:
  MultiEngine(RankCtx& ctx, const MultiEngineShared& shared)
      : ctx_(ctx),
        sh_(shared),
        view_((*shared.views)[ctx.rank()]),
        begin_(shared.part.begin(ctx.rank())),
        nloc_(shared.part.count(ctx.rank())),
        cost_(shared.options->cost_model),
        k_(shared.roots.size()) {
    assert(k_ >= 1 && k_ <= kMaxMultiRoots);
    classify_ = sh_.options->edge_classification &&
                !sh_.options->bellman_ford_regime();
    ios_ = classify_ && sh_.options->ios;
    dist_.reserve(k_);
    for (std::size_t s = 0; s < k_; ++s) {
      dist_.emplace_back(sh_.dists[s]->data() + begin_, nloc_);
    }
    settled_.assign(k_, std::vector<char>(nloc_, 0));
    in_frontier_.assign(k_, std::vector<char>(nloc_, 0));
    member_stamp_.assign(k_, std::vector<std::uint64_t>(nloc_, 0));
    frontier_.resize(k_);
    members_.resize(k_);
    cur_.assign(k_, kInfBucket);
    after_.assign(k_, kBeforeFirst);
    slot_relax_.assign(k_, 0);
    // One emission lane: the multi-root engine batches across roots, not
    // across intra-rank lanes (multi_engine.hpp). The pool still buys it
    // buffer recycling and the zero-copy exchange.
    pool_.configure(1, ctx.num_ranks());

    if (sh_.options->trace != nullptr) {
      tlane_ = &sh_.options->trace->thread_lane(
          "rank" + std::to_string(ctx_.rank()));
    }
  }

  void run() {
    ctx_.set_trace(tlane_);
    double total_wall = 0;
    {
      PhaseTimer total(total_wall);
      ScopedSpan sweep(tlane_, SpanCat::kMultiSweep, k_);
      {
        ScopedSpan init(tlane_, SpanCat::kInit);
        for (std::size_t s = 0; s < k_; ++s) {
          std::fill(dist_[s].begin(), dist_[s].end(), kInfDist);
          const vid_t root = sh_.roots[s];
          if (sh_.part.owner(root) == ctx_.rank()) {
            dist_[s][root - begin_] = 0;
          }
        }
        ctx_.barrier();
      }

      while (advance_buckets()) {
        process_epoch();
      }
    }
    ctx_.set_trace(nullptr);
    counters_.wall_other_time_s = total_wall - counters_.wall_bucket_time_s;
    finalize();
  }

 private:
  dist_t bucket_end(std::uint64_t k) const {
    return (k + 1) * static_cast<dist_t>(sh_.options->delta) - 1;
  }

  /// Advances every slot to its next global bucket (elementwise-min chunked
  /// Allreduce over the per-slot local minima). Returns false when every
  /// slot is exhausted — batch termination.
  bool advance_buckets() {
    TimedSection sw(counters_.wall_bucket_time_s, tlane_,
                    SpanCat::kBucketScan);
    const std::uint32_t delta = sh_.options->delta;
    std::vector<std::uint64_t> local(k_);
    for (std::size_t s = 0; s < k_; ++s) {
      local[s] = cur_[s] == kInfBucket && after_[s] != kBeforeFirst
                     ? kInfBucket
                     : min_unsettled_bucket_above(dist_[s], settled_[s],
                                                  after_[s], delta);
    }
    bool any = false;
    for (std::size_t base = 0; base < k_; base += kChunkLen) {
      Chunk c;
      c.fill(kInfBucket);
      for (std::size_t i = 0; i < kChunkLen && base + i < k_; ++i) {
        c[i] = local[base + i];
      }
      const Chunk g = ctx_.allreduce(c, ChunkMinOp{});
      for (std::size_t i = 0; i < kChunkLen && base + i < k_; ++i) {
        cur_[base + i] = g[i];
        any = any || g[i] != kInfBucket;
      }
    }
    // One owned-slice scan per live slot plus the reduction round(s).
    model_bkt_ns_ += cost_.scan_cost(nloc_ * static_cast<std::uint64_t>(k_));
    return any;
  }

  /// Local slot-activity bitmask reduced with a single 64-bit OR — this is
  /// why kMaxMultiRoots is 64.
  std::uint64_t active_mask_globally() {
    TimedSection sw(counters_.wall_bucket_time_s, tlane_,
                    SpanCat::kBucketScan);
    std::uint64_t mask = 0;
    for (std::size_t s = 0; s < k_; ++s) {
      if (!frontier_[s].empty()) mask |= std::uint64_t{1} << s;
    }
    const std::uint64_t global = ctx_.allreduce(mask, OrOp{});
    model_bkt_ns_ += cost_.scan_cost(0);
    return global;
  }

  StepReduce account_step(std::uint64_t work, std::uint64_t bytes,
                          std::uint64_t relax) {
    const StepReduce red =
        ctx_.allreduce(StepReduce{work, bytes, relax}, StepReduceOp{});
    model_other_ns_ += cost_.step_cost(red.max_work, red.max_bytes);
    return red;
  }

  /// Sender-side reduction + exchange; incoming batches land in
  /// pool_.incoming(). Returns the post-reduction message count (the byte
  /// basis for account_step).
  std::uint64_t exchange_phase(PhaseKind kind) {
    // One stream per destination shard, compacted in place. Key =
    // (destination local id, slot): slots are independent folds, and the
    // table spans one block times the slot count, not n times it.
    reducer_.ensure(sh_.part.block_size() * k_);
    for (rank_t d = 0; d < ctx_.num_ranks(); ++d) {
      const vid_t dest_begin = sh_.part.begin(d);
      std::vector<MultiRelaxMsg>& shard = pool_.shard(0, d);
      reducer_.begin_stream();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < shard.size(); ++i) {
        const MultiRelaxMsg& m = shard[i];
        const std::size_t key =
            static_cast<std::size_t>(m.v - dest_begin) * k_ + m.slot;
        if (reducer_.admit(key, m.nd)) shard[kept++] = m;
      }
      shard.resize(kept);
    }
    const std::uint64_t posted = pool_.pending_messages();
    ctx_.exchange_pooled(pool_, kind);
    return posted;
  }

  std::uint64_t apply(bool to_frontier) {
    ScopedSpan span(tlane_, SpanCat::kApply);
    const std::uint32_t delta = sh_.options->delta;
    std::uint64_t applied = 0;
    for (const auto& batch : pool_.incoming()) {
      applied += batch.size();
      for (const MultiRelaxMsg& m : batch) {
        const std::size_t s = m.slot;
        const vid_t local = m.v - begin_;
        assert(s < k_ && local < nloc_);
        if (m.nd >= dist_[s][local]) continue;
        assert(!settled_[s][local] && "relaxation improved a settled vertex");
        dist_[s][local] = m.nd;
        if (to_frontier && !in_frontier_[s][local] &&
            bucket_of(m.nd, delta) == cur_[s]) {
          in_frontier_[s][local] = 1;
          frontier_[s].push_back(local);
        }
      }
    }
    return applied;
  }

  void process_epoch() {
    ++epoch_;
    {
      TimedSection sw(counters_.wall_bucket_time_s, tlane_,
                      SpanCat::kBucketScan);
      for (std::size_t s = 0; s < k_; ++s) {
        members_[s].clear();
        if (cur_[s] == kInfBucket) continue;
        frontier_[s] = collect_bucket_members(dist_[s], settled_[s], cur_[s],
                                              sh_.options->delta);
        for (const vid_t u : frontier_[s]) in_frontier_[s][u] = 1;
      }
      model_bkt_ns_ += cost_.scan_cost(nloc_ * static_cast<std::uint64_t>(k_));
    }
    ++epochs_;

    const bool bf_regime = sh_.options->bellman_ford_regime();
    std::uint64_t& relax_counter =
        bf_regime ? counters_.bf_relaxations : counters_.short_relaxations;

    // Short phases: every round pops every still-active slot's frontier and
    // ships ALL slots' relaxations in one exchange. A slot whose frontier
    // drained simply contributes nothing while its batchmates keep the
    // round alive.
    while (active_mask_globally() != 0) {
      ++phases_;
      ScopedSpan span(
          tlane_, bf_regime ? SpanCat::kBellmanFord : SpanCat::kShortPhase,
          epoch_);
      pool_.begin_phase();
      std::uint64_t emitted = 0;
      for (std::size_t s = 0; s < k_; ++s) {
        if (frontier_[s].empty()) continue;
        emitted += emit_short(s);
      }
      relax_counter += emitted;
      const std::uint64_t posted = exchange_phase(
          bf_regime ? PhaseKind::kBellmanFord : PhaseKind::kShortPhase);
      const std::uint64_t applied = apply(/*to_frontier=*/true);
      account_step(emitted + applied, posted * sizeof(MultiRelaxMsg),
                   emitted);
    }

    // One long push phase settles every active slot's bucket: long arcs of
    // its members plus, under IOS, their deferred outer-short arcs.
    if (classify_) {
      ++phases_;
      ScopedSpan span(tlane_, SpanCat::kLongPush, epoch_);
      pool_.begin_phase();
      std::uint64_t emitted = 0;
      for (std::size_t s = 0; s < k_; ++s) {
        if (cur_[s] == kInfBucket) continue;
        emitted += emit_long(s);
      }
      counters_.long_push_relaxations += emitted;
      const std::uint64_t posted = exchange_phase(PhaseKind::kLongPush);
      const std::uint64_t applied = apply(/*to_frontier=*/false);
      account_step(emitted + applied, posted * sizeof(MultiRelaxMsg),
                   emitted);
    }

    {
      // Settling is bucket bookkeeping; charge it to BktTime like the
      // single-root engine does.
      TimedSection sw(counters_.wall_bucket_time_s, tlane_,
                      SpanCat::kBucketScan);
      for (std::size_t s = 0; s < k_; ++s) {
        if (cur_[s] == kInfBucket) continue;
        for (const vid_t u : members_[s]) settled_[s][u] = 1;
        after_[s] = static_cast<std::int64_t>(cur_[s]);
      }
    }
  }

  std::uint64_t emit_short(std::size_t s) {
    const dist_t limit = classify_ ? bucket_end(cur_[s]) : 0;
    const auto slot = static_cast<std::uint32_t>(s);
    std::vector<vid_t> active = std::move(frontier_[s]);
    frontier_[s].clear();
    std::uint64_t emitted = 0;
    for (const vid_t u : active) {
      in_frontier_[s][u] = 0;
      if (member_stamp_[s][u] != epoch_) {
        member_stamp_[s][u] = epoch_;
        members_[s].push_back(u);
      }
      const dist_t du = dist_[s][u];
      const auto arcs = classify_ ? view_.short_arcs(u) : view_.all_arcs(u);
      for (const Arc& a : arcs) {
        const dist_t nd = du + a.w;
        if (ios_ && nd > limit) continue;
        pool_.shard(0, sh_.part.owner(a.to)).push_back({a.to, nd, slot});
        ++emitted;
      }
    }
    slot_relax_[s] += emitted;
    return emitted;
  }

  std::uint64_t emit_long(std::size_t s) {
    const dist_t limit = bucket_end(cur_[s]);
    const std::uint32_t delta = sh_.options->delta;
    const auto slot = static_cast<std::uint32_t>(s);
    std::uint64_t emitted = 0;
    for (const vid_t u : members_[s]) {
      const dist_t du = dist_[s][u];
      for (const Arc& a : view_.all_arcs(u)) {
        const dist_t nd = du + a.w;
        if (a.w < delta) {                  // short arc
          if (!ios_ || nd <= limit) continue;  // inner-short: already relaxed
        }
        pool_.shard(0, sh_.part.owner(a.to)).push_back({a.to, nd, slot});
        ++emitted;
      }
    }
    slot_relax_[s] += emitted;
    return emitted;
  }

  void finalize() {
    // Exact per-root relaxation totals: chunked sum over the slot counters.
    std::vector<std::uint64_t> per_root(k_, 0);
    for (std::size_t base = 0; base < k_; base += kChunkLen) {
      Chunk c{};
      for (std::size_t i = 0; i < kChunkLen && base + i < k_; ++i) {
        c[i] = slot_relax_[base + i];
      }
      const Chunk g = ctx_.allreduce(c, ChunkSumOp{});
      for (std::size_t i = 0; i < kChunkLen && base + i < k_; ++i) {
        per_root[base + i] = g[i];
      }
    }

    const double wall =
        counters_.wall_bucket_time_s + counters_.wall_other_time_s;
    const double max_wall = ctx_.allreduce(wall, MaxOp{});

    if (ctx_.rank() == 0) {
      MultiStats& s = *sh_.stats;
      s.num_roots = k_;
      s.epochs = epochs_;
      s.phases = phases_;
      s.per_root_relaxations = std::move(per_root);
      s.relaxations = 0;
      for (const auto r : s.per_root_relaxations) s.relaxations += r;
      s.model_time_s = (model_bkt_ns_ + model_other_ns_) * 1e-9;
      s.wall_time_s = max_wall;
    }
  }

  RankCtx& ctx_;
  MultiEngineShared sh_;
  const LocalEdgeView& view_;
  vid_t begin_ = 0;
  vid_t nloc_ = 0;
  CostModel cost_;
  std::size_t k_;  ///< batch size (number of slots)
  bool classify_ = false;
  bool ios_ = false;

  // Slot-major per-vertex state: index [slot][local vertex].
  std::vector<std::span<dist_t>> dist_;
  std::vector<std::vector<char>> settled_;
  std::vector<std::vector<char>> in_frontier_;
  std::vector<std::vector<std::uint64_t>> member_stamp_;
  std::vector<std::vector<vid_t>> frontier_;
  std::vector<std::vector<vid_t>> members_;
  std::vector<std::uint64_t> cur_;           ///< current bucket per slot
  std::vector<std::int64_t> after_;          ///< last settled bucket per slot
  std::vector<std::uint64_t> slot_relax_;    ///< local relax count per slot

  // Relax data path: pooled send/receive buffers and the sender-side
  // reducer (keyed by destination local id x slot).
  SendBufferPool<MultiRelaxMsg> pool_;
  SenderReducer<dist_t> reducer_;

  RankCounters counters_;
  /// This rank's trace lane; null unless SsspOptions::trace is set.
  TraceLane* tlane_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t phases_ = 0;
  // Rank-identical accumulators (derived from collective reductions).
  double model_bkt_ns_ = 0;
  double model_other_ns_ = 0;
};

}  // namespace

void run_multi_sssp_job(RankCtx& ctx, const MultiEngineShared& shared) {
  MultiEngine engine(ctx, shared);
  engine.run();
}

}  // namespace parsssp
