// The asynchronous SSSP engine (docs/ASYNC.md): Delta-stepping without the
// bucket barriers.
//
// The bucket-synchronous engines fence every bucket with allreduces and
// every relax exchange with barriers; at scale that latency tax is the
// term t_step * phases of the cost model. This engine removes the phase
// structure entirely: each rank loops
//
//   drain inbound relax batches -> apply strictly-improving updates ->
//   pop the lowest bucket of a lazy-batched local priority queue ->
//   relax those vertices' arcs -> flush outgoing shards at bucket-level
//   boundaries,
//
// with no global synchronization anywhere in the data plane. Relaxations
// are speculative — a vertex may be relaxed at a distance that a slower
// in-flight message later improves — and corrected by monotone
// re-relaxation: every improvement re-queues the vertex, every apply is
// strict-<, so distances only fall and converge to the exact SSSP under
// any message schedule. Speculation is bounded by a shared LevelBoard
// window (below): a rank more than kSpeculationWindow bucket levels ahead
// of the slowest frontier parks instead of relaxing work that frontier is
// about to invalidate. Termination is detected by a Safra-style token
// ring (runtime/quiescence.hpp) riding the same channel as the payload.
//
// Contract: distances are bit-identical to the bucket-synchronous OPT
// engine's (both compute the exact SSSP); parents are canonicalized by
// run_engine (core/engine_job.hpp) so they match too. The engine honors
// delta (priority granularity) and track_parents; the bucket-synchronous
// work-shaping knobs (pruning, ios, hybrid_tau, ...) are inert here — see
// SsspOptions::async_opt.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dist_graph.hpp"
#include "core/engine_job.hpp"
#include "core/instrumentation.hpp"
#include "core/lazy_pq.hpp"
#include "core/options.hpp"
#include "core/types.hpp"
#include "obs/trace.hpp"
#include "runtime/async_channel.hpp"
#include "runtime/machine.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace parsssp {

/// Speculation-window board: each rank publishes the bucket level it is
/// about to relax (kInfBucket once its queue is empty) through a relaxed
/// atomic, and reads the cross-rank minimum as a progress estimate to
/// bound how far ahead of the slowest frontier it speculates (the
/// KLA-style bounded-asynchrony window of docs/ASYNC.md). Not a
/// synchronization primitive: the values may be arbitrarily stale and
/// correctness never depends on them — monotone re-relaxation is exact
/// under any schedule. The board only steers the schedule toward the
/// work-efficient one; the rank holding the minimum is never throttled,
/// so it cannot stall progress either.
class LevelBoard {
 public:
  explicit LevelBoard(rank_t ranks) : slots_(ranks) {}

  void publish(rank_t rank, std::uint64_t level) {
    slots_[rank].v.store(level, std::memory_order_relaxed);
  }

  /// Sender-side publish on the *recipient's* behalf: lowers `rank`'s slot
  /// to the minimum level of a batch just posted to it. Without this the
  /// board goes blind to in-flight work — a passive recipient still
  /// advertises kInfBucket until it is next scheduled, and the sender
  /// would speculate right past the frontier it just mailed out. The
  /// recipient's own publish (which runs after draining) re-tightens the
  /// slot either way, so a stale donation lasts one loop iteration.
  void donate(rank_t rank, std::uint64_t level) {
    auto& slot = slots_[rank].v;
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (level < cur && !slot.compare_exchange_weak(
                              cur, level, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t global_min() const {
    std::uint64_t m = kInfBucket;
    for (const Slot& s : slots_) {
      m = std::min(m, s.v.load(std::memory_order_relaxed));
    }
    return m;
  }

 private:
  struct alignas(64) Slot {  ///< own cache line: publish is hot-loop
    std::atomic<std::uint64_t> v{0};
  };
  std::vector<Slot> slots_;
};

class AsyncEngine {
 public:
  /// `channel` and `board` must be freshly constructed (or fully
  /// quiescent) and sized to the machine's rank count.
  AsyncEngine(RankCtx& ctx, const EngineJob& job, const SsspOptions& options,
              AsyncChannel<RelaxMsg>& channel, LevelBoard& board);

  /// Executes the full SSSP and returns this rank's counters. Collective:
  /// all ranks run this together (the only collective operation inside is
  /// the final stats reduction).
  RankCounters run();

 private:
  void init();
  void main_loop();
  /// Applies one drained inbound batch (strict-<, re-queue on improve).
  void apply_batch(std::vector<RelaxMsg>& msgs);
  /// Opens the send pool's phase if it is not already open (lazy: one
  /// begin_phase per level flush).
  void ensure_phase();
  /// Pops the lowest priority bucket and relaxes its live entries' short
  /// arcs; registers them for deferred long-arc relaxation at close.
  void relax_one_batch();
  /// Relaxes `arcs` of vertex `v` at distance `d`: local targets applied
  /// in place, remote targets appended to the outgoing shards.
  void relax_arcs(vid_t v, dist_t d, std::span<const Arc> arcs);
  /// Level boundary: relaxes the deferred long arcs of every vertex
  /// settled in the level, then posts the accumulated shards. Returns
  /// whether it did anything (pending work processed or batches posted).
  bool close_level();
  /// Posts every non-empty outgoing shard through the channel. Returns
  /// whether anything was posted (false when the phase never opened or all
  /// shards were empty).
  bool flush_sends();
  void apply_local(vid_t local, dist_t nd, vid_t pred);
  /// Final cross-rank stats reduction (the async path's one allreduce).
  void finalize();

  vid_t to_local(vid_t global) const { return global - begin_; }
  vid_t to_global(vid_t local) const { return begin_ + local; }

  RankCtx& ctx_;
  const EngineJob& job_;
  const SsspOptions& opt_;
  const LocalEdgeView& view_;
  AsyncChannel<RelaxMsg>& channel_;
  LevelBoard& board_;
  std::span<dist_t> dist_;   ///< owned slice of the global distance array
  std::span<vid_t> parent_;  ///< owned slice of the parent array (optional)
  vid_t begin_ = 0;
  vid_t nloc_ = 0;

  LazyBucketQueue pq_;
  QuiescenceRank detector_;
  /// Outgoing shards (one lane: the async loop is rank-thread serial) and
  /// the recycling free list the drained inbound batches retire into.
  SendBufferPool<RelaxMsg> out_pool_;
  /// Drain target, reused across iterations for its capacity.
  std::vector<AsyncChannel<RelaxMsg>::Batch> arrived_;
  /// pop_batch target, reused across iterations.
  std::vector<std::pair<vid_t, dist_t>> batch_;

  /// Whether out_pool_ has an open phase with (possibly empty) accumulated
  /// shards; set by the first relax of a bucket level, cleared by flush.
  bool phase_open_ = false;
  /// Vertices settled in the current level whose long arcs are deferred
  /// to close_level (the light/heavy split: within-level reactivations
  /// re-relax only short arcs), plus per-vertex membership flags so a
  /// vertex reactivated within the level registers once.
  std::vector<vid_t> long_pending_;
  std::vector<std::uint8_t> in_pending_;

  RankCounters counters_;
  /// TrafficCounters sync tallies at construction; finalize() reports the
  /// solve's own allreduce/barrier count as the delta against these.
  std::uint64_t sync0_allreduces_ = 0;
  std::uint64_t sync0_barriers_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t token_hops_ = 0;
  CostModel cost_;
  /// This rank's trace lane; null unless SsspOptions::trace is set.
  TraceLane* tlane_ = nullptr;
};

/// The session job body for one async solve (run by run_engine, which owns
/// the channel and the board); returns this rank's counters.
RankCounters run_async_sssp_job(RankCtx& ctx, const EngineJob& job,
                                const SsspOptions& options,
                                AsyncChannel<RelaxMsg>& channel,
                                LevelBoard& board);

}  // namespace parsssp
