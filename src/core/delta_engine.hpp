// The distributed bucket-synchronous SSSP engine: the paper's Delta-stepping
// with edge classification, IOS, push/pull pruning, hybridization and
// intra-rank load balancing — all switchable through SsspOptions, so the
// same engine realizes Dijkstra (Delta=1), Bellman-Ford (one bucket), Del-D,
// Prune-D, OPT-D and LB-OPT-D.
//
// One DeltaEngine instance runs per rank inside a session job (run_engine,
// core/engine_job.hpp). All cross-rank interaction goes through RankCtx:
// relax/request/response message exchanges plus Allreduce-based
// termination and bucket-advance checks, exactly the communication
// structure described in §II ("Distributed Implementation").
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/dist_graph.hpp"
#include "core/engine_job.hpp"
#include "core/instrumentation.hpp"
#include "core/options.hpp"
#include "core/sync.hpp"
#include "core/types.hpp"
#include "obs/trace.hpp"
#include "runtime/machine.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace parsssp {

/// Pull-model request payload: "if u is settled in the current bucket, send
/// me d(u) + w" (paper §III-B, Fig. 5(b)).
struct PullReqMsg {
  vid_t u;     ///< source vertex (owned by receiver of the request)
  vid_t v;     ///< requesting vertex (for the response address)
  weight_t w;  ///< weight of edge <u, v>
};

/// Per-rank scratch of the bucket-synchronous engine, kept in
/// RankCtx::workspace<DeltaWorkspace>() so it lives as long as the rank
/// (the whole session under MachineSession): pools, the filter table and
/// per-vertex arrays keep their memory from one solve to the next. Every
/// solve re-sizes and re-initializes what it reads; nothing here carries
/// answers between solves. Rank-thread-owned; worker lanes touch only
/// their own lane's entries or the vertex range an apply assigns them.
struct DeltaWorkspace {
  SendBufferPool<RelaxMsg> relax_pool;
  SendBufferPool<PullReqMsg> req_pool;
  /// Sender-side reduction over each destination's canonical stream: at
  /// emission on one lane (keys: global vertex ids), before the exchange
  /// on more (keys: destination-local ids); see push_relax and
  /// relax_exchange.
  SenderReducer<dist_t> filter;

  std::vector<char> settled;
  /// Seeded mode: preset-settled vertices that have not been unsettled or
  /// re-settled yet. They skip frontier collection like any settled vertex
  /// but must still issue pull requests: their tentative distance is only
  /// an upper bound until the sweep ends.
  std::vector<char> preset;
  std::vector<char> in_frontier;
  /// Epoch when a vertex joined B_k. `epoch` keeps counting across solves,
  /// so stamps of earlier solves never match and need no refill.
  std::vector<std::uint64_t> member_stamp;
  std::uint64_t epoch = 0;
  std::vector<vid_t> members;         ///< settled set of the current epoch
  std::vector<vid_t> frontier;
  std::vector<vid_t> active;          ///< the frontier a phase pops
  std::vector<vid_t> bucket_members;  ///< next_bucket's local-min bucket

  /// Per-lane counters, cache-line padded: adjacent uint64s written by all
  /// lanes at emission rate were a false-sharing hot spot.
  std::vector<CacheAligned<std::uint64_t>> lane_emitted;
  std::vector<CacheAligned<std::uint64_t>> lane_load;
  /// Per-lane unsettle counts of one parallel apply (lanes may not touch
  /// the rank's settled count directly).
  std::vector<CacheAligned<std::uint64_t>> lane_unsettled;
  /// Parallel apply: per-lane (canonical message index, vertex) insert
  /// logs, merged by index on the rank thread to reproduce the serial
  /// apply's frontier order exactly.
  std::vector<CacheAligned<std::vector<std::pair<std::uint64_t, vid_t>>>>
      lane_inserts;
  std::vector<std::uint64_t> batch_offsets;  ///< segment offsets
  std::vector<std::pair<std::uint64_t, vid_t>> merged_inserts;
};

class DeltaEngine {
 public:
  DeltaEngine(RankCtx& ctx, const EngineJob& job, const SsspOptions& options);

  /// Executes the full SSSP and returns this rank's counters. Collective:
  /// all ranks run this together.
  RankCounters run();

 private:
  // -- epoch structure ----------------------------------------------------
  std::uint64_t next_bucket(std::int64_t after);
  void process_epoch(std::uint64_t k);
  void short_phases(std::uint64_t k);
  bool decide_long_mode(std::uint64_t k);
  void long_phase_push(std::uint64_t k);
  void long_phase_pull(std::uint64_t k);
  void bellman_ford_tail(std::uint64_t from_bucket);
  void finalize();

  /// Seeded-mode init: applies the owned subset of EngineJob::seeds to
  /// the caller-provided tentative state (strict-<, unsettle-on-improve).
  void apply_seeds();

  // -- helpers ------------------------------------------------------------
  struct StepReduce {
    std::uint64_t any = 0;
    std::uint64_t max_work = 0;
    std::uint64_t max_bytes = 0;
    std::uint64_t sum_relax = 0;
  };
  struct StepReduceOp {
    StepReduce operator()(const StepReduce& a, const StepReduce& b) const {
      return {a.any | b.any, std::max(a.max_work, b.max_work),
              std::max(a.max_bytes, b.max_bytes), a.sum_relax + b.sum_relax};
    }
  };

  /// Collective per-superstep accounting: advances the modeled clock and
  /// returns the reduced values (notably sum_relax for phase details).
  StepReduce account_step(std::uint64_t work, std::uint64_t bytes,
                          std::uint64_t relax);

  /// Collective frontier-emptiness check, charged to bucket overhead.
  bool any_active_globally(bool local_active);

  // -- relax data path (docs/PERFORMANCE.md) ------------------------------

  /// What an applied improvement does to the frontier.
  enum class InsertMode : std::uint8_t {
    kNone,    ///< long phases: bucket members are already settled
    kBucket,  ///< short phases: join iff the new distance lands in bucket k
    kAny,     ///< Bellman-Ford tail: every improved vertex re-activates
  };

  /// Readies the relax pool and the filter for a phase's emission and
  /// zeroes the lane emission counters. `reduce` turns sender-side
  /// reduction on for the phase.
  void begin_relax_emit(bool reduce);

  /// Pushes `m` into lane `lane`'s shard for its owner. With one lane the
  /// rank thread emits in canonical order, so the filter drops a provable
  /// no-op right here (docs/PERFORMANCE.md).
  void push_relax(unsigned lane, const RelaxMsg& m) {
    if (filter_at_emit_ && !ws_.filter.admit(m.v, m.nd)) return;
    ws_.relax_pool.shard(lane, job_.part.owner(m.v)).push_back(m);
  }

  /// Sums/maxes the lane emission counters into (emitted, max_lane).
  std::pair<std::uint64_t, std::uint64_t> emit_totals() const;

  /// Exchanges the relax pool. With several lanes a reducing phase's
  /// shards are filtered first, lane by lane (canonical order). Returns
  /// the number of messages that actually crossed (post-reduction,
  /// self-delivery included) — the byte basis for account_step. Incoming
  /// batches land in the relax pool.
  std::uint64_t relax_exchange(PhaseKind kind);

  /// Applies the relax pool's incoming batches to owned vertices, serially or
  /// lane-partitioned by destination vertex range (when the rank has >1
  /// lanes and something arrived). Returns the number of incoming messages.
  std::uint64_t apply_incoming(std::uint64_t frontier_k, InsertMode mode);
  void apply_serial(std::uint64_t frontier_k, InsertMode mode);
  void apply_parallel(std::uint64_t frontier_k, InsertMode mode);

  bool classification_active() const {
    return opt_.edge_classification &&
           !opt_.bellman_ford_regime();
  }
  dist_t bucket_end(std::uint64_t k) const {  // inclusive upper limit of B_k
    return (k + 1) * static_cast<dist_t>(opt_.delta) - 1;
  }
  vid_t to_local(vid_t global) const { return global - begin_; }
  vid_t to_global(vid_t local) const { return begin_ + local; }

  RankCtx& ctx_;
  const EngineJob& job_;
  const SsspOptions& opt_;
  const LocalEdgeView& view_;
  std::span<dist_t> dist_;  ///< owned slice of the global distance array
  std::span<vid_t> parent_;  ///< owned slice of the parent array (optional)
  vid_t begin_ = 0;
  vid_t nloc_ = 0;
  DeltaWorkspace& ws_;  ///< this rank's session-long scratch
  /// Where the current phase's reduction runs (begin_relax_emit): in
  /// push_relax on one lane, in relax_exchange on more; neither when the
  /// phase ships its stream unreduced.
  bool filter_at_emit_ = false;
  bool filter_at_exchange_ = false;
  std::uint64_t settled_local_cum_ = 0;
  /// This rank's smallest unsettled bucket found by the last next_bucket
  /// scan; ws_.bucket_members holds that bucket's locals.
  std::uint64_t local_min_bucket_ = kInfBucket;

  // Seeded mode (repair) state; empty/false on standard runs.
  bool seeded_ = false;
  std::span<char> changed_;  ///< owned slice of EngineJob::changed

  RankCounters counters_;
  /// TrafficCounters sync tallies at construction; finalize() reports the
  /// solve's own allreduce/barrier count as the delta against these.
  std::uint64_t sync0_allreduces_ = 0;
  std::uint64_t sync0_barriers_ = 0;
  CostModel cost_;
  /// This rank's trace lane; null unless SsspOptions::trace is set.
  TraceLane* tlane_ = nullptr;
  // Rank-identical accumulators (derived from collective reductions).
  double model_other_ns_ = 0;
  double model_bkt_ns_ = 0;
  std::uint64_t phases_ = 0;
  std::uint64_t buckets_ = 0;
  std::vector<bool> pull_decisions_;
  std::vector<PhaseDetail> phase_details_;
  std::vector<BucketDetail> bucket_details_;
  bool switched_ = false;
  std::uint64_t switch_bucket_ = 0;
};

/// The session job body for one solve (run by run_engine); returns this
/// rank's counters.
RankCounters run_sssp_job(RankCtx& ctx, const EngineJob& job,
                          const SsspOptions& options);

}  // namespace parsssp
