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

  /// Readies relax_pool_ for a phase's emission and zeroes lane_emitted_.
  void begin_relax_emit();

  /// Sums/maxes lane_emitted_ into (emitted, max_lane).
  std::pair<std::uint64_t, std::uint64_t> emit_totals() const;

  /// Sender-side reduction (when `allow_reduction`) followed by the
  /// exchange. Returns the number of messages that actually
  /// crossed (post-reduction, self-delivery included) — the byte basis for
  /// account_step. Incoming batches land in relax_pool_.
  std::uint64_t relax_exchange(PhaseKind kind, bool allow_reduction);

  /// Applies relax_pool_.incoming() to owned vertices, serially or
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

  std::vector<char> settled_;
  std::vector<std::uint64_t> member_stamp_;  ///< epoch when vertex joined B_k
  std::vector<vid_t> members_;               ///< settled set of current epoch
  std::vector<char> in_frontier_;
  std::vector<vid_t> frontier_;
  std::uint64_t epoch_ = 0;
  std::uint64_t settled_local_cum_ = 0;

  // Seeded mode (repair) state; empty/false on standard runs.
  bool seeded_ = false;
  /// Preset-settled vertices that have not been unsettled or re-settled
  /// yet. They skip frontier collection like any settled vertex but must
  /// still issue pull requests: their tentative distance is only an upper
  /// bound until the sweep ends.
  std::vector<char> preset_;
  std::span<char> changed_;  ///< owned slice of EngineJob::changed
  /// Per-lane unsettle counts of one parallel apply (lanes may not touch
  /// settled_local_cum_ directly).
  std::vector<CacheAligned<std::uint64_t>> lane_unsettled_;

  // Relax data path state. The pools are rank-thread-owned; worker lanes
  // only ever touch their own lane's shards (emission) or the disjoint
  // vertex range a parallel apply assigns them.
  SendBufferPool<RelaxMsg> relax_pool_;
  SendBufferPool<PullReqMsg> req_pool_;
  SenderReducer<dist_t> reducer_;
  /// Per-lane counters, cache-line padded: adjacent uint64s written by all
  /// lanes at emission rate were a false-sharing hot spot.
  std::vector<CacheAligned<std::uint64_t>> lane_emitted_;
  std::vector<CacheAligned<std::uint64_t>> lane_load_;
  /// Parallel apply: per-lane (canonical message index, vertex) insert logs,
  /// merged by index on the rank thread to reproduce the serial apply's
  /// frontier order exactly.
  std::vector<CacheAligned<std::vector<std::pair<std::uint64_t, vid_t>>>>
      lane_inserts_;
  std::vector<std::uint64_t> batch_offsets_;  ///< scratch: segment offsets
  std::vector<std::pair<std::uint64_t, vid_t>> merged_inserts_;  ///< scratch

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
