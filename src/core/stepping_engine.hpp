// The stepping-family SSSP engines (docs/STEPPING.md): rho-stepping,
// Delta*-stepping (arXiv 2105.06145) and Radius Stepping (arXiv
// 1602.03881) as one step-synchronous engine parameterized by the step
// rule. Each outer step
//
//   1. computes a global settle threshold T from the front of the
//      lazy-batched bucket queue (core/lazy_pq.hpp) — the step rule is
//      the only thing the three algorithms disagree on, and
//   2. runs relax/exchange/apply rounds to a fixpoint: every queued
//      entry with tentative distance below T relaxes ALL of its arcs
//      (no light/heavy split — the lazy queue replaces the
//      bucket-synchronous family's classification machinery), strictly
//      improving applies re-queue their vertex, and the step ends when
//      no rank emitted anything.
//
// Step rules:
//   kRho       T covers the front buckets until ~rho queued entries are
//              included (the batch-extraction rule of rho-stepping);
//   kDeltaStar T = one bucket of width Delta;
//   kRadius    T = min over live front-bucket entries of d(v) + r(v),
//              with r(v) the radius_k-th smallest incident arc weight.
//              Any positive r is exact here because the in-step fixpoint
//              re-relaxes everything the speculation got wrong.
//
// Contract: distances are bit-identical to the bucket-synchronous OPT
// engine's (both compute the exact SSSP); parents are canonicalized by
// run_engine (core/engine_job.hpp) so they match too. The engine
// honors delta (queue granularity / Delta* width), rho, radius_k and
// track_parents; the bucket-synchronous
// work-shaping knobs (pruning, ios, hybrid_tau, ...) are inert — see
// SsspOptions::rho_stepping / delta_star / radius_stepping.
#pragma once

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
#include "runtime/machine.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace parsssp {

/// Per-rank relax buffers of the stepping engines, kept in
/// RankCtx::workspace<SteppingWorkspace>() so they outlive one solve (the
/// step loop is rank-thread serial: one lane, one filter stream per round).
struct SteppingWorkspace {
  SendBufferPool<RelaxMsg> relax_pool;
  /// Emission-time sender-side reduction, keyed on the global vertex id.
  SenderReducer<dist_t> filter;
};

class SteppingEngine {
 public:
  SteppingEngine(RankCtx& ctx, const EngineJob& job,
                 const SsspOptions& options);

  /// Executes the full SSSP and returns this rank's counters. Collective:
  /// all ranks run this together.
  RankCounters run();

 private:
  void init();
  /// kRadius only: r_[v] = radius_k-th smallest incident arc weight.
  void compute_radii();

  /// Collective: the step's settle threshold (exclusive upper distance
  /// bound), or kInfDist when the global queue is empty. Guaranteed to
  /// cover the globally minimum live entry, so every step makes progress.
  dist_t step_threshold();

  /// Collective: relax/exchange/apply rounds until no rank holds a live
  /// queued entry below `t`. Entries popped at or above `t` are parked in
  /// deferred_ and re-queued when the step ends.
  void settle_below(dist_t t);

  /// Pops every bucket whose start lies below `t`, dropping stale
  /// entries, deferring live entries at or above `t`, and relaxing the
  /// rest. Returns the number of relaxations emitted.
  std::uint64_t drain_and_relax(dist_t t);

  /// Applies incoming batches: strict-<, push-on-improve. Returns the
  /// number of incoming messages.
  std::uint64_t apply_incoming();

  /// Collective per-round accounting: advances the modeled clock.
  void account_round(std::uint64_t work, std::uint64_t bytes,
                     std::uint64_t relax);
  /// Collective emptiness/continuation check, charged to bucket overhead.
  bool any_active_globally(bool local_active);

  void finalize();

  vid_t to_local(vid_t global) const { return global - begin_; }
  vid_t to_global(vid_t local) const { return begin_ + local; }

  RankCtx& ctx_;
  const EngineJob& job_;
  const SsspOptions& opt_;
  const LocalEdgeView& view_;
  std::span<dist_t> dist_;   ///< owned slice of the global distance array
  std::span<vid_t> parent_;  ///< owned slice of the parent array (optional)
  vid_t begin_ = 0;
  vid_t nloc_ = 0;

  LazyBucketQueue pq_;
  /// kRadius: per owned vertex, the vertex radius (1 for isolated).
  std::vector<weight_t> r_;
  /// Live entries popped at or above the step threshold; re-queued at
  /// step end (popping removed them from pq_, so the in-step fixpoint
  /// check cannot spin on them).
  std::vector<LazyBucketQueue::Entry> deferred_;
  /// pop_batch target, reused across rounds for its capacity.
  std::vector<LazyBucketQueue::Entry> batch_;

  /// Outgoing relax shards and their emission filter.
  SteppingWorkspace& ws_;

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
  std::uint64_t phases_ = 0;  ///< relax/exchange/apply rounds
  std::uint64_t steps_ = 0;   ///< outer steps (reported as stats.buckets)
};

/// The session job body for one stepping solve (run by run_engine);
/// returns this rank's counters.
RankCounters run_stepping_sssp_job(RankCtx& ctx, const EngineJob& job,
                                   const SsspOptions& options);

}  // namespace parsssp
