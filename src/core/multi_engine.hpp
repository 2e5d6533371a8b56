// The batched multi-root SSSP engine: runs up to kMaxMultiRoots roots
// through ONE bucket-synchronous sweep, sharing the phase loop, collective
// reductions and message exchanges across the whole batch.
//
// Why this exists: Graph 500's methodology (64 search keys per
// configuration) and a serving workload both issue many roots against one
// graph. Solver::solve_batch runs them sequentially, paying the full
// per-bucket Allreduce/barrier bill k times. Since the k root instances are
// independent min-folds over disjoint distance slabs, their supersteps can
// be overlaid: each global epoch advances every still-active root by one of
// *its own* buckets, every short-phase round pops every active root's
// frontier, and all roots' relax messages travel in a single exchange with
// a slot tag. The superstep count of the batch is then the *max* over roots
// instead of the sum, and every message exchange amortizes its fixed
// latency over the batch (the paper's own observation that superstep
// latency, not bandwidth, limits small per-node problems).
//
// Algorithmically each slot executes Delta-stepping with short/long edge
// classification and IOS (when enabled by SsspOptions) and a push-mode long
// phase. The per-bucket push/pull pruning decision and the hybridization
// switch are per-root control decisions that do not batch cleanly, so the
// multi-root path does not execute them; they affect work counts only —
// distances are exact shortest paths under every configuration, so results
// are bit-identical to per-root Solver::solve for ALL option sets (the
// property suite asserts this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/dist_graph.hpp"
#include "core/engine_job.hpp"
#include "core/options.hpp"
#include "core/types.hpp"
#include "runtime/machine.hpp"

namespace parsssp {

/// Relaxation message of the batched engine: a RelaxMsg plus the batch slot
/// it belongs to (parents are not tracked on the multi-root path).
struct MultiRelaxMsg {
  vid_t v;            ///< destination vertex (global id, owned by receiver)
  dist_t nd;          ///< proposed tentative distance d(u) + w(e)
  std::uint32_t slot; ///< batch slot (index into MultiEngineShared::roots)
};

/// Inputs and output slots shared by all ranks of one multi-root sweep.
/// `roots` must be duplicate-free and at most kMaxMultiRoots long
/// (run_multi_engine chunks; its callers dedup). `dists` holds one
/// graph-sized output vector per root; each rank writes its owned slice of
/// every slab.
struct MultiEngineShared {
  BlockPartition part;
  const std::vector<LocalEdgeView>* views = nullptr;
  std::span<const vid_t> roots;
  std::span<std::vector<dist_t>* const> dists;  ///< one per root, size |V|
  const SsspOptions* options = nullptr;
  MultiStats* stats = nullptr;  ///< batch fields written by rank 0
};

/// The session job body for one batched sweep (run by run_multi_engine).
/// Collective: all ranks run this together.
void run_multi_sssp_job(RankCtx& ctx, const MultiEngineShared& shared);

}  // namespace parsssp
