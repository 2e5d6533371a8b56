// Solver facade over a DynamicGraph (docs/DYNAMIC.md).
//
// Owns the mutable graph, a persistent MachineSession and the per-rank edge
// views, and keeps the three consistent across mutations:
//
//   solve()   fresh SSSP of the current graph on the engine options.algo
//             names (canonical parents whenever parents are tracked — the
//             contract repair() builds on),
//   apply()   mutates the graph and splices the batch into the cached
//             views (per-vertex patches; full rebuild after a compaction),
//   repair()  incremental SSSP: plans the invalidation/seed set from a
//             prior result (obs span `repair_frontier`), runs the seeded
//             sweep only when something can improve (`repair_sweep`), and
//             re-derives canonical parents for exactly the dirty region.
//             The sweep is always the seeded bucket-synchronous engine,
//             whatever options.algo names; its distances and canonical
//             parents still equal solve()'s, which are exact.
//
// Bit-identity contract: repair(root, prior, batches, options) equals
// solve(root, options) on the mutated graph, bit for bit in dist and
// parent, for every option set — provided `prior` came from solve() or
// repair() of this solver at the pre-batch version and `batches` are
// exactly the apply() receipts since, in order.
//
// Thread-compatible: one operation at a time (the serving layer serializes
// through its dispatcher; tests and benches call from one thread).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/dist_graph.hpp"
#include "core/options.hpp"
#include "core/solver.hpp"
#include "runtime/machine_session.hpp"
#include "runtime/partition.hpp"
#include "update/dynamic_graph.hpp"
#include "update/edge_batch.hpp"
#include "update/repair_engine.hpp"

namespace parsssp {

struct DynamicSolverConfig {
  MachineConfig machine;
  DynamicGraph::Config graph;
};

class DynamicSolver {
 public:
  /// Takes the starting graph by value (it becomes the DynamicGraph base).
  DynamicSolver(CsrGraph base, DynamicSolverConfig config);

  /// Fresh SSSP of the current graph, run by the engine options.algo
  /// names. Parents, when tracked, are always canonical
  /// (core/parent_canon.hpp). Throws std::out_of_range on a bad
  /// root, std::invalid_argument on malformed options.
  SsspResult solve(vid_t root, const SsspOptions& options);

  /// Applies one batch to the graph and patches the cached views. Returns
  /// the receipt to pass to repair(). Strong guarantee (DynamicGraph).
  AppliedBatch apply(const EdgeBatch& batch);

  /// Incremental re-solve; see the bit-identity contract above. Always
  /// runs the seeded bucket-synchronous sweep (options.algo is not
  /// consulted), so its stats describe that sweep, not the engine solve()
  /// would use. Requires options.track_parents and a `prior` with full dist/parent vectors
  /// (throws std::invalid_argument otherwise).
  SsspResult repair(vid_t root, const SsspResult& prior,
                    std::span<const AppliedBatch> batches,
                    const SsspOptions& options);

  const DynamicGraph& graph() const { return graph_; }
  const BlockPartition& partition() const { return part_; }
  MachineSession& session() { return session_; }
  std::uint64_t version() const { return graph_.version(); }

  /// Planner statistics of the most recent repair().
  const RepairStats& last_repair_stats() const { return repair_stats_; }

 private:
  void ensure_views(std::uint32_t delta);
  void canonicalize_dirty(vid_t root, const std::vector<char>& dirty,
                          std::vector<dist_t>& dist,
                          std::vector<vid_t>& parent) const;

  DynamicGraph graph_;
  DynamicSolverConfig config_;
  MachineSession session_;
  BlockPartition part_;
  std::vector<LocalEdgeView> views_;
  std::uint32_t views_delta_ = 0;
  bool views_ready_ = false;
  RepairStats repair_stats_;
};

}  // namespace parsssp
