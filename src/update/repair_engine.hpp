// Incremental SSSP repair planning (docs/DYNAMIC.md).
//
// Given a prior exact solve (dist/parent with canonical parents) and the
// batches applied since, plan_repair computes the starting state of a
// seeded Delta-stepping sweep whose result is bit-identical to a fresh
// solve of the mutated graph:
//
//   1. Suspects: a deleted or weight-increased edge {u, v} can only break
//      shortest paths that use it, and a tree path uses it iff parent[v]==u
//      or parent[u]==v.
//   2. Downward closure: every tree descendant of a suspect routes through
//      it, so the whole subtree's distances are invalidated (dist := inf,
//      parent := invalid, unsettled). Everything else keeps its prior
//      entry as a *preset-settled upper bound*: its tree path contains no
//      deleted/increased edge, so its old distance is still achievable.
//   3. Seeds: the relaxations that (re)connect the invalidated region and
//      propagate improvements — clean finite vertices relaxing into
//      invalidated neighbors, plus both directions of every mutated pair
//      still present in the final graph (weight decreases and fresh
//      inserts). Non-improving seeds are filtered out host-side.
//
// The seeded sweep (a seeded EngineJob, core/engine_job.hpp) unsettles any
// preset vertex a
// strictly better distance reaches, so decreases cascade exactly like a
// fresh solve's relaxations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine_job.hpp"
#include "core/types.hpp"
#include "update/dynamic_graph.hpp"
#include "update/edge_batch.hpp"

namespace parsssp {

struct RepairStats {
  std::uint64_t ops = 0;             ///< mutation ops across the batches
  std::uint64_t suspects = 0;        ///< tree edges broken by the batches
  std::uint64_t invalidated = 0;     ///< vertices in the downward closure
  std::uint64_t boundary_seeds = 0;  ///< clean->invalidated relaxations
  std::uint64_t edge_seeds = 0;      ///< mutated-pair relaxations (pre-filter)
  std::uint64_t seeds = 0;           ///< improving seeds handed to the sweep
  bool swept = false;                ///< false = repair resolved at planning
};

/// Starting state of the repair sweep over the current graph.
struct RepairPlan {
  /// Per-vertex preset-settled flags (0 exactly on invalidated vertices).
  std::vector<char> settled;
  /// Improving seed relaxations (nd strictly below the post-invalidation
  /// tentative distance of the target).
  std::vector<RelaxMsg> seeds;
  /// The invalidated vertices (part of the canonical re-parent dirty set).
  std::vector<vid_t> invalidated;
  /// False when no seed improves anything: dist/parent are already final
  /// (pure deletions that disconnected nothing reconnectable, no-op
  /// batches) and the sweep can be skipped entirely.
  bool needs_sweep = false;
};

/// Plans the repair and *applies the invalidation* to dist/parent in place
/// (invalidated entries become kInfDist / kInvalidVid — their final values
/// unless the sweep improves them). `dist`/`parent` must be the exact
/// result of a solve of `g` as it was before `batches` were applied, with
/// canonical parents; `batches` must be exactly the applies since, in
/// order.
RepairPlan plan_repair(const DynamicGraph& g, vid_t root,
                       std::vector<dist_t>& dist, std::vector<vid_t>& parent,
                       std::span<const AppliedBatch> batches,
                       RepairStats* stats = nullptr);

}  // namespace parsssp
