#include "update/dynamic_solver.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/engine_job.hpp"
#include "core/parent_canon.hpp"
#include "obs/trace.hpp"

namespace parsssp {

namespace {

void check_root(const char* where, vid_t root, vid_t n) {
  if (root >= n) {
    throw std::out_of_range(std::string(where) + ": root " +
                            std::to_string(root) + " out of range (graph has " +
                            std::to_string(n) + " vertices)");
  }
}

}  // namespace

DynamicSolver::DynamicSolver(CsrGraph base, DynamicSolverConfig config)
    : graph_(std::move(base), config.graph),
      config_(config),
      session_(config.machine),
      part_(graph_.num_vertices(), config.machine.num_ranks) {}

void DynamicSolver::ensure_views(std::uint32_t delta) {
  if (views_ready_ && views_delta_ == delta) return;
  views_.assign(session_.num_ranks(), LocalEdgeView{});
  session_.run([this, delta](RankCtx& ctx) {
    views_[ctx.rank()] = graph_.build_local_view(part_, ctx.rank(), delta);
  });
  views_delta_ = delta;
  views_ready_ = true;
}

SsspResult DynamicSolver::solve(vid_t root, const SsspOptions& options) {
  check_root("DynamicSolver::solve", root, graph_.num_vertices());
  check_options("DynamicSolver::solve", options);
  ensure_views(options.delta);

  // Parents are always canonical on the dynamic path (see header):
  // repair()'s suspect detection and dirty-region re-parenting both assume
  // it. run_engine canonicalizes over the views, which hold the logical
  // graph's adjacency.
  SsspOptions fresh = options;
  fresh.canonical_parents = true;
  SsspResult result;
  run_engine(session_,
             {.graph = &graph_.base(),
              .part = part_,
              .views = &views_,
              .dist = &result.dist,
              .parent = options.track_parents ? &result.parent : nullptr,
              .root = root,
              .stats = &result.stats,
              .max_weight = graph_.max_weight()},
             fresh);
  return result;
}

AppliedBatch DynamicSolver::apply(const EdgeBatch& batch) {
  AppliedBatch applied = graph_.apply(batch);
  if (!views_ready_) return applied;
  if (applied.compacted) {
    // The base was rebuilt; per-vertex patches can no longer describe the
    // delta. Rebuild lazily at the next solve/repair.
    views_ready_ = false;
    return applied;
  }
  for (const vid_t v : applied.touched) {
    const rank_t r = part_.owner(v);
    views_[r].patch_vertex(v - part_.begin(r), graph_.arcs_of(v));
  }
  return applied;
}

SsspResult DynamicSolver::repair(vid_t root, const SsspResult& prior,
                                 std::span<const AppliedBatch> batches,
                                 const SsspOptions& options) {
  const vid_t n = graph_.num_vertices();
  check_root("DynamicSolver::repair", root, n);
  check_options("DynamicSolver::repair", options);
  if (!options.track_parents) {
    throw std::invalid_argument(
        "DynamicSolver::repair: requires options.track_parents (the planner "
        "reads the shortest-path tree)");
  }
  if (prior.dist.size() != n || prior.parent.size() != n) {
    throw std::invalid_argument(
        "DynamicSolver::repair: prior result does not match this graph "
        "(need full dist and parent vectors)");
  }
  ensure_views(options.delta);

  TraceLane* lane = options.trace != nullptr
                        ? &options.trace->thread_lane("repair-planner")
                        : nullptr;

  SsspResult result;
  result.dist = prior.dist;
  result.parent = prior.parent;

  RepairPlan plan;
  {
    ScopedSpan span(lane, SpanCat::kRepairFrontier, batches.size());
    plan = plan_repair(graph_, root, result.dist, result.parent, batches,
                       &repair_stats_);
  }

  std::vector<char> changed(n, 0);
  if (plan.needs_sweep) {
    ScopedSpan span(lane, SpanCat::kRepairSweep, plan.seeds.size());
    run_engine(session_,
               {.graph = &graph_.base(),
                .part = part_,
                .views = &views_,
                .dist = &result.dist,
                .parent = &result.parent,
                .root = root,
                .stats = &result.stats,
                .max_weight = graph_.max_weight(),
                .settled_init = &plan.settled,
                .seeds = &plan.seeds,
                .changed = &changed},
               options);
  }

  // Canonical re-parenting of exactly the dirty region: vertices whose
  // incident edges changed (touched), whose distances were wiped
  // (invalidated) or rewritten (changed), and the neighbors of the latter
  // two (their tight-predecessor sets saw a distance change). Everything
  // else keeps its prior canonical parent: unchanged own distance,
  // unchanged neighbor distances, unchanged incident edges.
  std::vector<char> dirty(n, 0);
  for (const AppliedBatch& batch : batches) {
    for (const vid_t v : batch.touched) dirty[v] = 1;
  }
  const auto mark_with_neighbors = [&](vid_t v) {
    dirty[v] = 1;
    graph_.for_each_arc(v, [&](const Arc& a) { dirty[a.to] = 1; });
  };
  for (const vid_t v : plan.invalidated) mark_with_neighbors(v);
  if (plan.needs_sweep) {
    for (vid_t v = 0; v < n; ++v) {
      if (changed[v]) mark_with_neighbors(v);
    }
  }
  canonicalize_dirty(root, dirty, result.dist, result.parent);
  return result;
}

void DynamicSolver::canonicalize_dirty(vid_t root,
                                       const std::vector<char>& dirty,
                                       std::vector<dist_t>& dist,
                                       std::vector<vid_t>& parent) const {
  for (vid_t v = 0; v < graph_.num_vertices(); ++v) {
    if (!dirty[v]) continue;
    parent[v] = canonical_parent_of(
        v, root, dist, [&](auto&& fn) { graph_.for_each_arc(v, fn); });
  }
}

}  // namespace parsssp
