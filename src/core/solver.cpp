#include "core/solver.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace parsssp {

Solver::Solver(const CsrGraph& graph, SolverConfig config)
    : graph_(graph),
      config_(config),
      session_(config.machine),
      part_(graph.num_vertices(), config.machine.num_ranks) {}

void Solver::ensure_views(std::uint32_t delta) {
  if (views_ready_ && views_delta_ == delta) return;
  const auto t0 = std::chrono::steady_clock::now();
  views_.assign(session_.num_ranks(), LocalEdgeView{});
  // Each rank builds its own view, in parallel on the simulated machine.
  session_.run([&](RankCtx& ctx) {
    views_[ctx.rank()] =
        LocalEdgeView::build(graph_, part_, ctx.rank(), delta);
  });
  preprocess_s_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  views_delta_ = delta;
  views_ready_ = true;
}

SsspResult Solver::solve(vid_t root, const SsspOptions& options) {
  if (root >= graph_.num_vertices()) {
    throw std::out_of_range(
        "Solver::solve: root " + std::to_string(root) +
        " out of range (graph has " +
        std::to_string(graph_.num_vertices()) + " vertices)");
  }
  check_options("Solver::solve", options);
  session_.reset_traffic();
  ensure_views(options.delta);

  SsspResult result;
  run_engine(session_,
             {.graph = &graph_,
              .part = part_,
              .views = &views_,
              .dist = &result.dist,
              .parent = options.track_parents ? &result.parent : nullptr,
              .root = root,
              .stats = &result.stats},
             options);
  return result;
}

BatchSummary Solver::solve_batch(std::span<const vid_t> roots,
                                 const SsspOptions& options,
                                 const BatchOptions& batch) {
  BatchSummary summary;
  summary.num_roots = roots.size();
  summary.edges = graph_.num_undirected_edges();
  for (const vid_t root : roots) {
    if (root >= graph_.num_vertices()) {
      throw std::out_of_range(
          "Solver::solve_batch: root " + std::to_string(root) +
          " out of range (graph has " +
          std::to_string(graph_.num_vertices()) + " vertices)");
    }
  }
  if (roots.empty()) return summary;

  double inv_sum = 0;
  summary.min_gteps = std::numeric_limits<double>::max();
  std::unordered_map<vid_t, std::size_t> first_at;  // root -> first index
  for (const vid_t root : roots) {
    SsspStats stats;
    std::vector<dist_t> dist;
    const auto it = first_at.find(root);
    if (it != first_at.end()) {
      // solve() is deterministic: the first occurrence's results stand in
      // for the repeat without recomputing.
      stats = summary.per_root[it->second];
      if (batch.keep_distances) dist = summary.distances[it->second];
    } else {
      first_at.emplace(root, summary.per_root.size());
      SsspResult r = solve(root, options);
      stats = std::move(r.stats);
      if (batch.keep_distances) dist = std::move(r.dist);
      ++summary.unique_roots;
    }
    const double gteps = stats.gteps(summary.edges, /*modeled=*/true);
    inv_sum += gteps > 0 ? 1.0 / gteps : 0.0;
    summary.mean_gteps += gteps;
    summary.min_gteps = std::min(summary.min_gteps, gteps);
    summary.max_gteps = std::max(summary.max_gteps, gteps);
    summary.mean_time_s += stats.model_time_s;
    summary.mean_relaxations += static_cast<double>(stats.total_relaxations());
    summary.per_root.push_back(std::move(stats));
    if (batch.keep_distances) summary.distances.push_back(std::move(dist));
  }
  const double n = static_cast<double>(roots.size());
  summary.harmonic_mean_gteps = inv_sum > 0 ? n / inv_sum : 0.0;
  summary.mean_gteps /= n;
  summary.mean_time_s /= n;
  summary.mean_relaxations /= n;
  return summary;
}

MultiRootResult Solver::solve_multi(std::span<const vid_t> roots,
                                    const SsspOptions& options) {
  for (const vid_t root : roots) {
    if (root >= graph_.num_vertices()) {
      throw std::out_of_range(
          "Solver::solve_multi: root " + std::to_string(root) +
          " out of range (graph has " +
          std::to_string(graph_.num_vertices()) + " vertices)");
    }
  }
  check_options("Solver::solve_multi", options);
  if (options.algo == SsspAlgo::kAsync || is_stepping_algo(options.algo)) {
    throw std::invalid_argument(
        "Solver::solve_multi: the asynchronous and stepping engines are "
        "single-root only (use solve/solve_batch, or SsspAlgo::kBucketSync "
        "for multi-root)");
  }
  MultiRootResult result;
  result.roots.assign(roots.begin(), roots.end());
  result.dist.resize(roots.size());
  if (roots.empty()) return result;
  session_.reset_traffic();
  ensure_views(options.delta);

  // Deduplicate in first-occurrence order; duplicates share the slab.
  std::vector<vid_t> unique;
  std::vector<std::size_t> slot_of(roots.size());
  {
    std::unordered_map<vid_t, std::size_t> index;
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const auto [it, inserted] = index.emplace(roots[i], unique.size());
      if (inserted) unique.push_back(roots[i]);
      slot_of[i] = it->second;
    }
  }

  std::vector<std::vector<dist_t>> unique_dist(unique.size());
  result.stats = run_multi_engine(session_, part_, views_, unique,
                                  unique_dist, options);

  // Fan the slabs back out to input positions: each slab moves into its
  // last user and copies into earlier duplicates.
  std::vector<std::size_t> last_use(unique.size(), 0);
  for (std::size_t i = 0; i < roots.size(); ++i) last_use[slot_of[i]] = i;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    result.dist[i] = last_use[slot_of[i]] == i
                         ? std::move(unique_dist[slot_of[i]])
                         : unique_dist[slot_of[i]];
  }
  return result;
}

}  // namespace parsssp
