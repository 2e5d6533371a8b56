// Public facade of the library.
//
//   CsrGraph g = CsrGraph::from_edges(generate_rmat(cfg));
//   Solver solver(g, {.machine = {.num_ranks = 16}});
//   SsspResult r = solver.solve(root, SsspOptions::opt(25));
//   // r.dist[v], r.stats.gteps(g.num_undirected_edges()), ...
//
// A Solver owns the simulated machine — a MachineSession whose rank threads
// are spawned once and parked between solves — and the Delta-dependent
// edge views; views are cached so that solving many roots at the same
// Delta (the Graph 500 methodology: 16-64 random roots per configuration)
// pays the preprocessing once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/dist_graph.hpp"
#include "core/engine_job.hpp"
#include "core/instrumentation.hpp"
#include "core/options.hpp"
#include "graph/csr.hpp"
#include "runtime/machine_session.hpp"
#include "runtime/partition.hpp"

namespace parsssp {

struct SolverConfig {
  MachineConfig machine;
};

struct SsspResult {
  std::vector<dist_t> dist;  ///< shortest distance per vertex (kInfDist =
                             ///< unreachable)
  /// Shortest-path-tree parents; parent[root] == root, kInvalidVid for
  /// unreachable vertices. Empty unless SsspOptions::track_parents.
  std::vector<vid_t> parent;
  SsspStats stats;
};

/// Aggregate of a multi-root run, following the Graph 500 reporting
/// methodology (64 search keys; harmonic-mean TEPS across them).
struct BatchSummary {
  std::size_t num_roots = 0;
  std::size_t unique_roots = 0;  ///< distinct roots actually solved
  std::uint64_t edges = 0;
  double harmonic_mean_gteps = 0;  ///< Graph 500's headline statistic
  double mean_gteps = 0;
  double min_gteps = 0;
  double max_gteps = 0;
  double mean_time_s = 0;          ///< modeled machine time
  double mean_relaxations = 0;
  std::vector<SsspStats> per_root;  ///< aligned to the input root list
  /// Per-root distance vectors, aligned to the input root list. Empty
  /// unless BatchOptions::keep_distances.
  std::vector<std::vector<dist_t>> distances;
};

/// Knobs of Solver::solve_batch that do not affect the computed distances.
struct BatchOptions {
  /// Retain each root's distance vector in BatchSummary::distances.
  /// Default off: a 64-root batch on a large graph would otherwise pin
  /// 64 x |V| distances nobody reads in benchmarking runs.
  bool keep_distances = false;
};

/// Result of one batched multi-root run (Solver::solve_multi).
struct MultiRootResult {
  std::vector<vid_t> roots;  ///< as passed in, duplicates preserved
  /// dist[i][v] = distance from roots[i] to v; duplicate roots share equal
  /// vectors.
  std::vector<std::vector<dist_t>> dist;
  /// Batch statistics. per_root_relaxations is aligned to the *deduplicated*
  /// root sequence (first-occurrence order), and num_roots counts unique
  /// roots; sweeps of more than kMaxMultiRoots unique roots accumulate
  /// chunk stats.
  MultiStats stats;
};

class Solver {
 public:
  /// `graph` must outlive the Solver.
  Solver(const CsrGraph& graph, SolverConfig config);

  /// Runs one SSSP from `root`. Thread-compatible (one solve at a time).
  /// Throws std::out_of_range when root >= num_vertices (as do solve_batch
  /// and solve_multi) and std::invalid_argument on malformed options.
  SsspResult solve(vid_t root, const SsspOptions& options);

  /// Runs SSSP from every root and aggregates (Graph 500 methodology).
  /// Repeated roots are solved once and their statistics (and, when
  /// retained, distances) reused — solve() is deterministic, so the reuse
  /// is observationally identical to re-solving. Aggregates still count
  /// every entry of `roots`.
  BatchSummary solve_batch(std::span<const vid_t> roots,
                           const SsspOptions& options,
                           const BatchOptions& batch = {});

  /// Runs SSSP from all roots through batched multi-root sweeps (at most
  /// kMaxMultiRoots unique roots per sweep): one shared bucket-synchronous
  /// schedule instead of one per root. Distances are bit-identical to
  /// per-root solve() under every option set; see multi_engine.hpp for
  /// which work-shaping options the batched path does not exercise.
  MultiRootResult solve_multi(std::span<const vid_t> roots,
                              const SsspOptions& options);

  const CsrGraph& graph() const { return graph_; }
  const BlockPartition& partition() const { return part_; }
  /// The machine the solves run on. solve() and solve_multi() reset its
  /// traffic counters first, so traffic() and pair_messages() report the
  /// most recent call alone.
  MachineSession& machine() { return session_; }

  /// Seconds spent building the current edge views (the paper's
  /// preprocessing stage; excluded from the TEPS timing, as in Graph 500).
  double last_preprocess_seconds() const { return preprocess_s_; }

 private:
  void ensure_views(std::uint32_t delta);

  const CsrGraph& graph_;
  SolverConfig config_;
  MachineSession session_;
  BlockPartition part_;
  std::vector<LocalEdgeView> views_;
  std::uint32_t views_delta_ = 0;
  bool views_ready_ = false;
  double preprocess_s_ = 0;
};

}  // namespace parsssp
