// Configuration of the distributed SSSP engine: which of the paper's
// optimizations are enabled and with what parameters. Factory functions
// build the named algorithm variants of the evaluation section
// (Del-D, Prune-D, OPT-D, LB-OPT-D, Dijkstra, Bellman-Ford).
#pragma once

#include <cstdint>
#include <vector>


namespace parsssp {

class TraceRecorder;  // obs/trace.hpp

/// How the long-edge phase of each bucket is executed (paper §III-B/C).
enum class PruneMode : std::uint8_t {
  kPushOnly,        ///< classic push relaxations for every bucket
  kPullOnly,        ///< pull (request/response) for every bucket
  kHeuristic,       ///< per-bucket decision heuristic (the paper's default)
  kForcedSequence,  ///< per-bucket decisions supplied by the caller (§IV-G)
};

/// Which execution model runs the solve (docs/ASYNC.md). Both produce
/// bit-identical distances; parents agree once canonicalized.
enum class SsspAlgo : std::uint8_t {
  /// The bulk-synchronous Delta-stepping family (Del/Prune/Opt/BF): one
  /// allreduce-fenced epoch per bucket. The default.
  kBucketSync,
  /// The barrier-free engine: ranks drain an inbound relax queue, keep a
  /// lazy-batched local priority structure, forward speculatively, and
  /// terminate via distributed quiescence detection. Ignores the
  /// bucket-synchronous work-shaping knobs (pruning, ios, hybrid_tau,
  /// heavy_degree_threshold); honors delta (priority granularity) and
  /// track_parents. Parents are always canonicalized
  /// (core/parent_canon.hpp) so they stay a pure function of graph + dist.
  kAsync,
  /// rho-stepping (arXiv 2105.06145): each step settles the front buckets
  /// of the lazy queue until roughly `rho` queued entries are covered,
  /// then runs relax/exchange rounds to a fixpoint below that threshold.
  /// delta is the priority granularity of the queue, `rho` the batch
  /// target. Step-synchronous; honors track_parents; parents always
  /// canonicalized (docs/STEPPING.md).
  kRho,
  /// Delta*-stepping (arXiv 2105.06145): plain bucket steps of width
  /// delta with NO light/heavy edge split — every arc of a settled vertex
  /// is relaxed once per round. The lazy queue replaces the
  /// classification machinery of the bucket-synchronous family.
  kDeltaStar,
  /// Radius Stepping (arXiv 1602.03881): the step threshold is
  /// min over the frontier bucket of dist(v) + r(v), where r(v) is the
  /// vertex radius — here the `radius_k`-th smallest incident arc weight
  /// (the 1-hop approximation of the paper's k-ball radius; any positive
  /// r is exact because each step relaxes to a fixpoint).
  kRadius,
};

/// True for the stepping-family engines (core/stepping_engine.hpp).
constexpr bool is_stepping_algo(SsspAlgo algo) {
  return algo == SsspAlgo::kRho || algo == SsspAlgo::kDeltaStar ||
         algo == SsspAlgo::kRadius;
}

/// How the pull-request volume is estimated by the decision heuristic.
/// The paper discusses all three: binary search over weight-sorted lists,
/// histograms for "approximate estimates", and (what its implementation
/// uses) the closed-form expectation under uniform weights.
enum class EstimatorKind : std::uint8_t {
  kExact,        ///< binary search over weight-sorted long-edge lists
  kExpectation,  ///< closed-form expectation under uniform weights (paper)
  kHistogram,    ///< per-vertex weight histograms, interpolated
};

/// Cost model of the simulated machine, used to convert the exact per-step
/// work/traffic counters into a modeled execution time. The absolute scale
/// is arbitrary (units are nanoseconds of a nominal node); the *ratios*
/// decide the trade-offs the paper studies: t_step penalizes phase/bucket
/// counts (Dijkstra's weakness), t_relax and t_byte penalize work and
/// communication volume (Bellman-Ford's weakness), and the max-over-ranks
/// aggregation exposes load imbalance (§III-E).
/// Defaults calibrated so that, at this library's laptop scales (2^10-2^13
/// vertices per rank), the work:latency ratio lands in the same regime the
/// paper measures at 2^23 vertices per node: relax work dominates, per-epoch
/// scans are visible, and superstep latency only hurts algorithms with very
/// many phases (Dijkstra).
struct CostModelParams {
  double t_step_ns = 1000.0;  ///< latency per bulk-synchronous superstep
  double t_relax_ns = 4.0;    ///< per relax / request / response operation
  double t_byte_ns = 0.25;    ///< per byte injected into the network
  double t_scan_ns = 1.0;     ///< per vertex scanned in bucket bookkeeping
};

struct SsspOptions {
  /// Bucket width. kInfDelta selects the Bellman-Ford regime (one bucket).
  static constexpr std::uint32_t kInfDelta = 0xffffffffu;
  std::uint32_t delta = 25;

  /// Execution model; see SsspAlgo.
  SsspAlgo algo = SsspAlgo::kBucketSync;

  /// Meyer-Sanders short/long edge classification (§III-A).
  bool edge_classification = true;
  /// Inner/outer short refinement on top of classification (§III-A).
  bool ios = true;
  /// Direction-optimized long phases (§III-B). Requires classification.
  bool pruning = true;
  PruneMode prune_mode = PruneMode::kHeuristic;
  /// Per-epoch decisions for kForcedSequence: true = pull. Buckets beyond
  /// the vector fall back to push.
  std::vector<bool> forced_pull;
  EstimatorKind estimator = EstimatorKind::kExact;
  /// Weight of the load-imbalance term in the decision heuristic:
  /// cost = volume + load_lambda * ranks * max_per_rank_traffic.
  double load_lambda = 1.0;

  /// Hybridization threshold tau (§III-D): switch to Bellman-Ford once the
  /// settled fraction exceeds tau. Negative disables hybridization.
  double hybrid_tau = -1.0;

  /// Intra-rank load balancing (§III-E): vertices with degree > threshold
  /// have their adjacency relaxed cooperatively by all lanes. 0 disables.
  std::size_t heavy_degree_threshold = 0;

  // --- Stepping-family step parameters (docs/STEPPING.md) ---------------

  /// kRho only: target number of queued entries settled per step. Larger
  /// values trade extra speculative relax work for fewer global steps.
  std::uint32_t rho = 2048;
  /// kRadius only: k of the vertex-radius rule — r(v) is the k-th
  /// smallest incident arc weight (clamped to the degree). Larger k means
  /// larger steps and more in-step speculation.
  std::uint32_t radius_k = 4;

  /// Also build the shortest-path tree (Graph 500 SSSP output): relax
  /// messages carry their source vertex and SsspResult::parent is filled.
  bool track_parents = false;

  /// Canonicalize the parent tree after the solve: parent[v] becomes the
  /// smallest global id u with dist[u] + w(u,v) == dist[v] (root stays its
  /// own parent, unreachable vertices stay kInvalidVid). Canonical parents
  /// are a pure function of (graph, dist), so two runs that agree on
  /// distances agree on parents bit for bit — the contract the incremental
  /// repair engine (docs/DYNAMIC.md) is verified against. No effect unless
  /// track_parents is set.
  bool canonical_parents = false;

  /// Diagnostics for the figure benches. Long-push phases skip sender-side
  /// reduction while collect_bucket_details is on, so the receiver-side
  /// Fig 7 classification still sees every relaxation.
  bool collect_phase_details = false;   ///< per-phase relax counts (Fig 4)
  bool collect_bucket_details = false;  ///< per-bucket push/pull stats (Fig 7)

  CostModelParams cost_model;

  /// Observability (docs/OBSERVABILITY.md): when non-null, the engines and
  /// the runtime exchange path record structured spans into this recorder.
  /// Never changes results or reported statistics, so it is excluded from
  /// options_signature(); null keeps every span site a single pointer test
  /// with no extra clock reads.
  TraceRecorder* trace = nullptr;

  bool bellman_ford_regime() const { return delta == kInfDelta; }

  // --- Named variants of the paper's evaluation -------------------------

  /// Dijkstra = Delta-stepping with Delta=1 (Dial's variant).
  static SsspOptions dijkstra();
  /// Bellman-Ford = Delta-stepping with a single unbounded bucket.
  static SsspOptions bellman_ford();
  /// Del-D: baseline Delta-stepping with short/long classification.
  static SsspOptions del(std::uint32_t delta);
  /// Prune-D: Del-D + IOS + push/pull pruning with the decision heuristic.
  static SsspOptions prune(std::uint32_t delta);
  /// OPT-D: Prune-D + hybridization (tau = 0.4).
  static SsspOptions opt(std::uint32_t delta);
  /// LB-OPT-D: OPT-D + intra-rank heavy-vertex load balancing.
  static SsspOptions lb_opt(std::uint32_t delta,
                            std::size_t heavy_threshold = 256);
  /// ASYNC-D: the barrier-free engine (SsspAlgo::kAsync) at priority
  /// granularity Delta. Distances bit-identical to opt(delta).
  static SsspOptions async_opt(std::uint32_t delta);
  /// RHO: rho-stepping at batch target `rho`, queue granularity Delta.
  static SsspOptions rho_stepping(std::uint32_t rho = 2048,
                                  std::uint32_t delta = 25);
  /// DSTAR-D: Delta*-stepping at bucket width Delta.
  static SsspOptions delta_star(std::uint32_t delta);
  /// RADIUS-k: Radius Stepping with the k-th-incident-weight vertex
  /// radius, queue granularity Delta.
  static SsspOptions radius_stepping(std::uint32_t k = 4,
                                     std::uint32_t delta = 25);
};

/// Rejects option sets no engine can run: delta == 0 (views built at
/// Delta = 0 are invalid), and rho == 0 / radius_k == 0 under kRho /
/// kRadius. Throws std::invalid_argument whose message starts with
/// `where`. Every public solve entry point calls this first.
void check_options(const char* where, const SsspOptions& options);

}  // namespace parsssp
