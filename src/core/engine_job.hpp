// The one entry point to the SSSP engines.
//
// Every single-root solve — fresh or seeded, whichever engine runs it — is
// one EngineJob handed to run_engine(), which picks the engine from
// SsspOptions::algo, runs it collectively on a MachineSession, makes the
// parent tree canonical where the engine's own tree is schedule-dependent,
// and folds the per-rank counters into the job's SsspStats. The batched
// multi-root sweep sits behind run_multi_engine(). Solver, QueryEngine and
// DynamicSolver reach the engines only through this header (analyzer check
// A3, scripts/analysis/layers.toml); the engines' own job bodies and
// per-rank counters stay inside src/core/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dist_graph.hpp"
#include "core/instrumentation.hpp"
#include "core/options.hpp"
#include "core/types.hpp"
#include "runtime/machine_session.hpp"
#include "runtime/partition.hpp"

namespace parsssp {

/// Push-model relaxation / pull-model response payload, and the seed
/// format of a seeded job.
struct RelaxMsg {
  vid_t v;     ///< destination vertex (global id, owned by receiver)
  dist_t nd;   ///< proposed tentative distance d(u) + w(e)
  vid_t pred;  ///< relaxing vertex u (shortest-path tree parent candidate)
};

/// Inputs and output slots of one single-root solve. All pointers must
/// outlive the run_engine() call.
///
/// Fresh job (settled_init null): run_engine sizes and overwrites `dist`
/// and `parent`. Seeded job (docs/DYNAMIC.md): `dist`/`parent` arrive
/// fully populated, `settled_init` marks the vertices whose entries are
/// trusted upper bounds and `seeds` injects the relaxations an update made
/// newly possible; the bucket-synchronous engine unsettles any preset
/// vertex a better distance reaches (strict-<), so the sweep converges to
/// the exact SSSP of the current logical graph. Seeded jobs always run the
/// bucket-synchronous engine, and their parents are left to the caller.
struct EngineJob {
  /// Base CSR: the pull estimator's weight bound when max_weight is 0.
  /// The arcs the engines relax come from `views`, which may describe a
  /// patched logical graph the CSR does not.
  const CsrGraph* graph = nullptr;
  BlockPartition part;
  const std::vector<LocalEdgeView>* views = nullptr;  ///< one per rank
  std::vector<dist_t>* dist = nullptr;   ///< global; rank writes its slice
  std::vector<vid_t>* parent = nullptr;  ///< null disables tracking
  vid_t root = 0;
  /// Structure fields are written by rank 0; relaxation counts are added.
  SsspStats* stats = nullptr;
  /// Monotone upper bound on the logical graph's max weight for the pull
  /// estimator (0 = the graph's own).
  weight_t max_weight = 0;

  // --- Seeded mode --------------------------------------------------------

  /// Global preset-settled flags (size num_vertices); non-null => seeded.
  const std::vector<char>* settled_init = nullptr;
  /// Seed relaxations, applied at init by each target's owner in order.
  const std::vector<RelaxMsg>* seeds = nullptr;
  /// Optional global change flags (size num_vertices): set to 1 by a
  /// vertex's owner on every distance write (seed or sweep).
  std::vector<char>* changed = nullptr;
};

/// Runs `job` collectively on `session` with the engine `options.algo`
/// names and blocks until it is done. Parents come out canonical
/// (core/parent_canon.hpp) for the asynchronous and stepping engines and
/// whenever options.canonical_parents is set. `keepalive` is pinned for
/// the job's lifetime (same contract as MachineSession::submit).
void run_engine(MachineSession& session, const EngineJob& job,
                const SsspOptions& options,
                std::shared_ptr<void> keepalive = nullptr);

/// Largest batch one multi-root sweep supports: slot-activity masks travel
/// in a single 64-bit Allreduce.
inline constexpr std::size_t kMaxMultiRoots = 64;

/// Batch-level statistics of a multi-root run. Per-root relaxation counts
/// are exact; the modeled time is for the whole batch (the shared
/// supersteps cannot be attributed to single roots), so aggregate
/// throughput is k * m / model_time_s.
struct MultiStats {
  std::size_t num_roots = 0;
  std::uint64_t epochs = 0;        ///< global bucket rounds of the sweep
  std::uint64_t phases = 0;        ///< short + long phase rounds (shared)
  std::uint64_t relaxations = 0;   ///< total relax messages, all slots
  std::vector<std::uint64_t> per_root_relaxations;  ///< size num_roots
  double model_time_s = 0;         ///< modeled machine time of the batch
  double wall_time_s = 0;          ///< bottleneck rank wall clock

  /// Aggregate traversed-edges-per-second of the batch, Graph 500 style.
  double aggregate_gteps(std::uint64_t num_edges, bool modeled = true) const {
    const double t = modeled ? model_time_s : wall_time_s;
    return t > 0 ? static_cast<double>(num_edges) *
                       static_cast<double>(num_roots) / t / 1e9
                 : 0.0;
  }
};

/// Solves every root of `roots` (duplicate-free) with the batched
/// multi-root engine (core/multi_engine.hpp), in sweeps of at most
/// kMaxMultiRoots roots whose statistics add up. dists[i] is sized and
/// overwritten with the distances from roots[i]. Blocks until done;
/// `keepalive` as for run_engine.
MultiStats run_multi_engine(MachineSession& session,
                            const BlockPartition& part,
                            const std::vector<LocalEdgeView>& views,
                            std::span<const vid_t> roots,
                            std::span<std::vector<dist_t>> dists,
                            const SsspOptions& options,
                            std::shared_ptr<void> keepalive = nullptr);

}  // namespace parsssp
