// Distributed level-synchronous BFS with direction optimization
// (Beamer et al., SC'12) on the same simulated machine as the SSSP engine.
//
// The paper's headline table (Fig 1) positions its SSSP against the best
// published BFS numbers and observes that "SSSP is only two to five times
// slower than BFS on the same machine configuration". This engine lets the
// repository reproduce that comparison natively: same rank/mailbox
// substrate, same cost model, same graphs.
//
// Top-down steps relax the frontier's out-edges with point-to-point
// messages (like SSSP push). Bottom-up steps instead broadcast the frontier
// bitmap and let every unvisited vertex scan its own adjacency for a
// frontier neighbour — the BFS analogue of the SSSP pull model.
#pragma once

#include <cstdint>
#include <vector>

#include "core/options.hpp"
#include "core/types.hpp"
#include "graph/csr.hpp"
#include "runtime/machine.hpp"
#include "runtime/partition.hpp"

namespace parsssp {

struct BfsOptions {
  /// Enable the top-down/bottom-up switch; false = always top-down.
  bool direction_optimize = true;
  /// Switch to bottom-up when frontier_edges * alpha > unvisited_edges.
  double alpha = 0.25;
  /// Switch back to top-down when frontier_vertices * beta < num_vertices.
  double beta = 1.0 / 64.0;
  bool track_parents = false;
  CostModelParams cost_model;
};

struct BfsStats {
  std::uint64_t levels = 0;
  std::uint64_t top_down_steps = 0;
  std::uint64_t bottom_up_steps = 0;
  std::uint64_t edges_examined = 0;
  double model_time_s = 0;
  double wall_time_s = 0;
  double gteps(std::uint64_t num_edges) const {
    return model_time_s > 0
               ? static_cast<double>(num_edges) / model_time_s / 1e9
               : 0.0;
  }
};

struct BfsResult {
  std::vector<dist_t> level;   ///< hop count; kInfDist = unreachable
  std::vector<vid_t> parent;   ///< empty unless track_parents
  BfsStats stats;
};

class BfsSolver {
 public:
  BfsSolver(const CsrGraph& graph, MachineConfig machine);

  BfsResult solve(vid_t root, const BfsOptions& options = {});

  const BlockPartition& partition() const { return part_; }

 private:
  const CsrGraph& graph_;
  Machine machine_;
  BlockPartition part_;
};

}  // namespace parsssp
