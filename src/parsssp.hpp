// Umbrella header: the library's full public API.
//
//   #include "parsssp.hpp"
//
// For faster builds, include the specific headers instead; this file
// exists for quickstart code, examples and downstream prototypes.
#pragma once

// Graph substrate.
#include "graph/builders.hpp"       // IWYU pragma: export
#include "graph/csr.hpp"            // IWYU pragma: export
#include "graph/degree_stats.hpp"   // IWYU pragma: export
#include "graph/edge_list.hpp"      // IWYU pragma: export
#include "graph/graph_algos.hpp"    // IWYU pragma: export
#include "graph/rmat.hpp"           // IWYU pragma: export
#include "graph/snap_io.hpp"        // IWYU pragma: export
#include "graph/social_gen.hpp"     // IWYU pragma: export
#include "graph/vertex_split.hpp"   // IWYU pragma: export
#include "graph/weights.hpp"        // IWYU pragma: export

// Simulated machine.
#include "runtime/collectives.hpp"    // IWYU pragma: export
#include "runtime/machine.hpp"        // IWYU pragma: export
#include "runtime/partition.hpp"      // IWYU pragma: export
#include "runtime/topology.hpp"       // IWYU pragma: export
#include "runtime/traffic_stats.hpp"  // IWYU pragma: export

// Sequential baselines.
#include "seq/bellman_ford.hpp"    // IWYU pragma: export
#include "seq/delta_stepping.hpp"  // IWYU pragma: export
#include "seq/dial.hpp"            // IWYU pragma: export
#include "seq/dijkstra.hpp"        // IWYU pragma: export

// The distributed SSSP core.
#include "core/bfs_engine.hpp"     // IWYU pragma: export
#include "core/delta_choice.hpp"   // IWYU pragma: export
#include "core/dist_builder.hpp"   // IWYU pragma: export
#include "core/engine_job.hpp"     // IWYU pragma: export
#include "core/lb_thresholds.hpp"  // IWYU pragma: export
#include "core/options.hpp"        // IWYU pragma: export
#include "core/parent_canon.hpp"   // IWYU pragma: export
#include "core/solver.hpp"         // IWYU pragma: export
#include "core/split_solver.hpp"   // IWYU pragma: export
#include "core/dist_validate.hpp"  // IWYU pragma: export
#include "core/validate.hpp"       // IWYU pragma: export

// Dynamic-graph update subsystem (docs/DYNAMIC.md).
#include "update/dynamic_graph.hpp"   // IWYU pragma: export
#include "update/dynamic_solver.hpp"  // IWYU pragma: export
#include "update/edge_batch.hpp"      // IWYU pragma: export
#include "update/repair_engine.hpp"   // IWYU pragma: export
