#include "core/bfs_engine.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace parsssp {
namespace {

struct BfsMsg {
  vid_t v;     ///< destination vertex (owned by receiver)
  vid_t pred;  ///< frontier vertex that discovered it
};

struct BfsReduce {
  std::uint64_t frontier_vertices = 0;
  std::uint64_t frontier_edges = 0;
  std::uint64_t unvisited_edges = 0;
  std::uint64_t max_work = 0;
  std::uint64_t max_bytes = 0;
};
struct BfsReduceOp {
  BfsReduce operator()(const BfsReduce& a, const BfsReduce& b) const {
    return {a.frontier_vertices + b.frontier_vertices,
            a.frontier_edges + b.frontier_edges,
            a.unvisited_edges + b.unvisited_edges,
            std::max(a.max_work, b.max_work),
            std::max(a.max_bytes, b.max_bytes)};
  }
};

struct RankOut {
  std::uint64_t edges_examined = 0;
  std::uint64_t top_down = 0;
  std::uint64_t bottom_up = 0;
  std::uint64_t levels = 0;
  double model_ns = 0;
  double wall_s = 0;
};

}  // namespace

BfsSolver::BfsSolver(const CsrGraph& graph, MachineConfig machine)
    : graph_(graph),
      machine_(machine),
      part_(graph.num_vertices(), machine_.num_ranks()) {}

BfsResult BfsSolver::solve(vid_t root, const BfsOptions& options) {
  BfsResult result;
  result.level.assign(graph_.num_vertices(), kInfDist);
  if (options.track_parents) {
    result.parent.assign(graph_.num_vertices(), kInvalidVid);
  }
  std::vector<RankOut> outs(machine_.num_ranks());
  const CostModel cost(options.cost_model);

  machine_.run([&](RankCtx& ctx) {
    const rank_t r = ctx.rank();
    RankOut& out = outs[r];
    // Accumulates into out.wall_s when the lambda returns (lint rule R8:
    // wall-clock reads go through the obs/ timers).
    PhaseTimer wall_timer(out.wall_s);
    const rank_t ranks = ctx.num_ranks();
    const vid_t begin = part_.begin(r);
    const vid_t nloc = part_.count(r);
    std::span<dist_t> level(result.level.data() + begin, nloc);
    std::span<vid_t> parent;
    if (options.track_parents) {
      parent = std::span<vid_t>(result.parent.data() + begin, nloc);
    }

    // Bitmap geometry: every rank's slice occupies `words_per_rank` words
    // in the replicated global frontier bitmap (block partition, so all
    // slices fit the same stride).
    const std::uint64_t words_per_rank = (part_.block_size() + 63) / 64;
    std::vector<std::uint64_t> global_bits(words_per_rank * ranks, 0);

    std::vector<vid_t> frontier;
    if (part_.owner(root) == r) {
      level[root - begin] = 0;
      if (!parent.empty()) parent[root - begin] = root;
      frontier.push_back(root - begin);
    }

    // Pooled exchange buffers: top-down discovery messages and bottom-up
    // frontier bitmaps. One emission lane (BFS generates serially).
    SendBufferPool<BfsMsg> msg_pool;
    SendBufferPool<std::uint64_t> bitmap_pool;
    SenderReducer<unsigned char> dedup;
    msg_pool.configure(1, ranks);
    bitmap_pool.configure(1, ranks);

    std::uint64_t cur = 0;
    bool bottom_up = false;
    for (;;) {
      // Level-control collectives: sizes of the frontier and the unvisited
      // region drive the direction decision (Beamer's alpha/beta rule).
      std::uint64_t f_edges = 0;
      for (const vid_t u : frontier) f_edges += graph_.degree(begin + u);
      std::uint64_t u_edges = 0;
      for (vid_t v = 0; v < nloc; ++v) {
        if (level[v] == kInfDist) u_edges += graph_.degree(begin + v);
      }
      const BfsReduce totals = ctx.allreduce(
          BfsReduce{frontier.size(), f_edges, u_edges, 0, 0}, BfsReduceOp{});
      out.model_ns += cost.scan_cost(part_.block_size());
      if (totals.frontier_vertices == 0) break;
      out.levels = cur + 1;

      if (options.direction_optimize) {
        if (!bottom_up && totals.frontier_edges * 1.0 >
                              options.alpha * totals.unvisited_edges) {
          bottom_up = true;
        } else if (bottom_up &&
                   static_cast<double>(totals.frontier_vertices) <
                       options.beta *
                           static_cast<double>(part_.num_vertices())) {
          bottom_up = false;
        }
      }

      std::vector<vid_t> next;
      if (!bottom_up) {
        // Top-down: message per frontier out-edge (the SSSP push analogue).
        ++out.top_down;
        msg_pool.begin_phase();
        std::uint64_t emitted = 0;
        for (const vid_t u : frontier) {
          const vid_t gu = begin + u;
          for (const Arc& a : graph_.neighbors(gu)) {
            msg_pool.shard(0, part_.owner(a.to)).push_back({a.to, gu});
            ++emitted;
          }
        }
        out.edges_examined += emitted;
        // Keep-first dedup per destination vertex: a later message for an
        // already-messaged vertex can never win the level or the parent
        // (the receiver keeps the first arrival), so dropping it is exact.
        dedup.ensure(part_.block_size());
        for (rank_t d = 0; d < ranks; ++d) {
          const vid_t dest_begin = part_.begin(d);
          dedup.begin_dest();
          dedup.reduce(
              msg_pool.shard(0, d),
              [dest_begin](const BfsMsg& m) {
                return static_cast<std::size_t>(m.v - dest_begin);
              },
              [](const BfsMsg&) { return static_cast<unsigned char>(0); });
        }
        const std::uint64_t posted = msg_pool.pending_messages();
        ctx.exchange_pooled(msg_pool, PhaseKind::kShortPhase);
        std::uint64_t applied = 0;
        for (const auto& batch : msg_pool.incoming()) {
          applied += batch.size();
          for (const BfsMsg& m : batch) {
            const vid_t lv = m.v - begin;
            if (level[lv] != kInfDist) continue;
            level[lv] = cur + 1;
            if (!parent.empty()) parent[lv] = m.pred;
            next.push_back(lv);
          }
        }
        const BfsReduce red = ctx.allreduce(
            BfsReduce{0, 0, 0, emitted + applied, posted * sizeof(BfsMsg)},
            BfsReduceOp{});
        out.model_ns += cost.step_cost(red.max_work, red.max_bytes);
      } else {
        // Bottom-up: replicate the frontier bitmap, then every unvisited
        // vertex scans its own adjacency (the SSSP pull analogue — the
        // communication volume is the bitmap, not the edges).
        ++out.bottom_up;
        std::vector<std::uint64_t> my_bits(words_per_rank, 0);
        for (const vid_t u : frontier) {
          my_bits[u / 64] |= std::uint64_t{1} << (u % 64);
        }
        bitmap_pool.begin_phase();
        for (rank_t d = 0; d < ranks; ++d) {
          bitmap_pool.shard(0, d).assign(my_bits.begin(), my_bits.end());
        }
        ctx.exchange_pooled(bitmap_pool, PhaseKind::kPullRequest);
        // Incoming batches carry their source rank, which fixes each
        // bitmap slice's position in the replicated frontier.
        const auto& bitmap_in = bitmap_pool.incoming();
        const auto& bitmap_src = bitmap_pool.incoming_sources();
        for (std::size_t i = 0; i < bitmap_in.size(); ++i) {
          std::copy(bitmap_in[i].begin(), bitmap_in[i].end(),
                    global_bits.begin() + bitmap_src[i] * words_per_rank);
        }
        auto in_frontier = [&](vid_t g) {
          const rank_t owner = part_.owner(g);
          const vid_t local = part_.local_id(g);
          return (global_bits[owner * words_per_rank + local / 64] >>
                  (local % 64)) &
                 1;
        };
        std::uint64_t scanned = 0;
        for (vid_t v = 0; v < nloc; ++v) {
          if (level[v] != kInfDist) continue;
          for (const Arc& a : graph_.neighbors(begin + v)) {
            ++scanned;
            if (in_frontier(a.to)) {
              level[v] = cur + 1;
              if (!parent.empty()) parent[v] = a.to;
              next.push_back(v);
              break;  // one parent suffices: the bottom-up payoff
            }
          }
        }
        out.edges_examined += scanned;
        const std::uint64_t bitmap_bytes =
            words_per_rank * 8 * (ranks - 1);
        const BfsReduce red = ctx.allreduce(
            BfsReduce{0, 0, 0, scanned + words_per_rank, bitmap_bytes},
            BfsReduceOp{});
        out.model_ns += cost.step_cost(red.max_work, red.max_bytes);
      }
      frontier = std::move(next);
      ++cur;
    }
  });

  for (const RankOut& o : outs) {
    result.stats.edges_examined += o.edges_examined;
    result.stats.wall_time_s = std::max(result.stats.wall_time_s, o.wall_s);
  }
  result.stats.levels = outs[0].levels;
  result.stats.top_down_steps = outs[0].top_down;
  result.stats.bottom_up_steps = outs[0].bottom_up;
  result.stats.model_time_s = outs[0].model_ns * 1e-9;
  return result;
}

}  // namespace parsssp
