// Microbenchmarks (google-benchmark) of the hot kernels: CSR construction,
// view building, bucket scans, pull-request counting, relax application,
// collectives, and the full solve at small scale.
#include <benchmark/benchmark.h>

#include "bench_util/runner.hpp"
#include "core/buckets.hpp"
#include "core/dist_graph.hpp"
#include "core/engine_job.hpp"
#include "core/solver.hpp"
#include "graph/graph_algos.hpp"
#include "graph/rmat.hpp"
#include "runtime/machine.hpp"
#include "runtime/machine_session.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace {

using namespace parsssp;

const CsrGraph& shared_graph() {
  static const CsrGraph g = build_rmat_graph(RmatFamily::kRmat1, 12);
  return g;
}

void BM_CsrBuild(benchmark::State& state) {
  RmatConfig cfg;
  cfg.scale = static_cast<std::uint32_t>(state.range(0));
  cfg.edge_factor = 16;
  const EdgeList list = generate_rmat(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrGraph::from_edges(list));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(list.num_edges()));
}
BENCHMARK(BM_CsrBuild)->Arg(10)->Arg(12);

void BM_RmatGenerate(benchmark::State& state) {
  RmatConfig cfg;
  cfg.scale = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_rmat(cfg));
  }
}
BENCHMARK(BM_RmatGenerate)->Arg(10)->Arg(12);

void BM_ViewBuild(benchmark::State& state) {
  const CsrGraph& g = shared_graph();
  const BlockPartition part(g.num_vertices(), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LocalEdgeView::build(g, part, 0, 25));
  }
}
BENCHMARK(BM_ViewBuild);

void BM_BucketScan(benchmark::State& state) {
  const CsrGraph& g = shared_graph();
  std::vector<dist_t> dist(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    dist[v] = (v * 37) % 2000;
  }
  const std::vector<char> settled(g.num_vertices(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(collect_bucket_members(dist, settled, 3, 25));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_BucketScan);

void BM_CountLongBelow(benchmark::State& state) {
  const CsrGraph& g = shared_graph();
  const BlockPartition part(g.num_vertices(), 1);
  const LocalEdgeView view = LocalEdgeView::build(g, part, 0, 25);
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (vid_t v = 0; v < view.num_local(); ++v) {
      total += view.count_long_below(v, 128);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_CountLongBelow);

void BM_Allreduce(benchmark::State& state) {
  const rank_t ranks = static_cast<rank_t>(state.range(0));
  Machine m({.num_ranks = ranks});
  for (auto _ : state) {
    m.run([](RankCtx& ctx) {
      for (int i = 0; i < 100; ++i) {
        benchmark::DoNotOptimize(
            ctx.allreduce<std::uint64_t>(1, SumOp{}));
      }
    });
  }
}
BENCHMARK(BM_Allreduce)->Arg(2)->Arg(8);

void BM_Exchange(benchmark::State& state) {
  const rank_t ranks = static_cast<rank_t>(state.range(0));
  Machine m({.num_ranks = ranks});
  for (auto _ : state) {
    m.run([ranks](RankCtx& ctx) {
      for (int i = 0; i < 20; ++i) {
        std::vector<std::vector<std::uint64_t>> out(ranks);
        for (rank_t d = 0; d < ranks; ++d) out[d].assign(64, d);
        benchmark::DoNotOptimize(
            ctx.exchange(std::move(out), PhaseKind::kShortPhase));
      }
    });
  }
}
BENCHMARK(BM_Exchange)->Arg(2)->Arg(8);

// --- Relax data path kernels (docs/PERFORMANCE.md) -----------------------

constexpr rank_t kDpRanks = 4;
constexpr int kDpRounds = 20;
constexpr std::uint32_t kDpMsgsPerDest = 4096;

// Deterministic synthetic relax stream with RMAT-like destination skew:
// low vertex ids (hubs) receive many duplicate relaxations per phase, which
// is what sender-side reduction exploits.
RelaxMsg dp_message(rank_t r, std::uint32_t i, vid_t block) {
  const std::uint64_t h = (static_cast<std::uint64_t>(r) * 2654435761u + i) *
                          0x9e3779b97f4a7c15ULL;
  const vid_t v = static_cast<vid_t>((h >> 33) % block) %
                  (1u + static_cast<vid_t>(h % 64) * (block / 64));
  return {v, static_cast<dist_t>(h % 100000), static_cast<vid_t>(i)};
}

// Emission, zero-copy exchange and apply over a persistent session, so
// per-iteration cost is the data path itself, not 4 thread spawns/joins.
// The sender-side reducer is deliberately NOT run here — its CPU cost is
// measured on its own by BM_SenderReduce.
void BM_RelaxExchangePooled(benchmark::State& state) {
  MachineSession session({.num_ranks = kDpRanks});
  const vid_t block = vid_t{1} << 12;
  for (auto _ : state) {
    session.run([&](RankCtx& ctx) {
      const rank_t r = ctx.rank();
      std::vector<dist_t> dist(block, kInfDist);
      SendBufferPool<RelaxMsg> pool;
      pool.configure(1, kDpRanks);
      for (int round = 0; round < kDpRounds; ++round) {
        pool.begin_phase();
        for (rank_t d = 0; d < kDpRanks; ++d) {
          for (std::uint32_t i = 0; i < kDpMsgsPerDest; ++i) {
            pool.shard(0, d).push_back(dp_message(r, i, block));
          }
        }
        ctx.exchange_pooled(pool, PhaseKind::kShortPhase);
        std::uint64_t improved = 0;
        for (const auto& batch : pool.incoming()) {
          for (const RelaxMsg& msg : batch) {
            if (msg.nd < dist[msg.v]) {
              dist[msg.v] = msg.nd;
              ++improved;
            }
          }
        }
        benchmark::DoNotOptimize(improved);
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kDpRounds * kDpRanks * kDpRanks * kDpMsgsPerDest);
}
BENCHMARK(BM_RelaxExchangePooled);

// Receive-side apply in isolation, straight out of a received buffer.
void BM_RelaxApplyPooled(benchmark::State& state) {
  const vid_t block = vid_t{1} << 14;
  std::vector<RelaxMsg> stream;
  for (std::uint32_t i = 0; i < 4 * kDpMsgsPerDest; ++i) {
    stream.push_back(dp_message(0, i, block));
  }
  std::vector<dist_t> dist(block, kInfDist);
  for (auto _ : state) {
    std::uint64_t improved = 0;
    for (const RelaxMsg& msg : stream) {
      if (msg.nd < dist[msg.v]) {
        dist[msg.v] = msg.nd;
        ++improved;
      }
    }
    benchmark::DoNotOptimize(improved);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_RelaxApplyPooled);

// Sender-side reduction throughput on a duplicate-heavy stream (what the
// engines run per destination before posting).
void BM_SenderReduce(benchmark::State& state) {
  const vid_t block = vid_t{1} << 12;
  std::vector<RelaxMsg> stream;
  for (std::uint32_t i = 0; i < 4 * kDpMsgsPerDest; ++i) {
    stream.push_back(dp_message(1, i, block));
  }
  SenderReducer<dist_t> reducer;
  reducer.ensure(block);
  std::vector<RelaxMsg> scratch;
  for (auto _ : state) {
    scratch = stream;
    reducer.begin_dest();
    reducer.reduce(
        scratch, [](const RelaxMsg& msg) { return msg.v; },
        [](const RelaxMsg& msg) { return msg.nd; });
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_SenderReduce);

void BM_SolveOpt(benchmark::State& state) {
  const CsrGraph& g = shared_graph();
  Solver solver(g, {.machine = {.num_ranks = 8}});
  const auto roots = sample_roots(g, 1, 1);
  solver.solve(roots[0], SsspOptions::opt(25));  // warm the views
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(roots[0], SsspOptions::opt(25)));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(g.num_undirected_edges()));
}
BENCHMARK(BM_SolveOpt);

void BM_SolveDel(benchmark::State& state) {
  const CsrGraph& g = shared_graph();
  Solver solver(g, {.machine = {.num_ranks = 8}});
  const auto roots = sample_roots(g, 1, 1);
  solver.solve(roots[0], SsspOptions::del(25));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(roots[0], SsspOptions::del(25)));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(g.num_undirected_edges()));
}
BENCHMARK(BM_SolveDel);

}  // namespace

BENCHMARK_MAIN();
