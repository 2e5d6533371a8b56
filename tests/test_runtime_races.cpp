// Race-stress tests for the simulated runtime, written for the TSan build
// of the sanitizer matrix (-DMPS_SANITIZE=thread; see scripts/check.sh).
// Each test maximizes interleavings of a runtime invariant the library
// relies on: lane-chunk handoff across many back-to-back generations,
// multi-rank exchange/collective traffic with full pair recording, and
// concurrent bucket relaxation through the distributed delta engine with
// intra-rank load balancing. They also run (and must pass) without TSan —
// the assertions check functional correctness of the same interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "core/options.hpp"
#include "core/solver.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/machine.hpp"
#include "runtime/machine_session.hpp"
#include "runtime/send_buffer_pool.hpp"
#include "runtime/thread_pool.hpp"
#include "seq/dijkstra.hpp"
#include "serve/query_engine.hpp"

namespace parsssp {
namespace {

// Many lanes, many overlapping generations: back-to-back parallel_for jobs
// reuse the pool's generation/pending handshake with no idle gap, so a
// worker can still be decrementing pending_ while the next job is being
// primed. Writes are deliberately non-atomic: chunks must be disjoint and
// each generation's writes must happen-before the next generation's reads.
TEST(RuntimeRaces, ParallelForOverlappingGenerations) {
  constexpr unsigned kLanes = 8;
  constexpr int kGenerations = 300;
  constexpr std::size_t kN = 4096;
  ThreadPool pool(kLanes);
  std::vector<std::uint64_t> cells(kN, 0);
  for (int g = 0; g < kGenerations; ++g) {
    pool.parallel_for(kN, [&](unsigned, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) cells[i] += i + 1;
    });
  }
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(cells[i], static_cast<std::uint64_t>(kGenerations) * (i + 1));
  }
}

// The job function is a caller-stack object whose address the workers
// dereference outside the pool mutex; a fresh lambda per iteration makes a
// lifetime bug (use-after-return of the previous job) visible to TSan/ASan.
TEST(RuntimeRaces, JobLifetimeAcrossGenerations) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (std::uint64_t g = 1; g <= 200; ++g) {
    pool.run_on_lanes([&sum, g](unsigned lane) { sum += g * (lane + 1); });
  }
  // sum over g of g * (1+2+3+4)
  EXPECT_EQ(sum.load(), 10u * (200u * 201u / 2));
}

// Nested: every lane of every rank busy at once, with lane counts chosen so
// rank threads and worker threads oversubscribe the host cores and the
// scheduler shuffles interleavings.
TEST(RuntimeRaces, MachineFullTrafficManyRanksManyLanes) {
  constexpr rank_t R = 8;
  constexpr int kRounds = 25;
  Machine m({.num_ranks = R, .lanes_per_rank = 3,
             .record_pair_traffic = true});
  m.run([&](RankCtx& ctx) {
    const rank_t r = ctx.rank();
    for (int round = 0; round < kRounds; ++round) {
      // Lane-parallel message generation into per-lane buffers, merged on
      // the rank thread — the delta engine's exact pattern.
      const unsigned lanes = ctx.pool().lanes();
      std::vector<std::vector<std::vector<std::uint64_t>>> lane_out(
          lanes, std::vector<std::vector<std::uint64_t>>(R));
      ctx.pool().parallel_for(
          R, [&](unsigned lane, std::size_t begin, std::size_t end) {
            for (std::size_t d = begin; d < end; ++d) {
              lane_out[lane][d].push_back(r * 1000 + d);
            }
          });
      std::vector<std::vector<std::uint64_t>> out(R);
      for (unsigned l = 0; l < lanes; ++l) {
        for (rank_t d = 0; d < R; ++d) {
          out[d].insert(out[d].end(), lane_out[l][d].begin(),
                        lane_out[l][d].end());
        }
      }
      const auto in = ctx.exchange(std::move(out), PhaseKind::kLongPush);
      for (rank_t s = 0; s < R; ++s) {
        ASSERT_EQ(in[s].size(), 1u);
        EXPECT_EQ(in[s][0], s * 1000u + r);
      }
      // Interleave collectives between exchange rounds.
      const auto total = ctx.allreduce<std::uint64_t>(r, SumOp{});
      EXPECT_EQ(total, static_cast<std::uint64_t>(R) * (R - 1) / 2);
    }
  });
  // Every ordered pair exchanged one message per round.
  const auto& pairs = m.pair_messages();
  ASSERT_EQ(pairs.size(), static_cast<std::size_t>(R) * R);
  for (rank_t s = 0; s < R; ++s) {
    for (rank_t d = 0; d < R; ++d) {
      EXPECT_EQ(pairs[static_cast<std::size_t>(s) * R + d],
                s == d ? 0u : static_cast<std::uint64_t>(kRounds));
    }
  }
}

// Concurrent bucket relaxation through the full distributed engine: many
// ranks, many lanes, heavy-vertex load balancing on (so single adjacency
// lists are relaxed cooperatively by all lanes), validated against
// sequential Dijkstra. This is the paper's LB-OPT-D configuration — the
// code path with the most shared-state traffic per bucket.
TEST(RuntimeRaces, DeltaEngineConcurrentRelaxation) {
  RmatConfig cfg;
  cfg.params = RmatParams::rmat2();
  cfg.scale = 9;
  cfg.edge_factor = 12;
  cfg.seed = 77;
  const CsrGraph g = CsrGraph::from_edges(generate_rmat(cfg));
  const std::vector<dist_t> ref = dijkstra_distances(g, 0);

  Solver solver(g, {.machine = {.num_ranks = 6, .lanes_per_rank = 4}});
  // A low heavy-degree threshold forces the cooperative (all-lanes) path
  // for every hub the R-MAT skew produces.
  const SsspOptions opts = SsspOptions::lb_opt(/*delta=*/25,
                                               /*heavy_threshold=*/8);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const SsspResult res = solver.solve(0, opts);
    ASSERT_EQ(res.dist.size(), ref.size());
    for (vid_t v = 0; v < ref.size(); ++v) ASSERT_EQ(res.dist[v], ref[v]);
  }
}

// Same engine under the checked protocol: the state machines themselves
// must not introduce races or false positives under full concurrency.
TEST(RuntimeRaces, CheckedProtocolUnderConcurrency) {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 10;
  cfg.seed = 5;
  const CsrGraph g = CsrGraph::from_edges(generate_rmat(cfg));
  const std::vector<dist_t> ref = dijkstra_distances(g, 0);

  Solver solver(g, {.machine = {.num_ranks = 4,
                                .lanes_per_rank = 3,
                                .checked_exchange = true}});
  const SsspResult res =
      solver.solve(0, SsspOptions::lb_opt(/*delta=*/25, /*heavy_threshold=*/8));
  for (vid_t v = 0; v < ref.size(); ++v) ASSERT_EQ(res.dist[v], ref[v]);
}

// Pooled data path under maximal concurrency: worker lanes emit into their
// own pool shards while other lanes emit theirs, the zero-copy exchange
// moves the buffers, and the lane-parallel apply writes disjoint vertex
// ranges without atomics. Every piece of that contract is a potential race
// TSan must see as clean — and the result must still match Dijkstra.
TEST(RuntimeRaces, PooledRelaxPathConcurrentLanes) {
  RmatConfig cfg;
  cfg.scale = 9;
  cfg.edge_factor = 10;
  cfg.seed = 13;
  const CsrGraph g = CsrGraph::from_edges(generate_rmat(cfg));
  const std::vector<dist_t> ref = dijkstra_distances(g, 0);

  Solver solver(g, {.machine = {.num_ranks = 4, .lanes_per_rank = 4}});
  SsspOptions opts = SsspOptions::opt(25);
  opts.track_parents = true;  // parents ride the same parallel apply
  for (int repeat = 0; repeat < 3; ++repeat) {
    const SsspResult res = solver.solve(0, opts);
    for (vid_t v = 0; v < ref.size(); ++v) ASSERT_EQ(res.dist[v], ref[v]);
  }
}

// Buffer-pool recycling across MachineSession job churn: per-rank pools
// outlive individual jobs, so buffers emitted by one job's lanes come back
// as recycled shard capacity in the next job — the handoff chain is
// lane -> rank thread -> board -> peer rank thread -> peer lanes, with the
// job queue's generation handshake in between. 60 back-to-back jobs with
// no idle gap maximize the interleavings of that chain.
TEST(RuntimeRaces, BufferPoolRecyclingUnderSessionChurn) {
  constexpr rank_t R = 4;
  constexpr unsigned kLanes = 3;
  constexpr int kJobs = 60;
  constexpr std::uint32_t kPerShard = 40;
  MachineSession session({.num_ranks = R, .lanes_per_rank = kLanes});
  // One pool per rank, indexed by rank id; each is only ever touched by its
  // owning rank (and that rank's lanes), but lives across jobs.
  std::vector<SendBufferPool<std::uint64_t>> pools(R);
  std::vector<std::uint64_t> received(R, 0);

  for (int job = 0; job < kJobs; ++job) {
    session.run([&, job](RankCtx& ctx) {
      const rank_t r = ctx.rank();
      SendBufferPool<std::uint64_t>& pool = pools[r];
      pool.configure(kLanes, R);
      pool.begin_phase();
      // Lane-parallel emission: each lane fills its own shard row.
      ctx.pool().run_on_lanes([&](unsigned lane) {
        for (rank_t d = 0; d < R; ++d) {
          for (std::uint32_t i = 0; i < kPerShard; ++i) {
            pool.shard(lane, d).push_back(
                (static_cast<std::uint64_t>(job) << 32) | (r * 1000 + i));
          }
        }
      });
      ctx.exchange_pooled(pool, PhaseKind::kShortPhase);
      // Lane-parallel consumption of disjoint batch ranges.
      const auto& in = pool.incoming();
      std::vector<std::uint64_t> lane_sum(ctx.pool().lanes(), 0);
      ctx.pool().parallel_for(
          in.size(), [&](unsigned lane, std::size_t begin, std::size_t end) {
            for (std::size_t b = begin; b < end; ++b) {
              lane_sum[lane] += in[b].size();
            }
          });
      std::uint64_t got = 0;
      for (const std::uint64_t s : lane_sum) got += s;
      ASSERT_EQ(got, static_cast<std::uint64_t>(R) * kLanes * kPerShard);
      received[r] += got;
    });
  }
  for (rank_t r = 0; r < R; ++r) {
    EXPECT_EQ(received[r],
              static_cast<std::uint64_t>(kJobs) * R * kLanes * kPerShard);
  }
}

// Back-to-back full solves with pooled defaults and the checked protocol
// on: each solve constructs the engine pools fresh and recycles buffers
// across its phases, so repeated solves stress construction/teardown of
// the pooled path under the protocol state machines.
TEST(RuntimeRaces, PooledSolvesBackToBackChecked) {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  cfg.seed = 19;
  const CsrGraph g = CsrGraph::from_edges(generate_rmat(cfg));
  const std::vector<dist_t> ref = dijkstra_distances(g, 0);

  Solver solver(g, {.machine = {.num_ranks = 3,
                                .lanes_per_rank = 3,
                                .checked_exchange = true}});
  for (int repeat = 0; repeat < 4; ++repeat) {
    const SsspResult res = solver.solve(0, SsspOptions::opt(25));
    for (vid_t v = 0; v < ref.size(); ++v) ASSERT_EQ(res.dist[v], ref[v]);
  }
}

// The observability snapshot path under maximal concurrency: client
// threads submit queries (bumping counters and latency histograms from
// both the submitter and dispatcher sides) while an observer thread
// continuously reads stats(), snapshots the metrics registry and exports
// the trace — the exact pattern serve_cli's periodic metrics snapshots
// exercise. TSan must see every read as clean; functionally, the final
// snapshot must balance (completed == submitted, hits + misses ==
// completed) so no increment was torn or lost.
TEST(RuntimeRaces, ServeMetricsAndTraceSnapshotsUnderLoad) {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  cfg.seed = 23;
  const CsrGraph g = CsrGraph::from_edges(generate_rmat(cfg));

  MetricsRegistry registry;
  TraceRecorder recorder;
  ServeConfig serve;
  serve.machine = {.num_ranks = 2, .lanes_per_rank = 2};
  serve.max_batch = 4;
  serve.cache_capacity = 16;
  serve.metrics = &registry;
  serve.trace = &recorder;
  QueryEngine engine(g, serve);

  constexpr int kClients = 3;
  constexpr int kPerClient = 20;
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const ServeStats stats = engine.stats();
      ASSERT_LE(stats.completed, stats.submitted);
      const MetricsSnapshot snap = registry.snapshot();
      for (const auto& h : snap.histograms) ASSERT_GE(h.max, 0.0);
      std::ostringstream sink;
      write_chrome_trace(sink, recorder);
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const SsspOptions opts = SsspOptions::opt(25);
      std::vector<std::future<QueryResult>> futures;
      for (int i = 0; i < kPerClient; ++i) {
        // A small root domain so cache hits and misses interleave.
        futures.push_back(engine.submit((c * 7 + i) % 8, opts));
      }
      for (auto& f : futures) {
        const QueryResult r = f.get();
        ASSERT_NE(r.answer, nullptr);
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  observer.join();

  const MetricsSnapshot snap = registry.snapshot();
  std::uint64_t submitted = 0, completed = 0, hits = 0, misses = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "serve.submitted") submitted = c.value;
    if (c.name == "serve.completed") completed = c.value;
    if (c.name == "serve.cache_hits") hits = c.value;
    if (c.name == "serve.cache_misses") misses = c.value;
  }
  EXPECT_EQ(submitted, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(completed, submitted);
  EXPECT_EQ(hits + misses, completed);
  std::uint64_t latency_count = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == "serve.latency_s") latency_count = h.count;
  }
  EXPECT_EQ(latency_count, completed);
  EXPECT_EQ(recorder.total_dropped(), 0u);
}

}  // namespace
}  // namespace parsssp
