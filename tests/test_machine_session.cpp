// MachineSession: persistent rank threads executing queued collective jobs.
// Exercises job FIFO semantics, result/error futures, cancellation, traffic
// accumulation across jobs, and bit-equality of an SSSP run on a session
// with the same run on a spawn-per-job Machine.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "core/engine_job.hpp"
#include "core/solver.hpp"
#include "graph/rmat.hpp"
#include "runtime/machine_session.hpp"
#include "seq/dijkstra.hpp"

namespace parsssp {
namespace {

MachineConfig checked_config(rank_t ranks) {
  MachineConfig config;
  config.num_ranks = ranks;
  config.checked_exchange = true;  // protocol checks across job boundaries
  return config;
}

TEST(MachineSession, RunsBackToBackCollectiveJobs) {
  MachineSession session(checked_config(4));
  for (int job = 1; job <= 5; ++job) {
    session.run([job](RankCtx& ctx) {
      // Mix collectives and an exchange so the checked protocol sees the
      // rank round counters advance consistently across job boundaries.
      const auto sum = ctx.allreduce(std::uint64_t{1}, SumOp{});
      EXPECT_EQ(sum, ctx.num_ranks());
      std::vector<std::vector<std::uint32_t>> out(ctx.num_ranks());
      for (rank_t d = 0; d < ctx.num_ranks(); ++d) {
        out[d].push_back(ctx.rank() * 100u + static_cast<std::uint32_t>(job));
      }
      const auto in = ctx.exchange(std::move(out), PhaseKind::kControl);
      for (rank_t s = 0; s < ctx.num_ranks(); ++s) {
        ASSERT_EQ(in[s].size(), 1u);
        EXPECT_EQ(in[s][0], s * 100u + static_cast<std::uint32_t>(job));
      }
    });
  }
  EXPECT_EQ(session.jobs_completed(), 5u);
}

TEST(MachineSession, JobsRunInSubmissionOrder) {
  MachineSession session(checked_config(3));
  std::vector<int> order;  // written by rank 0 only; jobs never overlap
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(session.submit([i, &order](RankCtx& ctx) {
      if (ctx.rank() == 0) order.push_back(i);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(MachineSession, SsspOnSessionMatchesSolver) {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.edge_factor = 8;
  cfg.seed = 11;
  const auto g = CsrGraph::from_edges(generate_rmat(cfg));
  const SsspOptions options = SsspOptions::opt(25);
  constexpr rank_t kRanks = 4;

  Solver solver(g, {.machine = {.num_ranks = kRanks}});
  const auto expected = solver.solve(5, options);

  MachineSession session(checked_config(kRanks));
  const BlockPartition part(g.num_vertices(), kRanks);
  std::vector<LocalEdgeView> views(kRanks);
  session.run([&](RankCtx& ctx) {
    views[ctx.rank()] = LocalEdgeView::build(g, part, ctx.rank(),
                                             options.delta);
  });

  // Two identical solves back to back on the same session: both must match
  // the Solver's answer bit for bit.
  for (int round = 0; round < 2; ++round) {
    std::vector<dist_t> dist;
    SsspStats stats;
    run_engine(session,
               {.graph = &g,
                .part = part,
                .views = &views,
                .dist = &dist,
                .root = 5,
                .stats = &stats},
               options);
    EXPECT_EQ(dist, expected.dist) << "round " << round;
  }
  EXPECT_EQ(session.jobs_completed(), 3u);  // view build + 2 solves
}

TEST(MachineSession, ErrorOnAllRanksPropagatesThroughFuture) {
  MachineSession session(checked_config(4));
  auto failing = session.submit(
      [](RankCtx&) { throw std::runtime_error("rank failure"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
  // The session survives a failed job and keeps serving.
  session.run([](RankCtx& ctx) {
    EXPECT_EQ(ctx.allreduce(std::uint64_t{2}, SumOp{}),
              2 * std::uint64_t{ctx.num_ranks()});
  });
  EXPECT_EQ(session.jobs_completed(), 2u);
}

TEST(MachineSession, CancelPendingFailsQueuedJobsOnly) {
  MachineSession session(checked_config(2));
  std::atomic<bool> release{false};
  auto blocker = session.submit([&release](RankCtx&) {
    while (!release.load()) std::this_thread::yield();
  });
  auto queued_a = session.submit([](RankCtx&) {});
  auto queued_b = session.submit([](RankCtx&) {});
  EXPECT_EQ(session.cancel_pending(), 2u);
  release.store(true);
  EXPECT_NO_THROW(blocker.get());
  EXPECT_THROW(queued_a.get(), JobCancelled);
  EXPECT_THROW(queued_b.get(), JobCancelled);
  // Still serving after cancellation.
  session.run([](RankCtx& ctx) { ctx.barrier(); });
  EXPECT_EQ(session.jobs_completed(), 2u);  // blocker + barrier job
}

TEST(MachineSession, DestructorCancelsQueuedJobs) {
  std::future<void> queued;
  std::atomic<bool> release{false};
  {
    MachineSession session(checked_config(2));
    auto blocker = session.submit([&release](RankCtx&) {
      while (!release.load()) std::this_thread::yield();
    });
    queued = session.submit([](RankCtx&) {});
    release.store(true);
    blocker.get();
    // `queued` may or may not have started by now; destruction must either
    // run it to completion or cancel it — never hang.
  }
  try {
    queued.get();
  } catch (const JobCancelled&) {
    // acceptable: destroyed before the job started
  }
}

TEST(MachineSession, TrafficAccumulatesAcrossJobs) {
  MachineSession session(checked_config(3));
  const auto exchange_job = [](RankCtx& ctx) {
    std::vector<std::vector<std::uint64_t>> out(ctx.num_ranks());
    for (rank_t d = 0; d < ctx.num_ranks(); ++d) out[d].push_back(7);
    ctx.exchange(std::move(out), PhaseKind::kShortPhase);
  };
  session.run(exchange_job);
  const std::uint64_t after_one = session.traffic().merged().total_messages();
  EXPECT_GT(after_one, 0u);
  session.run(exchange_job);
  EXPECT_EQ(session.traffic().merged().total_messages(), 2 * after_one);
  session.reset_traffic();
  EXPECT_EQ(session.traffic().merged().total_messages(), 0u);
}

TEST(MachineSession, SingleRankRunsInline) {
  MachineSession session(checked_config(1));
  std::uint64_t sum = 0;
  session.run([&sum](RankCtx& ctx) {
    sum = ctx.allreduce(std::uint64_t{42}, SumOp{});
  });
  EXPECT_EQ(sum, 42u);
}

TEST(MachineSession, SubmitAfterShutdownThrows) {
  // Destroying and submitting concurrently is a race by contract; this
  // checks the sequential misuse only: submit on a destroyed session is
  // impossible to express, so exercise the zero-rank normalization instead.
  MachineConfig config;
  config.num_ranks = 0;  // normalized to 1
  MachineSession session(config);
  EXPECT_EQ(session.num_ranks(), 1u);
  session.run([](RankCtx& ctx) { EXPECT_EQ(ctx.num_ranks(), 1u); });
}

}  // namespace
}  // namespace parsssp
