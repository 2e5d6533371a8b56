// Negative tests for the checked exchange/lane/ownership protocols
// (runtime/protocol_check.hpp). Boards and machines are constructed with
// checking explicitly enabled so these pass in every build configuration,
// including the Debug build where MPS_CHECKED_EXCHANGE makes checking the
// default.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/protocol_check.hpp"
#include "runtime/thread_pool.hpp"

namespace parsssp {
namespace {

/// One round's payload for a slot: a single int segment.
std::vector<ErasedBuffer> payload(int value) {
  std::vector<ErasedBuffer> segments;
  segments.push_back(ErasedBuffer(std::vector<int>{value}));
  return segments;
}

/// The int a slot's round payload carried.
int value_of(std::vector<ErasedBuffer> segments) {
  EXPECT_EQ(segments.size(), 1u);
  return segments.at(0).take_as<int>().at(0);
}

TEST(ExchangeProtocol, DoublePostCaught) {
  ExchangeBoard board(2, /*checked=*/true);
  board.post_segments(0, 1, payload(1));
  EXPECT_THROW(board.post_segments(0, 1, payload(2)), ProtocolError);
}

TEST(ExchangeProtocol, TakeBeforePostCaught) {
  ExchangeBoard board(2, /*checked=*/true);
  EXPECT_THROW(board.take_segments(0, 1), ProtocolError);
}

TEST(ExchangeProtocol, DoubleTakeCaught) {
  ExchangeBoard board(2, /*checked=*/true);
  board.post_segments(0, 1, payload(7));
  board.take_segments(0, 1);
  EXPECT_THROW(board.take_segments(0, 1), ProtocolError);
}

TEST(ExchangeProtocol, StaleEpochTakeCaught) {
  ExchangeBoard board(2, /*checked=*/true);
  board.post_segments(0, 1, payload(7), /*round=*/1);
  // The receiver believes it is in round 2 but the payload is round 1's:
  // some rank skipped an exchange. Caught as a stale-epoch take.
  EXPECT_THROW(board.take_segments(0, 1, /*round=*/2), ProtocolError);
}

TEST(ExchangeProtocol, CrossRoundPostCaught) {
  ExchangeBoard board(2, /*checked=*/true);
  // Posting round 5 into a slot whose epoch is 0: the poster ran exchange
  // rounds its peers never saw.
  EXPECT_THROW(board.post_segments(0, 1, payload(1), /*round=*/5),
               ProtocolError);
}

TEST(ExchangeProtocol, OutOfRangeRanksCaught) {
  ExchangeBoard board(2, /*checked=*/true);
  EXPECT_THROW(board.post_segments(2, 0, payload(1)), ProtocolError);
  EXPECT_THROW(board.post_segments(0, 9, payload(1)), ProtocolError);
  EXPECT_THROW(board.take_segments(7, 0), ProtocolError);
}

TEST(ExchangeProtocol, UncheckedBoardDoesNotEnforce) {
  ExchangeBoard board(2, /*checked=*/false);
  board.post_segments(0, 1, payload(1));
  EXPECT_NO_THROW(board.post_segments(0, 1, payload(2)));
  EXPECT_EQ(value_of(board.take_segments(0, 1)), 2);  // last write wins
  EXPECT_TRUE(board.take_segments(0, 1).empty());  // double take sees empty
}

TEST(ExchangeProtocol, CorrectRoundsPassChecks) {
  ExchangeBoard board(2, /*checked=*/true);
  for (std::uint64_t round = 1; round <= 10; ++round) {
    board.post_segments(0, 1, payload(static_cast<int>(round)), round);
    board.post_segments(1, 0, payload(-static_cast<int>(round)), round);
    EXPECT_EQ(value_of(board.take_segments(0, 1, round)),
              static_cast<int>(round));
    EXPECT_EQ(value_of(board.take_segments(1, 0, round)),
              -static_cast<int>(round));
  }
}

TEST(ExchangeProtocol, CheckedMachineRunsCorrectJobsCleanly) {
  constexpr rank_t R = 4;
  Machine m({.num_ranks = R,
             .lanes_per_rank = 2,
             .record_pair_traffic = true,
             .checked_exchange = true});
  m.run([&](RankCtx& ctx) {
    for (int round = 0; round < 8; ++round) {
      std::vector<std::vector<int>> out(R);
      for (rank_t d = 0; d < R; ++d) out[d] = {round};
      const auto in = ctx.exchange(std::move(out), PhaseKind::kShortPhase);
      for (rank_t s = 0; s < R; ++s) {
        ASSERT_EQ(in[s].size(), 1u);
        EXPECT_EQ(in[s][0], round);
      }
      const auto sum = ctx.allreduce<std::uint64_t>(1, SumOp{});
      EXPECT_EQ(sum, R);
    }
  });
}

TEST(ExchangeProtocol, CheckedPoolRunsCorrectJobsCleanly) {
  ThreadPool pool(4, /*checked=*/true);
  std::vector<std::atomic<int>> hits(100);
  for (int repeat = 0; repeat < 16; ++repeat) {
    pool.parallel_for(100, [&](unsigned, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i]++;
    });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 16);
}

// The abort-with-diagnostic path: a worker lane touching rank-owned state
// (here: the rank's traffic counters) is caught by RankCtx::check_owner,
// and the resulting ProtocolError escaping a lane thread terminates the
// process with the diagnostic on stderr.
TEST(ExchangeProtocolDeathTest, WorkerLaneTouchingRankStateAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Machine m({.num_ranks = 1,
                   .lanes_per_rank = 4,
                   .checked_exchange = true});
        m.run([](RankCtx& ctx) {
          ThreadPool& pool = ctx.pool();
          pool.run_on_lanes([&](unsigned lane) {
            if (lane == 1) ctx.traffic().add(PhaseKind::kControl, 1, 1);
          });
        });
      },
      "protocol violation");
}

}  // namespace
}  // namespace parsssp
