// Unit tests for the pooled relax data path's building blocks: the
// SendBufferPool (capacity recycling, canonical delivery order), the
// SenderReducer (running-minimum no-op elimination), and the zero-copy
// segment exchange through ExchangeBoard and RankCtx.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/protocol_check.hpp"
#include "runtime/send_buffer_pool.hpp"

namespace parsssp {
namespace {

struct Msg {
  std::uint32_t v;
  std::uint32_t nd;
  bool operator==(const Msg&) const = default;
};

TEST(SendBufferPool, ShardsKeepCapacityAcrossPhases) {
  SendBufferPool<Msg> pool;
  pool.configure(2, 2);
  for (int i = 0; i < 100; ++i) pool.shard(1, 0).push_back({0, 0});
  const std::size_t cap = pool.shard(1, 0).capacity();
  EXPECT_GE(cap, 100u);
  pool.begin_phase();
  EXPECT_EQ(pool.shard(1, 0).size(), 0u);
  EXPECT_EQ(pool.shard(1, 0).capacity(), cap);  // no churn
}

TEST(SendBufferPool, IncomingBuffersRecycleIntoEmptyShards) {
  SendBufferPool<Msg> pool;
  pool.configure(1, 2);
  pool.shard(0, 0).reserve(8);  // keep shard 0 seated: it is not re-seated
  // A shard that was moved out by an exchange has zero capacity...
  std::vector<Msg> shipped = std::move(pool.shard(0, 1));
  EXPECT_EQ(pool.shard(0, 1).capacity(), 0u);
  // ...and a received buffer, once the next phase begins, re-seats it.
  std::vector<Msg> received;
  received.reserve(64);
  pool.push_incoming(1, std::move(received));
  pool.begin_phase();
  EXPECT_GE(pool.shard(0, 1).capacity(), 64u);
  EXPECT_TRUE(pool.incoming().empty());
  EXPECT_TRUE(pool.incoming_sources().empty());
  (void)shipped;
}

// The reducer keeps exactly the running-minimum subsequence per key: every
// dropped message is >= an earlier kept message with the same key, so it
// could not have changed any receiver state (strict-< running min).
TEST(SenderReducer, KeepsRunningMinimumSubsequence) {
  SenderReducer<std::uint32_t> red;
  red.ensure(4);
  std::vector<Msg> buf = {{0, 9}, {0, 9}, {1, 5}, {0, 7}, {0, 8},
                          {1, 5}, {0, 3}, {1, 2}, {0, 3}};
  red.begin_dest();
  const std::size_t dropped =
      red.reduce(buf, [](const Msg& m) { return std::size_t(m.v); },
                 [](const Msg& m) { return m.nd; });
  const std::vector<Msg> want = {{0, 9}, {1, 5}, {0, 7}, {0, 3}, {1, 2}};
  EXPECT_EQ(buf, want);  // stable: original relative order retained
  EXPECT_EQ(dropped, 4u);
}

// begin_dest() opens a fresh stream: per-destination tables are logically
// independent even though the stamp storage is shared (epoch advance).
TEST(SenderReducer, DestinationsAreIndependentStreams) {
  SenderReducer<std::uint32_t> red;
  red.ensure(1);
  std::vector<Msg> a = {{0, 5}};
  std::vector<Msg> b = {{0, 5}};  // same key+value, different destination
  red.begin_dest();
  red.reduce(a, [](const Msg& m) { return std::size_t(m.v); },
             [](const Msg& m) { return m.nd; });
  red.begin_dest();
  red.reduce(b, [](const Msg& m) { return std::size_t(m.v); },
             [](const Msg& m) { return m.nd; });
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);  // not dropped against destination a's stream
}

// Lane shards of one destination share the stream: a message in lane 1
// that does not improve on lane 0's best for the same key is dropped.
TEST(SenderReducer, LaneShardsShareOneStreamPerDestination) {
  SenderReducer<std::uint32_t> red;
  red.ensure(1);
  std::vector<Msg> lane0 = {{0, 4}};
  std::vector<Msg> lane1 = {{0, 6}, {0, 2}};
  red.begin_dest();
  red.reduce(lane0, [](const Msg& m) { return std::size_t(m.v); },
             [](const Msg& m) { return m.nd; });
  red.reduce(lane1, [](const Msg& m) { return std::size_t(m.v); },
             [](const Msg& m) { return m.nd; });
  EXPECT_EQ(lane0.size(), 1u);
  const std::vector<Msg> want1 = {{0, 2}};
  EXPECT_EQ(lane1, want1);
}

// Zero-copy: the vector a sender posts is byte-for-byte the vector the
// receiver takes — same heap allocation, no pack/unpack copies.
TEST(ErasedBufferBoard, SegmentsMoveThroughWithoutCopy) {
  ExchangeBoard board(2, /*checked=*/true);
  std::vector<Msg> payload = {{1, 2}, {3, 4}};
  const Msg* data = payload.data();
  std::vector<ErasedBuffer> segments;
  segments.push_back(ErasedBuffer(std::move(payload)));
  board.post_segments(0, 1, std::move(segments), 1);
  auto got = board.take_segments(0, 1, 1);
  ASSERT_EQ(got.size(), 1u);
  std::vector<Msg> back = got[0].take_as<Msg>();
  EXPECT_EQ(back.data(), data);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].nd, 4u);
}

TEST(ErasedBufferBoard, EmptySegmentListIsAValidRound) {
  ExchangeBoard board(2, /*checked=*/true);
  board.post_segments(0, 1, {}, 1);
  EXPECT_TRUE(board.take_segments(0, 1, 1).empty());
  // The slot epoch advanced: round 2 posts/takes line up.
  board.post_segments(0, 1, {}, 2);
  EXPECT_TRUE(board.take_segments(0, 1, 2).empty());
}

TEST(ErasedBufferBoard, WrongElementTypeIsTypeConfusion) {
  ExchangeBoard board(2, /*checked=*/true);
  std::vector<ErasedBuffer> segments;
  segments.push_back(ErasedBuffer(std::vector<Msg>{{1, 2}}));
  board.post_segments(0, 1, std::move(segments), 1);
  auto got = board.take_segments(0, 1, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_THROW((void)got[0].take_as<std::uint64_t>(), ProtocolError);
}

// exchange_pooled delivers every message in canonical order: source rank
// ascending (self in place), lane ascending within a source, push order
// within a shard.
TEST(ExchangePooled, DeliversCanonicalOrder) {
  constexpr rank_t kRanks = 3;
  constexpr unsigned kLanes = 2;
  Machine machine({.num_ranks = kRanks, .lanes_per_rank = kLanes});
  std::vector<std::vector<Msg>> got(kRanks);
  machine.run([&](RankCtx& ctx) {
    const rank_t r = ctx.rank();
    SendBufferPool<Msg> pool;
    pool.configure(kLanes, kRanks);
    pool.begin_phase();
    for (unsigned l = 0; l < kLanes; ++l) {
      for (rank_t d = 0; d < kRanks; ++d) {
        for (std::uint32_t i = 0; i < 3; ++i) {
          pool.shard(l, d).push_back({r * 100u + l * 10u + i, d});
        }
      }
    }
    ctx.exchange_pooled(pool, PhaseKind::kShortPhase);
    for (const auto& batch : pool.incoming()) {
      got[r].insert(got[r].end(), batch.begin(), batch.end());
    }
  });
  for (rank_t r = 0; r < kRanks; ++r) {
    std::vector<Msg> want;
    for (rank_t s = 0; s < kRanks; ++s) {
      for (unsigned l = 0; l < kLanes; ++l) {
        for (std::uint32_t i = 0; i < 3; ++i) {
          want.push_back({s * 100u + l * 10u + i, r});
        }
      }
    }
    EXPECT_EQ(got[r], want) << "rank " << r;
  }
}

// RankCtx::exchange rides the same segment transport: the buffer a rank
// hands to exchange() for a peer is the very buffer the peer receives.
TEST(RankCtxExchange, PeerReceivesTheSendersBuffer) {
  constexpr rank_t kRanks = 3;
  Machine machine({.num_ranks = kRanks});
  // sent[s * kRanks + d]: data() rank s posted for d; received likewise.
  std::vector<const Msg*> sent(kRanks * kRanks, nullptr);
  std::vector<const Msg*> received(kRanks * kRanks, nullptr);
  machine.run([&](RankCtx& ctx) {
    const rank_t r = ctx.rank();
    std::vector<std::vector<Msg>> out(kRanks);
    for (rank_t d = 0; d < kRanks; ++d) {
      out[d].assign(16, Msg{r, d});
      sent[r * kRanks + d] = out[d].data();
    }
    const auto in = ctx.exchange(std::move(out), PhaseKind::kShortPhase);
    for (rank_t s = 0; s < kRanks; ++s) {
      ASSERT_EQ(in[s].size(), 16u);
      EXPECT_EQ(in[s][0], (Msg{s, r}));
      received[s * kRanks + r] = in[s].data();
    }
  });
  for (rank_t s = 0; s < kRanks; ++s) {
    for (rank_t d = 0; d < kRanks; ++d) {
      EXPECT_EQ(received[s * kRanks + d], sent[s * kRanks + d])
          << s << " -> " << d;
    }
  }
}

// Capacity circulates: after a warm-up exchange, subsequent identical
// rounds allocate nothing new — every shard is re-seated from recycled
// incoming buffers.
TEST(ExchangePooled, SteadyStateReusesBuffers) {
  constexpr rank_t kRanks = 2;
  Machine machine({.num_ranks = kRanks});
  machine.run([&](RankCtx& ctx) {
    SendBufferPool<Msg> pool;
    pool.configure(1, kRanks);
    for (int round = 0; round < 4; ++round) {
      pool.begin_phase();
      for (rank_t d = 0; d < kRanks; ++d) {
        for (std::uint32_t i = 0; i < 50; ++i) pool.shard(0, d).push_back({i, d});
      }
      if (round >= 2) {
        // Warmed up: both shards must already hold recycled capacity.
        for (rank_t d = 0; d < kRanks; ++d) {
          EXPECT_GE(pool.shard(0, d).capacity(), 50u) << "round " << round;
        }
      }
      ctx.exchange_pooled(pool, PhaseKind::kShortPhase);
      std::size_t got = 0;
      for (const auto& b : pool.incoming()) got += b.size();
      EXPECT_EQ(got, kRanks * 50u);
    }
  });
}

}  // namespace
}  // namespace parsssp
