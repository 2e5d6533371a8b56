#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

namespace parsssp {
namespace {

/// Wraps one typed vector as a single-segment round payload.
template <typename T>
std::vector<ErasedBuffer> one_segment(std::vector<T> items) {
  std::vector<ErasedBuffer> segments;
  segments.push_back(ErasedBuffer(std::move(items)));
  return segments;
}

/// Unwraps a single-segment round payload.
template <typename T>
std::vector<T> only_segment(std::vector<ErasedBuffer> segments) {
  EXPECT_EQ(segments.size(), 1u);
  if (segments.size() != 1) return {};
  return segments[0].take_as<T>();
}

TEST(ExchangeBoard, PostTakeMovesData) {
  // Unchecked board: the trailing double-take (asserting the slot was
  // drained) is a protocol violation under MPS_CHECKED_EXCHANGE.
  ExchangeBoard board(3, /*checked=*/false);
  const std::vector<int> payload{7, 8, 9};
  board.post_segments(0, 2, one_segment(payload));
  EXPECT_EQ(only_segment<int>(board.take_segments(0, 2)), payload);
  // Slot is drained after take.
  EXPECT_TRUE(board.take_segments(0, 2).empty());
}

TEST(ExchangeBoard, SlotsAreIndependent) {
  ExchangeBoard board(2);
  const std::vector<int> a{1};
  const std::vector<int> b{2};
  board.post_segments(0, 1, one_segment(a));
  board.post_segments(1, 0, one_segment(b));
  EXPECT_EQ(only_segment<int>(board.take_segments(0, 1)), a);
  EXPECT_EQ(only_segment<int>(board.take_segments(1, 0)), b);
}

TEST(ExchangeBoard, StructMessages) {
  struct Msg {
    std::uint64_t v;
    std::uint64_t d;
    bool operator==(const Msg&) const = default;
  };
  ExchangeBoard board(2);
  const std::vector<Msg> msgs{{1, 10}, {2, 20}};
  board.post_segments(1, 0, one_segment(msgs));
  EXPECT_EQ(only_segment<Msg>(board.take_segments(1, 0)), msgs);
}

// A slot carries a list of segments, possibly of different lengths; the
// receiver sees them in post order.
TEST(ExchangeBoard, SegmentsKeepPostOrder) {
  ExchangeBoard board(2, /*checked=*/false);
  std::vector<ErasedBuffer> segments;
  segments.push_back(ErasedBuffer(std::vector<int>{4, 5}));
  segments.push_back(ErasedBuffer(std::vector<int>{6}));
  board.post_segments(1, 0, std::move(segments));
  auto got = board.take_segments(1, 0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].take_as<int>(), (std::vector<int>{4, 5}));
  EXPECT_EQ(got[1].take_as<int>(), (std::vector<int>{6}));
}

TEST(ErasedBuffer, ReportsTypeAndSize) {
  ErasedBuffer buf(std::vector<std::uint16_t>{1, 2, 3});
  EXPECT_TRUE(buf.holds_value());
  EXPECT_EQ(buf.size(), 3u);
  ASSERT_NE(buf.type(), nullptr);
  EXPECT_TRUE(*buf.type() == typeid(std::uint16_t));
  const auto back = buf.take_as<std::uint16_t>();
  EXPECT_EQ(back, (std::vector<std::uint16_t>{1, 2, 3}));
}

}  // namespace
}  // namespace parsssp
