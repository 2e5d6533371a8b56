// Pooled send/receive buffers for the relax data path.
//
// Every engine emits, exchanges and applies its relax traffic through one
// SendBufferPool per message type:
//
//   * shards: one message vector per (lane, destination rank), cache-line
//     padded per lane so concurrent push_backs from worker lanes never
//     share a line. begin_phase() clears sizes but keeps capacity, so a
//     bucket's phases stop allocating once the high-water mark is reached.
//   * zero-copy exchange (RankCtx::exchange_pooled): shards are moved into
//     the board as independent segments — no lane merge, no copy — and
//     land here as `incoming()` batches tagged with their source rank.
//   * recycling: begin_phase() moves applied incoming buffers onto a free
//     list and re-seats empty shards from it, so vector capacity circulates
//     sender -> board -> receiver -> receiver's own shards across phases,
//     buckets, and (under MachineSession) jobs.
//
// The pool is rank-thread-owned state, like the TrafficCounters it feeds:
// worker lanes may only touch their own lane's shards (during emission) or
// the disjoint slices an apply partition assigns them. Canonical message
// order is source rank ascending (self included in place), lane ascending
// within a source, push order within a shard. exchange_pooled preserves it
// by posting and taking segments in exactly that order, so apply order
// (and with it equal-distance parent tie-breaks) is deterministic.
//
// SenderReducer implements sender-side reduction (see docs/PERFORMANCE.md):
// within one destination's canonical stream it keeps only the messages
// that strictly improve on every earlier message for the same key (the
// running-minimum subsequence). A dropped message m satisfies
// value(m) >= value(k) for some earlier kept k with the same key, so at
// the receiver — whose apply is a strict `<` running min seeded with the
// current distance — m can improve nothing, insert nothing into the
// frontier, and write no parent, *whatever* the receiver's state is.
// Dropping it is therefore a provable no-op elimination, and the reduced
// stream is bit-identical to the full one in effect, not just in outcome
// distribution. The table is epoch-stamped (no clearing, no hashing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/sync.hpp"
#include "core/types.hpp"

namespace parsssp {

template <typename T>
class SendBufferPool {
 public:
  /// (Re)shapes the pool. Idempotent for equal geometry; changing geometry
  /// retires existing shard capacity to the free list.
  void configure(unsigned lanes, rank_t ranks) {
    if (lanes_.size() == lanes && ranks_ == ranks) return;
    for (auto& lane : lanes_) {
      for (auto& shard : lane.value) retire(std::move(shard));
    }
    lanes_.assign(lanes, {});
    for (auto& lane : lanes_) lane.value.resize(ranks);
    ranks_ = ranks;
  }

  unsigned lanes() const { return static_cast<unsigned>(lanes_.size()); }
  rank_t ranks() const { return ranks_; }

  /// The (lane, dest) emission buffer. Worker lane `lane` may push into its
  /// own shards during a parallel emission; the rank thread may use any.
  std::vector<T>& shard(unsigned lane, rank_t dest) {
    return lanes_[lane].value[dest];
  }

  /// Starts a phase: recycles the previous phase's incoming buffers onto
  /// the free list, re-seats capacity-less shards from it, and clears every
  /// shard's size. No deallocation happens here — capacity is retained.
  void begin_phase() {
    recycle_incoming();
    for (auto& lane : lanes_) {
      for (auto& shard : lane.value) {
        if (shard.capacity() == 0 && !free_.empty()) {
          shard = std::move(free_.back());
          free_.pop_back();
        }
        shard.clear();
      }
    }
  }

  /// Sum of shard sizes across all lanes and destinations (what an
  /// exchange would post, plus the self-destined messages).
  std::uint64_t pending_messages() const {
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) {
      for (const auto& shard : lane.value) n += shard.size();
    }
    return n;
  }

  // -- incoming side (filled by RankCtx::exchange_pooled) -----------------

  /// Received batches, in canonical order: source rank ascending, lane
  /// ascending within a source. Parallel to incoming_sources().
  std::vector<std::vector<T>>& incoming() { return incoming_; }
  const std::vector<std::vector<T>>& incoming() const { return incoming_; }

  /// Source rank of each incoming() batch (a source appears once per
  /// non-empty lane shard it sent).
  const std::vector<rank_t>& incoming_sources() const {
    return incoming_sources_;
  }

  void clear_incoming() {
    recycle_incoming();
  }

  void push_incoming(rank_t source, std::vector<T> batch) {
    incoming_.push_back(std::move(batch));
    incoming_sources_.push_back(source);
  }

 private:
  void recycle_incoming() {
    for (auto& batch : incoming_) retire(std::move(batch));
    incoming_.clear();
    incoming_sources_.clear();
  }

  void retire(std::vector<T> buf) {
    if (buf.capacity() == 0) return;
    buf.clear();
    free_.push_back(std::move(buf));
  }

  /// Per-lane shard block, padded so two lanes' vector headers (size/
  /// capacity words mutated on every push_back) never share a cache line.
  std::vector<CacheAligned<std::vector<std::vector<T>>>> lanes_;
  rank_t ranks_ = 0;
  std::vector<std::vector<T>> free_;
  std::vector<std::vector<T>> incoming_;
  std::vector<rank_t> incoming_sources_;
};

/// Epoch-stamped sender-side reducer; see the file comment for why keeping
/// the per-key running-minimum subsequence is an exact (bit-identical)
/// transformation. One instance per engine; the key space is the receiver's
/// local-id range (times the slot count for the multi-root engine).
template <typename Value>
class SenderReducer {
 public:
  /// Grows the stamp table to cover keys [0, key_space). Stamps persist
  /// across calls; no clearing ever happens (epoch advance invalidates).
  void ensure(std::size_t key_space) {
    if (stamp_.size() < key_space) {
      stamp_.resize(key_space, 0);
      best_.resize(key_space);
    }
  }

  /// Opens a destination's canonical stream: subsequent reduce() calls (one
  /// per lane shard, in lane order) share one running-min table.
  void begin_dest() { ++epoch_; }

  /// In-place compaction of one shard of the current destination's stream:
  /// keeps message i iff value(i) strictly improves on every kept earlier
  /// message with the same key. Returns the number of messages dropped.
  /// Stable: kept messages retain their relative order.
  template <typename T, typename KeyFn, typename ValueFn>
  std::size_t reduce(std::vector<T>& shard, KeyFn key_of, ValueFn value_of) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < shard.size(); ++i) {
      const std::size_t k = key_of(shard[i]);
      const Value v = value_of(shard[i]);
      if (stamp_[k] == epoch_ && v >= best_[k]) continue;
      stamp_[k] = epoch_;
      best_[k] = v;
      if (w != i) shard[w] = shard[i];
      ++w;
    }
    const std::size_t dropped = shard.size() - w;
    shard.resize(w);
    return dropped;
  }

 private:
  std::vector<std::uint64_t> stamp_;
  std::vector<Value> best_;
  std::uint64_t epoch_ = 0;
};

}  // namespace parsssp
