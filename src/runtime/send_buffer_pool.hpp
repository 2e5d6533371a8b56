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
//     buckets, and (when the pool lives in a session-long
//     RankCtx::workspace) jobs. The free list keeps at most lanes x ranks
//     spare buffers — enough to re-seat every shard — and frees the rest:
//     under asymmetric traffic a rank receives more buffers than it sends,
//     and an uncapped list would grow for as long as the pool lives.
//
// The pool is rank-thread-owned state, like the TrafficCounters it feeds:
// worker lanes may only touch their own lane's shards (during emission) or
// the disjoint slices an apply partition assigns them. Canonical message
// order is source rank ascending (self included in place), lane ascending
// within a source, push order within a shard. exchange_pooled preserves it
// by posting and taking segments in exactly that order, so apply order
// (and with it equal-distance parent tie-breaks) is deterministic.
//
// SenderReducer implements sender-side reduction (see docs/PERFORMANCE.md)
// with one primitive: an emitter opens a stream with begin_stream() and
// asks admit(key, value) for each message in the stream's canonical order,
// keeping the message only on true. admit keeps exactly the messages that
// strictly improve on every earlier admitted message with the same key
// (the running-minimum subsequence). A dropped message m satisfies
// value(m) >= value(k) for some earlier kept k with the same key, and k
// precedes m in the canonical order, so at the receiver — whose apply is a
// strict `<` running min seeded with the current distance — m can improve
// nothing, insert nothing into the frontier, and write no parent,
// *whatever* the receiver's state is. Dropping it is therefore a provable
// no-op elimination, and the reduced stream is bit-identical to the full
// one in effect, not just in outcome distribution. A single emitter
// pushing in canonical order admits as it emits; concurrent lanes fill
// their shards first and the rank thread admits them in lane order. The
// table is epoch-stamped (no clearing, no hashing).
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

  // -- retention (what a long-lived pool holds on to) ---------------------

  /// Spare buffers on the free list; never more than spare_limit().
  std::size_t spare_buffers() const { return free_.size(); }
  std::size_t spare_limit() const {
    return lanes_.size() * static_cast<std::size_t>(ranks_);
  }

  /// Elements of capacity held by shards, spare and incoming buffers.
  std::size_t retained_capacity() const {
    std::size_t n = 0;
    for (const auto& lane : lanes_) {
      for (const auto& shard : lane.value) n += shard.capacity();
    }
    for (const auto& buf : free_) n += buf.capacity();
    for (const auto& buf : incoming_) n += buf.capacity();
    return n;
  }

 private:
  void recycle_incoming() {
    for (auto& batch : incoming_) retire(std::move(batch));
    incoming_.clear();
    incoming_sources_.clear();
  }

  void retire(std::vector<T> buf) {
    if (buf.capacity() == 0 || free_.size() >= spare_limit()) return;
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
/// transformation. Keys are global vertex ids (delta and stepping
/// engines), destination-local ids (BFS dedup) or (destination-local id,
/// slot) pairs (multi-root engine). An entry is a `Stamp` and the running
/// minimum packed together — 12 bytes for a 32-bit stamp and a 64-bit
/// distance; when the stamp wraps the stamps are cleared once.
template <typename Value, typename Stamp = std::uint32_t>
class SenderReducer {
 public:
  /// Grows the table to cover keys [0, key_space). Stamps persist across
  /// calls; advancing the epoch invalidates them.
  void ensure(std::size_t key_space) {
    if (table_.size() < key_space) table_.resize(key_space);
  }

  /// Opens a new stream: forgets every earlier admit. Call before the
  /// first admit.
  void begin_stream() {
    if (++epoch_ == 0) {  // wrapped: old stamps would start matching again
      for (Entry& e : table_) e.stamp = 0;
      epoch_ = 1;
    }
  }

  /// True iff `value` strictly improves on every value admitted for `key`
  /// in the current stream (the caller keeps the message); false means the
  /// message is a provable no-op at the receiver and is dropped.
  bool admit(std::size_t key, Value value) {
    Entry& e = table_[key];
    if (e.stamp == epoch_ && value >= e.best) return false;
    e.stamp = epoch_;
    e.best = value;
    return true;
  }

 private:
  // Stamp and running minimum side by side (one cache line per admit),
  // without padding the stamp to the value's alignment.
#pragma pack(push, 4)
  struct Entry {
    Stamp stamp = 0;
    Value best{};
  };
#pragma pack(pop)
  std::vector<Entry> table_;
  Stamp epoch_ = 0;
};

}  // namespace parsssp
