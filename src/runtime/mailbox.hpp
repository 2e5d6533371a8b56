// The message substrate of the simulated machine: an R x R board of typed
// buffer segments, our stand-in for Blue Gene/Q's per-thread SPI injection
// and reception queues. Each (source, destination) slot is written by
// exactly one rank and read by exactly one rank, with a barrier separating
// the two sides — so the board needs no locks, mirroring the paper's
// lock-free SPI usage.
//
// Payloads move through the board zero-copy: a slot holds a list of
// ErasedBuffer segments, each a moved-in std::vector<T>, and
// take_segments() moves them back out. This is the board's only transport:
// RankCtx::exchange_pooled posts a rank's lane shards as one segment each,
// and RankCtx::exchange posts each destination's vector as one segment.
//
// That safety argument is a *protocol*, not a property of the data
// structure, so in checked mode (see runtime/protocol_check.hpp) the board
// validates it with a per-slot epoch state machine:
//
//   posted == taken   : slot empty, the only state in which a post is legal
//   posted == taken+1 : slot holds one round's payload, a take is legal
//
// post_segments() advances `posted`, take_segments() advances `taken`. Any
// other transition is a protocol violation: a second post before the
// payload was consumed (double post / cross-round leakage), a take of an
// empty slot (take before the exchange barrier, or of a stale epoch), or
// out-of-range ranks. The
// caller may additionally pass its own 1-based round number; a mismatch
// against the slot epoch catches ranks whose exchange() calls have diverged
// (a rank skipping or repeating a collective round). Taking a segment as
// the wrong element type is always fatal, checked mode or not: it is type
// confusion, not a timing bug. Epoch fields are themselves unsynchronized —
// under the correct protocol they inherit the payload's barrier separation;
// a violating program may race on them, but checked mode exists precisely
// to abort such programs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "runtime/protocol_check.hpp"

namespace parsssp {

/// Move-only type-erased holder of one std::vector<T> payload segment. The
/// element type is recorded and re-checked on extraction, so a receiver
/// that disagrees with the sender about the wire type fails loudly instead
/// of reinterpreting memory.
class ErasedBuffer {
 public:
  ErasedBuffer() = default;

  template <typename T>
  explicit ErasedBuffer(std::vector<T> items)
      : self_(std::make_unique<Model<T>>(std::move(items))) {}

  ErasedBuffer(ErasedBuffer&&) noexcept = default;
  ErasedBuffer& operator=(ErasedBuffer&&) noexcept = default;
  ErasedBuffer(const ErasedBuffer&) = delete;
  ErasedBuffer& operator=(const ErasedBuffer&) = delete;

  bool holds_value() const { return self_ != nullptr; }

  /// Element type of the held vector; null when empty.
  const std::type_info* type() const {
    return self_ ? &self_->type() : nullptr;
  }

  std::size_t size() const { return self_ ? self_->size() : 0; }

  /// Moves the payload out, asserting the element type the sender put in.
  /// A mismatch is type confusion on the wire: always a protocol violation.
  template <typename T>
  std::vector<T> take_as() {
    if (self_ == nullptr) return {};
    if (self_->type() != typeid(T)) {
      protocol_violation(std::string("ErasedBuffer type confusion: held ") +
                         self_->type().name() + ", taken as " +
                         typeid(T).name());
    }
    auto* model = static_cast<Model<T>*>(self_.get());
    std::vector<T> out = std::move(model->items);
    self_.reset();
    return out;
  }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual const std::type_info& type() const = 0;
    virtual std::size_t size() const = 0;
  };
  template <typename T>
  struct Model final : Concept {
    explicit Model(std::vector<T> v) : items(std::move(v)) {}
    const std::type_info& type() const override { return typeid(T); }
    std::size_t size() const override { return items.size(); }
    std::vector<T> items;
  };

  std::unique_ptr<Concept> self_;
};

class ExchangeBoard {
 public:
  /// Round value meaning "caller does not track rounds" (direct board use).
  static constexpr std::uint64_t kAnyRound = ~std::uint64_t{0};

  explicit ExchangeBoard(rank_t num_ranks,
                         bool checked = checked_runtime_default())
      : num_ranks_(num_ranks),
        checked_(checked),
        slots_(static_cast<std::size_t>(num_ranks) * num_ranks),
        epochs_(checked ? slots_.size() : 0) {}

  rank_t num_ranks() const { return num_ranks_; }
  bool checked() const { return checked_; }

  /// Deposits `source`'s outgoing segments for `dest` — the zero-copy path:
  /// the vectors inside the segments move through the board untouched. Must
  /// be called between the barriers of an exchange round, once per
  /// destination at most; an empty segment list is a valid round payload
  /// (it still advances the slot epoch). `round` is the caller's 1-based
  /// exchange round (kAnyRound to skip the cross-rank consistency check).
  void post_segments(rank_t source, rank_t dest,
                     std::vector<ErasedBuffer> segments,
                     std::uint64_t round = kAnyRound) {
    if (checked_) check_post(source, dest, round);
    slots_[index(source, dest)] = std::move(segments);
  }

  /// Takes (moves out) the segments `source` sent to `dest`, leaving the
  /// slot empty for the next round.
  std::vector<ErasedBuffer> take_segments(rank_t source, rank_t dest,
                                          std::uint64_t round = kAnyRound) {
    if (checked_) check_take(source, dest, round);
    return std::exchange(slots_[index(source, dest)], {});
  }

 private:
  /// Per-slot protocol state; see the class comment for the state machine.
  struct SlotEpochs {
    std::uint64_t posted = 0;
    std::uint64_t taken = 0;
  };

  void check_post(rank_t source, rank_t dest, std::uint64_t round);
  void check_take(rank_t source, rank_t dest, std::uint64_t round);
  void check_ranks(const char* op, rank_t source, rank_t dest) const;

  std::size_t index(rank_t source, rank_t dest) const {
    return static_cast<std::size_t>(source) * num_ranks_ + dest;
  }

  rank_t num_ranks_;
  bool checked_;
  std::vector<std::vector<ErasedBuffer>> slots_;
  std::vector<SlotEpochs> epochs_;  ///< empty unless checked_
};

}  // namespace parsssp
