#include "runtime/mailbox.hpp"

#include <string>

namespace parsssp {
namespace {

std::string slot_name(rank_t source, rank_t dest) {
  return "slot " + std::to_string(source) + " -> " + std::to_string(dest);
}

}  // namespace

void ExchangeBoard::check_ranks(const char* op, rank_t source,
                                rank_t dest) const {
  if (source >= num_ranks_ || dest >= num_ranks_) {
    protocol_violation(std::string("exchange ") + op + " out of range: " +
                       slot_name(source, dest) + " on a board of " +
                       std::to_string(num_ranks_) + " ranks");
  }
}

void ExchangeBoard::check_post(rank_t source, rank_t dest,
                               std::uint64_t round) {
  check_ranks("post", source, dest);
  SlotEpochs& e = epochs_[index(source, dest)];
  if (e.posted != e.taken) {
    protocol_violation("double post on " + slot_name(source, dest) +
                       ": payload of round " + std::to_string(e.posted) +
                       " was never taken (cross-round leakage)");
  }
  ++e.posted;
  if (round != kAnyRound && e.posted != round) {
    protocol_violation("cross-round post on " + slot_name(source, dest) +
                       ": rank " + std::to_string(source) +
                       " is in exchange round " + std::to_string(round) +
                       " but the slot is at epoch " + std::to_string(e.posted) +
                       " (a rank skipped or repeated an exchange)");
  }
}

void ExchangeBoard::check_take(rank_t source, rank_t dest,
                               std::uint64_t round) {
  check_ranks("take", source, dest);
  SlotEpochs& e = epochs_[index(source, dest)];
  if (e.posted == e.taken) {
    protocol_violation("take of empty " + slot_name(source, dest) +
                       " at epoch " + std::to_string(e.taken) +
                       ": take before the exchange barrier, double take, or "
                       "a missing post");
  }
  ++e.taken;
  if (round != kAnyRound && e.taken != round) {
    protocol_violation("stale-epoch take on " + slot_name(source, dest) +
                       ": rank " + std::to_string(dest) +
                       " is in exchange round " + std::to_string(round) +
                       " but took the payload of epoch " +
                       std::to_string(e.taken));
  }
}

}  // namespace parsssp
