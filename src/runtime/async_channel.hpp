// Message-driven rank-to-rank transport for the asynchronous data path
// (docs/ASYNC.md) — the barrier-free sibling of the ExchangeBoard.
//
// The bulk-synchronous board moves one all-to-all per collective round and
// ends every round with two barriers. AsyncChannel moves batches the
// moment a sender flushes them: each destination rank owns an inbox (a
// mutex-guarded vector of batches plus a parked-token slot and a condition
// variable), senders push and notify, receivers swap the whole inbox out
// under one short lock and apply at leisure. There is no round structure,
// no collective discipline, and no global synchronization anywhere in the
// data plane — termination is the quiescence detector's job
// (runtime/quiescence.hpp), whose token rides this same channel as a
// control message.
//
// Buffer discipline: batches are std::vector<T> moved in whole — the
// sender moves SendBufferPool shards straight into post(), and the
// receiver retires drained batches back into its own pool, so vector
// capacity keeps circulating exactly as it does across bulk-synchronous
// phases (the PR-3 recycling story, minus the barriers).
//
// Lock-order contract (seeded as an A1 fixture in scripts/analysis/
// fixtures/lock_order/token_ring.*): every channel method takes exactly
// one inbox mutex and calls nothing that locks while holding it. In
// particular a receiver must never forward the token — which locks the
// *next* rank's inbox — from inside its own drain; drain() therefore swaps
// and returns, and token forwarding happens from the engine loop with no
// lock held.
//
// Thread-safety: post/post_token/announce_done may be called by any rank
// thread for any destination; drain/take_token/wait are receiver-side and
// called by the owning rank thread only (same single-owner discipline as
// RankCtx, but not runtime-checked — the inbox mutex makes violations
// merely slow, not racy).
#pragma once

#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "core/types.hpp"
#include "runtime/quiescence.hpp"

namespace parsssp {

template <typename T>
class AsyncChannel {
 public:
  /// One received batch, tagged with its sender.
  struct Batch {
    rank_t source = 0;
    std::vector<T> msgs;
  };

  explicit AsyncChannel(rank_t num_ranks) : inboxes_(num_ranks) {}

  rank_t num_ranks() const { return static_cast<rank_t>(inboxes_.size()); }

  /// Delivers a batch to `dest`'s inbox and wakes it. Empty batches are
  /// dropped (they carry no information and would skew the quiescence
  /// message balance for nothing). The caller counts the send with its
  /// QuiescenceRank *before* posting: the receiver may drain and count
  /// the receive the instant the lock drops.
  void post(rank_t source, rank_t dest, std::vector<T> msgs) {
    if (msgs.empty()) return;
    Inbox& in = inboxes_[dest].value;
    {
      MutexLock lock(in.mutex);
      in.data.push_back(Batch{source, std::move(msgs)});
    }
    in.cv.notify_one();
  }

  /// Parks the quiescence token at `dest`. At most one token circulates
  /// per ring, so the slot never queues more than one.
  void post_token(rank_t dest, const QuiescenceToken& token) {
    Inbox& in = inboxes_[dest].value;
    {
      MutexLock lock(in.mutex);
      in.token = token;
      in.has_token = true;
    }
    in.cv.notify_one();
  }

  /// Broadcasts termination: every current and future wait() returns
  /// immediately and done() reads true on every rank.
  void announce_done() {
    for (auto& slot : inboxes_) {
      Inbox& in = slot.value;
      {
        MutexLock lock(in.mutex);
        in.done = true;
      }
      in.cv.notify_all();
    }
  }

  /// Swaps the inbox's pending batches into `out` (appending, preserving
  /// arrival order) and returns the total message count taken. One short
  /// critical section; the apply loop runs lock-free afterwards.
  std::size_t drain(rank_t rank, std::vector<Batch>& out) {
    Inbox& in = inboxes_[rank].value;
    scratch_of(rank).clear();
    {
      MutexLock lock(in.mutex);
      std::swap(in.data, scratch_of(rank));
    }
    std::size_t msgs = 0;
    for (Batch& b : scratch_of(rank)) {
      msgs += b.msgs.size();
      out.push_back(std::move(b));
    }
    return msgs;
  }

  /// Takes the parked token, if any.
  bool take_token(rank_t rank, QuiescenceToken& out) {
    Inbox& in = inboxes_[rank].value;
    MutexLock lock(in.mutex);
    if (!in.has_token) return false;
    out = in.token;
    in.has_token = false;
    return true;
  }

  bool done(rank_t rank) {
    Inbox& in = inboxes_[rank].value;
    MutexLock lock(in.mutex);
    return in.done;
  }

  /// Parks the rank until a batch, token or the done flag arrives, or
  /// `timeout` elapses. Returns true if anything is pending (callers
  /// re-check via drain/take_token/done either way — wakeups may be
  /// spurious and arrivals may race the return).
  bool wait(rank_t rank, std::chrono::nanoseconds timeout) {
    Inbox& in = inboxes_[rank].value;
    MutexLock lock(in.mutex);
    if (!in.data.empty() || in.has_token || in.done) return true;
    in.cv.wait_for(in.mutex, timeout);
    return !in.data.empty() || in.has_token || in.done;
  }

  /// Pending payload messages across all inboxes (tests only; racy unless
  /// the ranks are quiescent).
  std::size_t pending_messages() {
    std::size_t n = 0;
    for (auto& slot : inboxes_) {
      Inbox& in = slot.value;
      MutexLock lock(in.mutex);
      for (const Batch& b : in.data) n += b.msgs.size();
    }
    return n;
  }

 private:
  struct Inbox {
    Mutex mutex;
    CondVar cv;
    std::vector<Batch> data MPS_GUARDED_BY(mutex);
    QuiescenceToken token MPS_GUARDED_BY(mutex);
    bool has_token MPS_GUARDED_BY(mutex) = false;
    bool done MPS_GUARDED_BY(mutex) = false;
    /// Receiver-side swap target, owned by the inbox's rank thread; lives
    /// here so drain() reuses its capacity across calls.
    std::vector<Batch> scratch;
  };

  std::vector<Batch>& scratch_of(rank_t rank) {
    return inboxes_[rank].value.scratch;
  }

  /// Cache-line padded: inboxes of different ranks are hot from different
  /// threads.
  std::vector<CacheAligned<Inbox>> inboxes_;
};

}  // namespace parsssp
