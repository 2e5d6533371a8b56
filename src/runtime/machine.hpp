// The simulated massively-parallel machine.
//
// Machine::run(job) executes `job` on R logical ranks, one std::thread per
// rank (our stand-in for a Blue Gene/Q partition). Each rank receives a
// RankCtx giving it:
//   * its identity (rank(), num_ranks()),
//   * bulk-synchronous point-to-point exchange() over the ExchangeBoard
//     (the "SPI" substitute),
//   * typed collectives (allreduce / broadcast / allgather / barrier),
//   * an intra-rank ThreadPool of worker lanes (the "64 threads per node"),
//   * per-rank traffic accounting.
//
// Algorithms written against RankCtx are bulk-synchronous programs in the
// exact shape of the paper's distributed Delta-stepping: they would port to
// MPI by replacing exchange() with MPI_Alltoallv and the collectives with
// their MPI counterparts.
//
// Ownership discipline: a RankCtx is owned by the rank thread that Machine
// spawned it on. Its traffic counters, exchange round counter, and pool
// dispatch are single-owner state — worker lanes must not touch them. In
// checked mode (MachineConfig::checked_exchange) that ownership is asserted
// at runtime, and exchange() stamps each post/take with the rank's round
// number so the ExchangeBoard can catch ranks whose collective calls
// diverged. See runtime/protocol_check.hpp.
//
// Engine scratch that should outlive one job (send pools, reduction
// tables, per-vertex arrays) lives in RankCtx::workspace<T>(): one object
// per type, owned by the rank thread and destroyed with the RankCtx — at
// the end of the run under Machine, at the end of the session under
// MachineSession, where back-to-back solves reuse it instead of
// re-allocating and re-faulting it.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <typeindex>
#include <typeinfo>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "obs/trace.hpp"
#include "runtime/collectives.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/protocol_check.hpp"
#include "runtime/send_buffer_pool.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/traffic_stats.hpp"

namespace parsssp {

struct MachineConfig {
  rank_t num_ranks = 4;
  unsigned lanes_per_rank = 1;
  /// Record the full (source rank, destination rank) message-count matrix
  /// of each run — the input to topology analyses (runtime/topology.hpp).
  bool record_pair_traffic = false;
  /// Runtime-check the exchange/lane/ownership protocols (Debug default).
  bool checked_exchange = checked_runtime_default();
};

class Machine;

/// Per-rank execution context handed to a job. Valid only for the duration
/// of the job invocation; not copyable. Owned by its rank thread: all
/// methods except num_ranks() must be called from that thread.
class RankCtx {
 public:
  rank_t rank() const { return rank_; }
  rank_t num_ranks() const { return board_.num_ranks(); }
  ThreadPool& pool() {
    check_owner("pool()");
    return pool_;
  }
  TrafficCounters& traffic() {
    check_owner("traffic()");
    return traffic_;
  }

  /// Observability: exchange spans are recorded into `lane` (null = off).
  /// Engines set this at the start of a traced job and clear it before
  /// returning — the lane must outlive the interval in between. Rank-owned
  /// state, like the traffic counters.
  void set_trace(TraceLane* lane) {
    check_owner("set_trace()");
    trace_ = lane;
  }

  /// The rank's workspace of type T: default-constructed on first use,
  /// then the same object on every later call until the RankCtx dies (see
  /// the file comment). Rank-owned state: worker lanes never call this and
  /// only touch the parts the rank thread hands them.
  template <typename T>
  T& workspace() {
    check_owner("workspace()");
    const std::type_index type(typeid(T));
    for (WorkspaceSlot& slot : workspaces_) {
      if (slot.type == type) return *static_cast<T*>(slot.object.get());
    }
    WorkspaceSlot slot{type,
                       {new T(), [](void* p) { delete static_cast<T*>(p); }}};
    workspaces_.push_back(std::move(slot));
    return *static_cast<T*>(workspaces_.back().object.get());
  }

  void barrier() {
    check_owner("barrier()");
    ++traffic_.barriers;
    collectives_.barrier();
  }

  template <typename T, typename Op>
  T allreduce(T value, Op op) {
    check_owner("allreduce()");
    count_control<T>();
    return collectives_.allreduce(rank_, value, op);
  }

  template <typename T>
  T broadcast(T value, rank_t root) {
    check_owner("broadcast()");
    count_control<T>();
    return collectives_.broadcast(rank_, value, root);
  }

  template <typename T>
  std::vector<T> allgather(T value) {
    check_owner("allgather()");
    count_control<T>();
    return collectives_.allgather(rank_, value);
  }

  /// Bulk-synchronous all-to-all: out[d] holds this rank's messages for rank
  /// d; the returned vector holds in[s], the messages rank s sent here.
  /// Each out[d] moves through the board as one segment, so the vector the
  /// receiver gets is the one the sender filled (no copy). Self-addressed
  /// messages are delivered without touching the board (they model
  /// intra-node work, not network traffic). Collective: every rank must
  /// call exchange() the same number of times — enforced in checked mode
  /// by stamping posts/takes with this rank's round counter.
  template <typename T>
  std::vector<std::vector<T>> exchange(std::vector<std::vector<T>> out,
                                       PhaseKind kind) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_owner("exchange()");
    ScopedSpan span(trace_, SpanCat::kExchange);
    traffic_.barriers += 2;  // the post/take fences below
    const rank_t r = rank_;
    const rank_t ranks = num_ranks();
    const std::uint64_t round = ++exchange_round_;
    out.resize(ranks);
    for (rank_t d = 0; d < ranks; ++d) {
      if (d == r) continue;
      traffic_.add(kind, out[d].size(), out[d].size() * sizeof(T));
      if (pair_messages_ != nullptr) {
        // Row r is written only by rank r: no synchronization needed.
        (*pair_messages_)[static_cast<std::size_t>(r) * ranks + d] +=
            out[d].size();
      }
      std::vector<ErasedBuffer> segment;
      segment.push_back(ErasedBuffer(std::move(out[d])));
      board_.post_segments(r, d, std::move(segment), round);
    }
    collectives_.barrier();
    std::vector<std::vector<T>> in(ranks);
    for (rank_t s = 0; s < ranks; ++s) {
      if (s == r) {
        in[s] = std::move(out[s]);
      } else {
        // An unchecked board yields no segment for a slot nobody posted.
        for (ErasedBuffer& seg : board_.take_segments(s, r, round)) {
          in[s] = seg.take_as<T>();
        }
      }
    }
    collectives_.barrier();
    return in;
  }

  /// Bulk-synchronous all-to-all over a SendBufferPool: each non-empty
  /// (lane, dest) shard moves through the board as its own segment, with
  /// no lane merge and no copy. Results land in
  /// `pool.incoming()` in canonical order (source rank ascending, self
  /// in place, lane ascending within a source); the previous round's
  /// incoming buffers are recycled onto the pool's free list. Collective:
  /// same round discipline as exchange(), and in checked mode every slot
  /// is stamped even when the segment list is empty.
  ///
  /// TrafficCounters see exactly what crosses the board — message counts
  /// and bytes *after* any sender-side reduction the caller performed.
  template <typename T>
  void exchange_pooled(SendBufferPool<T>& pool, PhaseKind kind) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_owner("exchange_pooled()");
    ScopedSpan span(trace_, SpanCat::kExchange);
    traffic_.barriers += 2;  // the post/take fences below
    const rank_t r = rank_;
    const rank_t ranks = num_ranks();
    const unsigned lanes = pool.lanes();
    const std::uint64_t round = ++exchange_round_;
    pool.clear_incoming();
    for (rank_t d = 0; d < ranks; ++d) {
      if (d == r) continue;
      std::vector<ErasedBuffer> segments;
      std::uint64_t msgs = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        std::vector<T>& shard = pool.shard(l, d);
        if (shard.empty()) continue;
        msgs += shard.size();
        segments.push_back(ErasedBuffer(std::move(shard)));
      }
      traffic_.add(kind, msgs, msgs * sizeof(T));
      if (pair_messages_ != nullptr) {
        (*pair_messages_)[static_cast<std::size_t>(r) * ranks + d] += msgs;
      }
      board_.post_segments(r, d, std::move(segments), round);
    }
    collectives_.barrier();
    for (rank_t s = 0; s < ranks; ++s) {
      if (s == r) {
        // Self-delivery stays off the board, but in canonical position.
        for (unsigned l = 0; l < lanes; ++l) {
          std::vector<T>& shard = pool.shard(l, r);
          if (shard.empty()) continue;
          pool.push_incoming(s, std::move(shard));
        }
      } else {
        for (ErasedBuffer& seg : board_.take_segments(s, r, round)) {
          pool.push_incoming(s, seg.take_as<T>());
        }
      }
    }
    collectives_.barrier();
  }

 private:
  friend class Machine;
  friend class MachineSession;
  RankCtx(rank_t rank, ExchangeBoard& board, CollectiveContext& collectives,
          TrafficCounters& traffic, unsigned lanes, bool checked,
          std::vector<std::uint64_t>* pair_messages)
      : rank_(rank),
        board_(board),
        collectives_(collectives),
        traffic_(traffic),
        pair_messages_(pair_messages),
        checked_(checked),
        owner_(std::this_thread::get_id()),
        pool_(lanes, checked) {}

  RankCtx(const RankCtx&) = delete;
  RankCtx& operator=(const RankCtx&) = delete;

  /// Checked mode: asserts the caller is the owning rank thread (catches,
  /// e.g., a worker lane touching traffic counters or issuing collectives).
  void check_owner(const char* what) const {
    if (checked_ && std::this_thread::get_id() != owner_) {
      protocol_violation(std::string("RankCtx::") + what +
                         " called from a thread that does not own rank " +
                         std::to_string(rank_) +
                         " (worker lanes must not touch rank-owned state)");
    }
  }

  template <typename T>
  void count_control() {
    // Every collective is one global synchronization point, whatever its
    // payload — the latency term the async engine eliminates.
    ++traffic_.allreduces;
    traffic_.add(PhaseKind::kControl, num_ranks() - 1,
                 (num_ranks() - 1) * sizeof(T));
  }

  struct WorkspaceSlot {
    std::type_index type;
    std::unique_ptr<void, void (*)(void*)> object;
  };

  rank_t rank_;
  ExchangeBoard& board_;
  CollectiveContext& collectives_;
  // Owned by the rank thread; see the class comment. Never touched by
  // worker lanes (checked at runtime via check_owner()).
  TrafficCounters& traffic_;
  std::vector<std::uint64_t>* pair_messages_;
  bool checked_;
  std::thread::id owner_;
  std::uint64_t exchange_round_ = 0;
  TraceLane* trace_ = nullptr;  ///< rank-owned; see set_trace()
  std::vector<WorkspaceSlot> workspaces_;  ///< rank-owned; see workspace()
  ThreadPool pool_;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);

  const MachineConfig& config() const { return config_; }
  rank_t num_ranks() const { return config_.num_ranks; }

  /// Runs `job` on every rank and waits for completion. Traffic counters are
  /// reset at the start of each run. The first exception thrown by any rank
  /// is rethrown here after all ranks finished or aborted at a barrier.
  void run(const std::function<void(RankCtx&)>& job);

  /// Traffic of the most recent run.
  const TrafficStats& traffic() const { return traffic_; }

  /// Per-(source, destination) message counts of the most recent run,
  /// row-major num_ranks x num_ranks. Empty unless
  /// MachineConfig::record_pair_traffic.
  const std::vector<std::uint64_t>& pair_messages() const {
    return pair_messages_;
  }

 private:
  /// First-error capture shared by the rank threads of one run.
  struct ErrorSlot {
    Mutex mutex;
    std::exception_ptr first MPS_GUARDED_BY(mutex);

    void capture() {
      MutexLock lock(mutex);
      if (!first) first = std::current_exception();
    }
    std::exception_ptr get() {
      MutexLock lock(mutex);
      return first;
    }
  };

  MachineConfig config_;
  // Written by rank threads during run() (each rank its own slot / matrix
  // row), read after join: synchronized by thread creation and join.
  TrafficStats traffic_;
  std::vector<std::uint64_t> pair_messages_;
};

}  // namespace parsssp
