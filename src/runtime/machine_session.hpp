// A persistent variant of Machine: the execution host of Solver,
// QueryEngine and DynamicSolver.
//
// Machine::run spawns and joins R std::threads per job, which dominates
// the latency of small back-to-back solves. A MachineSession spawns the R
// rank threads once; they park on a job queue and execute submitted jobs
// in FIFO order, each job running collectively on every rank exactly as
// under Machine::run. The per-rank RankCtx (and with it the intra-rank
// ThreadPool and the checked-exchange round counter) lives for the whole
// session, so
//
//   * back-to-back jobs pay no thread create/join,
//   * Delta-dependent state built by one job (e.g. LocalEdgeViews) is
//     naturally reusable by later jobs, and
//   * the PR-1 protocol checks (exchange epochs, rank ownership, lane
//     handoff) extend across job boundaries: a rank whose collective calls
//     diverge between two jobs is caught just like one diverging inside a
//     job.
//
// Concurrency contract: submit()/cancel_pending() are thread-safe and may
// be called from any thread. Jobs never run concurrently with each other —
// the session executes one job at a time, in submission order. Traffic
// counters accumulate across jobs (the serving-relevant aggregate); call
// reset_traffic() between jobs when per-job numbers are needed, and read
// traffic() only while no job is in flight (synchronized by the job future).
//
// Error handling mirrors Machine::run: the first exception thrown by any
// rank of a job is rethrown from that job's future. The same caveat
// applies — jobs are internally bulk-synchronous, so a rank that throws
// while its peers are at a barrier deadlocks the job; library jobs throw
// only on programming errors, and tests that exercise propagation throw on
// every rank.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/machine.hpp"

namespace parsssp {

/// Thrown through the future of a job that was cancelled (cancel_pending)
/// or never started because the session was destroyed first.
class JobCancelled : public std::runtime_error {
 public:
  explicit JobCancelled(const std::string& what) : std::runtime_error(what) {}
};

class MachineSession {
 public:
  /// Spawns the rank threads immediately; they park until the first submit.
  explicit MachineSession(MachineConfig config);

  /// Cancels all queued-but-unstarted jobs (their futures receive
  /// JobCancelled), waits for the in-flight job to finish, joins.
  ~MachineSession();

  MachineSession(const MachineSession&) = delete;
  MachineSession& operator=(const MachineSession&) = delete;

  const MachineConfig& config() const { return config_; }
  rank_t num_ranks() const { return config_.num_ranks; }

  /// Enqueues `job` for collective execution on every rank. The returned
  /// future becomes ready when all ranks finished the job (value) or any
  /// rank threw (the first exception). Thread-safe.
  ///
  /// `keepalive` is an opaque resource pinned for the job's whole lifetime
  /// and released only after the job leaves the session (fulfilled or
  /// cancelled). The serving layer passes the GraphSnapshot its job reads
  /// through, so the data a rank may touch can never be reclaimed mid-job
  /// — whatever the submitting thread does with its own reference.
  std::future<void> submit(std::function<void(RankCtx&)> job,
                           std::shared_ptr<void> keepalive = nullptr);

  /// Convenience: submit + wait, rethrowing the job's error. The
  /// session-backed equivalent of Machine::run.
  void run(std::function<void(RankCtx&)> job) { submit(std::move(job)).get(); }

  /// Removes every queued-but-unstarted job; their futures receive
  /// JobCancelled. The in-flight job (if any) is not affected. Returns the
  /// number of jobs cancelled. Thread-safe.
  std::size_t cancel_pending();

  /// Jobs that ran to completion (successfully or with an error).
  std::size_t jobs_completed() const;

  /// Cumulative traffic of all completed jobs since construction or the
  /// last reset_traffic(). Only meaningful while no job is in flight.
  const TrafficStats& traffic() const { return traffic_; }
  /// Zeroes traffic() and pair_messages(). Call only while no job is in
  /// flight.
  void reset_traffic() {
    traffic_.reset();
    std::fill(pair_messages_.begin(), pair_messages_.end(), 0);
  }

  /// Per-(source, destination) message counts since construction or the
  /// last reset_traffic(), row-major num_ranks x num_ranks; empty unless
  /// MachineConfig::record_pair_traffic.
  const std::vector<std::uint64_t>& pair_messages() const {
    return pair_messages_;
  }

 private:
  /// One queued collective job. `finished` and `error` are guarded by the
  /// session mutex_ (not annotatable on a nested struct member).
  struct Job {
    std::function<void(RankCtx&)> fn;
    /// Pinned resource (e.g. a serving snapshot), released at Job death.
    std::shared_ptr<void> keepalive;
    std::promise<void> done;
    std::exception_ptr error;
    rank_t finished = 0;
  };

  void rank_main(rank_t r);
  /// Moves the queue head into the active slot and wakes the ranks.
  void publish_next_locked() MPS_REQUIRES(mutex_);
  /// Fulfils a finished job's promise (outside the lock).
  static void complete(std::unique_ptr<Job> job);

  MachineConfig config_;
  // Written by rank threads only inside jobs (each rank its own slot / row);
  // reads are synchronized by the job futures. See traffic().
  TrafficStats traffic_;
  std::vector<std::uint64_t> pair_messages_;
  ExchangeBoard board_;
  CollectiveContext collectives_;

  mutable Mutex mutex_;
  CondVar work_cv_;  ///< rank threads wait here for a new generation
  std::deque<std::unique_ptr<Job>> queue_ MPS_GUARDED_BY(mutex_);
  std::unique_ptr<Job> active_ MPS_GUARDED_BY(mutex_);
  std::uint64_t generation_ MPS_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ MPS_GUARDED_BY(mutex_) = false;
  std::size_t jobs_completed_ MPS_GUARDED_BY(mutex_) = 0;

  std::vector<std::thread> threads_;  ///< last member: joins before the rest
};

}  // namespace parsssp
