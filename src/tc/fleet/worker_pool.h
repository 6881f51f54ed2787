#ifndef TC_FLEET_WORKER_POOL_H_
#define TC_FLEET_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "tc/common/overload.h"
#include "tc/common/status.h"
#include "tc/obs/metrics.h"
#include "tc/obs/trace.h"

namespace tc::fleet {

/// A fixed-size worker pool with a bounded work queue — the execution
/// substrate for running many simulated cells against one shared cloud.
/// The bounded queue applies backpressure: Submit blocks once
/// `queue_capacity` tasks are waiting, so a fleet driver can enqueue a
/// million cell tasks without holding them all in memory.
///
/// The queue is split into criticality bands (critical > normal >
/// background) served strictly in that order, so under backlog background
/// work waits while foreground traffic keeps moving. The pool runs every
/// task it accepts: it refuses none for its age. A request's deadline is
/// the provider gate's to enforce (cloud::OverloadGate), once, just before
/// the store.
///
/// Shutdown is graceful: already-queued tasks finish, then workers join.
///
/// Fault containment: a task that throws never escapes its worker thread
/// (which would std::terminate the process). The exception is swallowed at
/// the task boundary, counted in `worker_pool.tasks_failed`, and latched
/// into `first_error()` so the pool owner can propagate a Status.
///
/// Observability (tc::obs global registry):
///   worker_pool.queue_depth    gauge      tasks waiting right now
///   worker_pool.task_wait_us   histogram  Submit -> task start (queue delay)
///   worker_pool.task_run_us    histogram  task execution time
///   worker_pool.tasks_failed   counter    tasks that threw
class WorkerPool {
 public:
  struct Options {
    size_t threads = 4;
    size_t queue_capacity = 256;
  };

  explicit WorkerPool(const Options& options);
  /// Graceful: equivalent to Shutdown().
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `task` into `criticality`'s band; blocks while the queue is
  /// at capacity. Returns false (and drops the task) if the pool is
  /// shutting down — callers must check and account for the dropped work.
  [[nodiscard]] bool Submit(std::function<void()> task,
                            Criticality criticality = Criticality::kNormal);

  /// Blocks until the queue is empty and every worker is idle. Tasks
  /// submitted concurrently with Wait may or may not be covered — the
  /// intended pattern is: submit everything, then Wait.
  void Wait();

  /// Drains the queue, runs everything already submitted, joins workers.
  /// Idempotent; Submit after Shutdown returns false.
  void Shutdown();

  size_t thread_count() const { return workers_.size(); }

  /// Number of tasks that threw (over the pool's lifetime).
  uint64_t tasks_failed() const {
    return tasks_failed_.load(std::memory_order_relaxed);
  }

  /// First task failure, latched: OK while no task has thrown, then an
  /// Internal status carrying the first exception's message forever after.
  Status first_error() const;

 private:
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueue_us = 0;  // Submit time, for the wait-time histogram.
    // Submitter's trace context, restored in the worker so spans opened by
    // the task parent under the submitting operation's span (the
    // cross-thread leg of causal trace propagation).
    obs::TraceContext ctx;
  };

  void WorkerLoop();
  void RecordTaskFailure(const char* what);
  size_t QueuedLocked() const;

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable work_available_;   // queue non-empty or shutdown.
  std::condition_variable space_available_;  // queue below capacity.
  std::condition_variable idle_;             // queue empty && none active.
  std::deque<QueuedTask> bands_[kCriticalityBands];  // guarded by mu_.
  size_t active_ = 0;                        // tasks currently running.
  bool shutdown_ = false;
  Status first_error_;                       // guarded by mu_.
  std::atomic<uint64_t> tasks_failed_{0};
  std::mutex join_mu_;
  std::vector<std::thread> workers_;

  // Resolved once; hot path touches only the relaxed atomics inside.
  obs::Gauge& queue_depth_;
  obs::Histogram& task_wait_us_;
  obs::Histogram& task_run_us_;
  obs::Counter& tasks_failed_metric_;
};

}  // namespace tc::fleet

#endif  // TC_FLEET_WORKER_POOL_H_
