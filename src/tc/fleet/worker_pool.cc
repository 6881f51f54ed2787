#include "tc/fleet/worker_pool.h"

#include <exception>
#include <string>
#include <utility>

namespace tc::fleet {

WorkerPool::WorkerPool(const Options& options)
    : options_(options),
      queue_depth_(
          obs::MetricRegistry::Global().GetGauge("worker_pool.queue_depth")),
      task_wait_us_(obs::MetricRegistry::Global().GetHistogram(
          "worker_pool.task_wait_us")),
      task_run_us_(obs::MetricRegistry::Global().GetHistogram(
          "worker_pool.task_run_us")),
      tasks_failed_metric_(obs::MetricRegistry::Global().GetCounter(
          "worker_pool.tasks_failed")) {
  if (options_.threads == 0) options_.threads = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  workers_.reserve(options_.threads);
  for (size_t i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

size_t WorkerPool::QueuedLocked() const {
  size_t total = 0;
  for (const auto& band : bands_) total += band.size();
  return total;
}

bool WorkerPool::Submit(std::function<void()> task,
                        Criticality criticality) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_available_.wait(lock, [this] {
      return shutdown_ || QueuedLocked() < options_.queue_capacity;
    });
    if (shutdown_) return false;
    bands_[CriticalityBand(criticality)].push_back(
        {std::move(task), obs::detail::SteadyNowUs(), obs::CurrentContext()});
    queue_depth_.Set(static_cast<int64_t>(QueuedLocked()));
  }
  work_available_.notify_one();
  return true;
}

void WorkerPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return QueuedLocked() == 0 && active_ == 0; });
}

void WorkerPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  space_available_.notify_all();
  // Serializes concurrent Shutdown callers around the joins.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

Status WorkerPool::first_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void WorkerPool::RecordTaskFailure(const char* what) {
  tasks_failed_.fetch_add(1, std::memory_order_relaxed);
  tasks_failed_metric_.Increment();
  std::lock_guard<std::mutex> lock(mu_);
  if (first_error_.ok()) {
    first_error_ =
        Status::Internal(std::string("worker task threw: ") + what);
  }
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || QueuedLocked() > 0; });
      if (QueuedLocked() == 0) return;  // Shutdown with a drained queue.
      // Strict band priority: critical first, background last — under
      // backlog, background work waits while foreground traffic keeps
      // moving.
      size_t band = 0;
      while (bands_[band].empty()) ++band;
      task = std::move(bands_[band].front());
      bands_[band].pop_front();
      queue_depth_.Set(static_cast<int64_t>(QueuedLocked()));
      ++active_;
    }
    space_available_.notify_one();
    task_wait_us_.Record(obs::detail::SteadyNowUs() - task.enqueue_us);
    {
      obs::ScopedTimer run_timer(&task_run_us_);
      // Restore the submitter's trace context across the thread hop; the
      // child-only span then parents everything the task does under the
      // submitting operation's span (inert when the submitter was
      // un-traced).
      obs::ScopedTraceContext ctx(task.ctx);
      obs::TraceSpan span(obs::kChildOnly, "fleet", "task");
      // The task boundary is an exception firewall: a throwing task must
      // not unwind out of WorkerLoop (std::terminate) nor poison the pool.
      try {
        task.fn();
      } catch (const std::exception& e) {
        RecordTaskFailure(e.what());
      } catch (...) {
        RecordTaskFailure("non-standard exception");
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (QueuedLocked() == 0 && active_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace tc::fleet
