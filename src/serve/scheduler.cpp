#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/obs.hpp"
#include "serve/protocol.hpp"

namespace b2h::serve {

namespace {

/// Registry-backed queue gauges, resolved once (instrument lookup takes a
/// mutex; these are touched on every submit/execute).  serve.queue_depth is
/// the live queued-not-running count, serve.in_flight the closures
/// currently executing on workers.
struct QueueMetrics {
  obs::Gauge& queue_depth;
  obs::Gauge& in_flight;

  static QueueMetrics& Get() {
    static QueueMetrics& metrics = *new QueueMetrics{
        obs::Registry::Global().gauge("serve.queue_depth"),
        obs::Registry::Global().gauge("serve.in_flight")};
    return metrics;
  }
};

}  // namespace

Scheduler::Scheduler(Options options) : options_(options) {
  const unsigned workers = std::max(1u, options_.workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Scheduler::~Scheduler() { Stop(); }

Scheduler::Outcome Scheduler::Run(const std::string& key,
                                  std::function<JobResult()> work,
                                  int deadline_ms,
                                  const std::function<void()>& poll) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) return {OutcomeCode::kShuttingDown, nullptr, false};

  std::shared_ptr<Job> job;
  bool coalesced = false;
  const auto it = in_flight_.find(key);
  if (it != in_flight_.end()) {
    // Single-flight: identical work is already queued or running — attach.
    job = it->second;
    coalesced = true;
    ++stats_.coalesced;
  } else {
    if (queue_.size() >= options_.max_queue) {
      ++stats_.rejected_overload;
      return {OutcomeCode::kOverloaded, nullptr, false};
    }
    job = std::make_shared<Job>();
    job->key = key;
    job->work = std::move(work);
    in_flight_.emplace(key, job);
    queue_.push_back(job);
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    QueueMetrics::Get().queue_depth.Set(
        static_cast<std::int64_t>(queue_.size()));
    queue_cv_.notify_one();
  }
  ++stats_.submitted;

  // Wake at the deadline and, when polling, every kPollIntervalMs to run
  // `poll` with the mutex released (it may block on a socket write).
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      deadline_ms < 0 ? Clock::time_point::max()
                      : Clock::now() + std::chrono::milliseconds(deadline_ms);
  const auto finished = [&job] { return job->done; };
  while (true) {
    const Clock::time_point wake =
        poll ? std::min(deadline, Clock::now() + std::chrono::milliseconds(
                                                     kPollIntervalMs))
             : deadline;
    if (done_cv_.wait_until(lock, wake, finished)) break;
    if (Clock::now() >= deadline) {
      // The waiter gives up; the job object stays queued/running and will
      // complete into the caches for the next identical request.
      ++stats_.deadline_expired;
      return {OutcomeCode::kDeadline, nullptr, coalesced};
    }
    // Only a polling wait wakes before its deadline.
    lock.unlock();
    poll();
    lock.lock();
  }
  return {OutcomeCode::kDone, job->result, coalesced};
}

void Scheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;  // Stop() already failed everything queued
    const std::shared_ptr<Job> job = queue_.front();
    queue_.pop_front();
    QueueMetrics& metrics = QueueMetrics::Get();
    metrics.queue_depth.Set(static_cast<std::int64_t>(queue_.size()));
    metrics.in_flight.Add(1);
    lock.unlock();

    JobResult result;
    try {
      obs::ScopedSpan span("serve.execute", "serve");
      span.Arg("key", job->key);
      result = job->work();
    } catch (const std::exception& e) {
      result = {false, kErrInternal,
                std::string("work closure threw: ") + e.what(), ""};
    } catch (...) {
      result = {false, kErrInternal, "work closure threw", ""};
    }
    metrics.in_flight.Add(-1);

    lock.lock();
    job->result = std::make_shared<const JobResult>(std::move(result));
    job->done = true;
    in_flight_.erase(job->key);
    ++stats_.executed;
    done_cv_.notify_all();
  }
}

void Scheduler::Stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // Second Stop(): workers already told to exit; fall through to join.
    } else {
      stopping_ = true;
      // Fail everything admitted but not yet started; running jobs finish
      // normally (their waiters get real results even during shutdown).
      for (const std::shared_ptr<Job>& job : queue_) {
        job->result = std::make_shared<const JobResult>(JobResult{
            false, kErrShuttingDown, "server is shutting down", ""});
        job->done = true;
        in_flight_.erase(job->key);
      }
      queue_.clear();
      QueueMetrics::Get().queue_depth.Set(0);
    }
    queue_cv_.notify_all();
    done_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

Scheduler::Stats Scheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace b2h::serve
