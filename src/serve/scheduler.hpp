// Request scheduler of the b2h-serve daemon: a bounded worker pool with
// single-flight coalescing and per-request deadlines.
//
// Three properties the multi-tenant tests key on:
//
//   * Coalescing — concurrent submissions with the same content key attach
//     to one computation: the work closure runs once and its result fans
//     out to every waiter (Outcome::coalesced marks the attachers, and the
//     stats count them, so tests can assert single-computation behavior).
//   * Deadlines — a waiter whose deadline expires gets a kDeadline outcome
//     immediately; the computation itself KEEPS RUNNING and completes into
//     the shared artifact cache, so a timed-out request can never poison
//     the cache or strand coalesced peers.
//   * Bounded admission — at most `max_queue` jobs may be queued beyond
//     the running ones; further novel submissions are rejected with
//     kOverloaded without blocking (attaching to in-flight work is always
//     admitted — it adds no load).
//
// The scheduler is generic: it moves JobResult payloads around and never
// looks inside them.  The server supplies closures that do toolchain work
// and must not throw; a throwing closure is downgraded to an `internal`
// JobResult rather than taking the daemon down.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace b2h::serve {

/// What one computation produced.  Shared verbatim by every coalesced
/// waiter, so it must be a pure function of the job key (the report JSON
/// is; delivery metadata lives outside, in the server's response
/// envelope).
struct JobResult {
  bool ok = true;
  std::string error_code;     ///< protocol error code when !ok
  std::string error_message;  ///< human-readable detail when !ok
  std::string report;         ///< deterministic report JSON when ok
};

class Scheduler {
 public:
  struct Options {
    unsigned workers = 2;        ///< concurrent heavy computations
    std::size_t max_queue = 64;  ///< queued (not yet running) job bound
  };

  enum class OutcomeCode {
    kDone,          ///< result is valid (ok or structured work error)
    kOverloaded,    ///< admission queue full; nothing was queued
    kDeadline,      ///< deadline expired while queued/running
    kShuttingDown,  ///< scheduler stopping; nothing was queued
  };

  struct Outcome {
    OutcomeCode code = OutcomeCode::kDone;
    std::shared_ptr<const JobResult> result;  ///< set when kDone
    bool coalesced = false;  ///< attached to an already-submitted job
  };

  struct Stats {
    std::size_t submitted = 0;  ///< Run() calls admitted (incl. coalesced)
    std::size_t executed = 0;   ///< work closures actually run
    std::size_t coalesced = 0;  ///< submissions served by an in-flight job
    std::size_t rejected_overload = 0;
    std::size_t deadline_expired = 0;
    std::size_t max_queue_depth = 0;  ///< high-water mark of the queue
  };

  explicit Scheduler(Options options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// How often the waiting thread invokes the Run() poll callback.
  static constexpr int kPollIntervalMs = 25;

  /// Submit (or attach to) the job named by `key` and wait for its result
  /// up to `deadline_ms` (< 0 = forever).  Blocking: call from connection
  /// threads, not from work closures.  A non-null `poll` is invoked from
  /// the waiting thread roughly every kPollIntervalMs while the job runs —
  /// the progress-streaming hook: the connection thread forwards board
  /// snapshots to its client between wakeups.  `poll` runs with the
  /// scheduler mutex RELEASED, so it may block on socket writes; it must
  /// not call back into the scheduler.
  [[nodiscard]] Outcome Run(const std::string& key,
                            std::function<JobResult()> work, int deadline_ms,
                            const std::function<void()>& poll = nullptr);

  /// Stop accepting work, fail queued-but-unstarted jobs with
  /// `shutting-down`, finish running ones, and join the workers.
  /// Idempotent.
  void Stop();

  [[nodiscard]] Stats stats() const;

 private:
  struct Job {
    std::string key;
    std::function<JobResult()> work;
    std::shared_ptr<const JobResult> result;
    bool done = false;
  };

  void WorkerLoop();

  const Options options_;
  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  ///< workers: queue non-empty / stop
  std::condition_variable done_cv_;   ///< waiters: some job finished
  std::deque<std::shared_ptr<Job>> queue_;
  std::unordered_map<std::string, std::shared_ptr<Job>> in_flight_;
  Stats stats_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace b2h::serve
