// A small std::thread worker pool for fanning independent work items.
//
// The exhaustive autotuner uses it to compute dedup keys and to price
// candidate batches concurrently.  Work items must be
// independent; determinism is preserved by keeping all result aggregation
// in the caller, in item order, after run() returns.
//
// All shared state is guarded by the annotated sync layer
// (src/support/sync.h): a clang -Wthread-safety build proves the locking
// contracts, and lockdep validates the pool.mu -> trace.state acquisition
// order at runtime.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/support/sync.h"

namespace incflat {

/// Thrown by WorkerPool::run when more than one task failed: the message
/// aggregates every captured exception (a lone failure is rethrown as its
/// original type instead, preserving catch sites).
class WorkerPoolError : public std::runtime_error {
 public:
  WorkerPoolError(const std::string& msg, size_t failures)
      : std::runtime_error(msg), failures_(failures) {}
  size_t failures() const { return failures_; }

 private:
  size_t failures_;
};

class WorkerPool {
 public:
  /// `workers` <= 0 picks min(hardware_concurrency, 8); 1 runs inline.
  explicit WorkerPool(int workers = 0);

  /// The pool's worker-count rule, exposed for reuse (serve::JobScheduler)
  /// and regression testing: a positive request wins verbatim; otherwise
  /// min(hardware, 8) — where `hardware` is hardware_concurrency(), which
  /// the standard allows to return 0 ("not computable") and which is
  /// therefore clamped to >= 1 *before* the min pick, so the zero-CPU case
  /// degrades to inline execution instead of a nonsense width.
  static int pick_width(int requested, unsigned hardware);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run fn(0) .. fn(n-1) across the pool; the calling thread participates.
  /// Blocks until every started task finished.  Once any task throws, no
  /// further items are dispatched (in-flight ones still complete); a single
  /// captured exception is rethrown as-is, several are aggregated into one
  /// WorkerPoolError listing them all.  Not reentrant: calling run() from
  /// inside a task (or concurrently from another thread) fails loudly with
  /// std::logic_error instead of deadlocking.
  void run(int n, const std::function<void(int)>& fn) EXCLUDES(mu_);

  /// Total width including the calling thread.
  int width() const { return static_cast<int>(threads_.size()) + 1; }

 private:
  void worker_loop(int worker) EXCLUDES(mu_);
  /// Execute queued items until the batch is exhausted or failed; releases
  /// mu_ around each item and re-acquires it for the shared bookkeeping.
  void drain(int worker) REQUIRES(mu_);

  sync::Mutex mu_{"pool.mu"};
  sync::CondVar cv_start_, cv_done_;
  std::vector<std::thread> threads_;  // written in ctor, joined in dtor
  const std::function<void(int)>* fn_ GUARDED_BY(mu_) = nullptr;
  int n_ GUARDED_BY(mu_) = 0;
  int next_ GUARDED_BY(mu_) = 0;
  int active_ GUARDED_BY(mu_) = 0;
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  // A run() batch is in flight (reentrancy guard).
  bool running_ GUARDED_BY(mu_) = false;
  std::vector<std::exception_ptr> errs_ GUARDED_BY(mu_);
};

}  // namespace incflat
