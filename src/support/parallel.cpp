#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>

namespace soap::support {

std::size_t resolve_threads(std::size_t threads) {
  return threads == 0 ? ThreadPool::hardware_threads() : threads;
}

namespace {

// State shared between the calling thread and its pool helpers.  Owned by
// shared_ptr so helpers that wake up after parallel_for returned (their work
// already stolen by the caller) still have valid state to no-op against.
// The fn reference is only dereferenced while holding a claimed index, and
// indices can no longer be claimed once parallel_for returns (either the
// cursor is exhausted or `cancelled` is set), so the reference never
// outlives its referent observably.
struct SharedWork {
  SharedWork(std::size_t n_in, const std::function<void(std::size_t)>& fn_in,
             CancellationToken cancel_in)
      : n(n_in), fn(fn_in), cancel(std::move(cancel_in)) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;
  const CancellationToken cancel;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};

  std::mutex mu;
  std::condition_variable cv;
  int active = 0;  // helpers currently inside drain(); guarded by mu
  std::exception_ptr error;           // guarded by mu
  std::size_t error_index = std::numeric_limits<std::size_t>::max();

  // Claims and runs indices until the cursor is exhausted or a failure
  // cancels the loop.  Runs on the caller and on every started helper.
  void drain() {
    for (;;) {
      if (cancelled.load()) return;
      if (cancel.cancelled()) {
        // External cancellation: stop claiming.  The caller raises
        // kCancelled after the helpers retire (a recorded fn failure still
        // outranks it).
        cancelled.store(true);
        return;
      }
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
        }
        cancelled.store(true);
        return;
      }
    }
  }
};

void helper_main(const std::shared_ptr<SharedWork>& work) {
  {
    std::lock_guard<std::mutex> lock(work->mu);
    ++work->active;
  }
  work->drain();
  {
    std::lock_guard<std::mutex> lock(work->mu);
    --work->active;
  }
  work->cv.notify_all();
}

}  // namespace

void parallel_for(std::size_t n, const ParallelOptions& options,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // The caller is one executor; there is never a point in more helpers than
  // remaining indices, nor than the executor can actually run concurrently
  // (a SerialExecutor therefore yields zero helpers and the caller runs
  // every index itself).
  const std::size_t budget = std::min(resolve_threads(options.threads), n);
  const std::size_t helpers =
      budget <= 1 ? 0 : std::min(budget - 1, options.executor.concurrency());
  if (helpers == 0) {
    // Serial bypass: no executor, no shared state, native exception flow.
    for (std::size_t i = 0; i < n; ++i) {
      if (options.cancel.cancelled()) {
        throw AnalysisError(StatusCode::kCancelled,
                            "parallel_for cancelled");
      }
      fn(i);
    }
    return;
  }
  auto work = std::make_shared<SharedWork>(n, fn, options.cancel);
  for (std::size_t h = 0; h < helpers; ++h) {
    options.executor.submit([work] { helper_main(work); });
  }

  work->drain();

  std::unique_lock<std::mutex> lock(work->mu);
  work->cv.wait(lock, [&] { return work->active == 0; });
  if (work->error) {
    // Move the error out so the exception object's last reference is
    // released on this thread, not by whichever late helper happens to drop
    // the final SharedWork ref.
    std::exception_ptr error = std::move(work->error);
    work->error = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
  lock.unlock();
  if (options.cancel.cancelled()) {
    throw AnalysisError(StatusCode::kCancelled, "parallel_for cancelled");
  }
}

}  // namespace soap::support
