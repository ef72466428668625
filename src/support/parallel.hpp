// Structured data-parallel loops over the shared ThreadPool.
//
// `parallel_for(n, opts, fn)` runs fn(0..n-1) with up to opts.threads
// executors (the calling thread plus helpers submitted to the pool), claiming
// one index at a time from an atomic cursor.  It is the one parallel engine
// of the analysis: the per-subgraph χ fits of the SDG analysis, the corpus
// and attainment sweeps, and the sharded pebble-game validation all run on
// it.
//
// Design points, in the order they matter to callers:
//
// * Determinism.  The scheduler decides only *who* runs an index, never what
//   the index computes or where its result lands.  `parallel_map` collects
//   results into per-index slots, so for a pure fn the returned vector is
//   identical — bit for bit — for every thread count, pool size, and
//   interleaving.
//
// * Serial fallback.  threads <= 1 (the default), n <= 1, or an executor
//   with concurrency() == 0 runs the loop inline on the calling thread
//   without touching the pool: no allocation, no synchronization,
//   exceptions propagate natively.  `SdgOptions::threads = 1` therefore
//   costs nothing over the pre-parallel code.
//
// * Progress never depends on the executor; nested use never deadlocks.
//   The calling thread participates in the loop and only ever waits for
//   helpers that are *actively executing* fn — never for tasks still sitting
//   in the pool queue.  A parallel_for issued from inside a pool task, on a
//   starved pool, or through an executor that drops every helper therefore
//   completes: the caller drains every index itself, and the queued helpers
//   later wake up to an empty cursor and return.  (Helpers keep the shared state alive via
//   shared_ptr, so a late no-op helper is harmless.)
//
// * Exceptions.  The first failure cancels further index claims; among the
//   failures that did run, the one with the smallest index wins and is
//   rethrown on the calling thread after all active helpers have retired.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "support/cancel.hpp"
#include "support/executor.hpp"
#include "support/thread_pool.hpp"

namespace soap::support {

struct ParallelOptions {
  /// Executor budget for the loop, counting the calling thread: 1 = serial
  /// inline (default), 0 = hardware_threads(), N = up to N.
  std::size_t threads = 1;
  /// Where helper tasks run; default = ThreadPool::global().  Helper
  /// fan-out is additionally capped by executor.concurrency(), so injecting
  /// ExecutorRef::serial() forces the whole loop onto the calling thread
  /// regardless of `threads`.
  ExecutorRef executor;
  /// External cooperative cancellation, polled between indices.  A
  /// tripped token stops further claims and parallel_for raises
  /// AnalysisError{kCancelled} — unless an earlier fn failure outranks it
  /// (lowest index first, same rule as exceptions).  Default: never
  /// cancelled, one null-pointer test per index.
  CancellationToken cancel;
};

/// 0 -> hardware_threads(), anything else unchanged.
std::size_t resolve_threads(std::size_t threads);

/// Runs fn(i) for every i in [0, n) under `options`.
void parallel_for(std::size_t n, const ParallelOptions& options,
                  const std::function<void(std::size_t)>& fn);

/// parallel_for with deterministic index-slotted result collection: slot i
/// holds fn(i).  R needs no default constructor (slots are engaged in
/// place); a pure fn yields a bit-identical vector for every thread count.
template <class R, class Fn>
std::vector<R> parallel_map(std::size_t n, const ParallelOptions& options,
                            Fn&& fn) {
  std::vector<std::optional<R>> slots(n);
  parallel_for(n, options,
               [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(n);
  for (std::optional<R>& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace soap::support
