// Clocks, process counters and the run context printed with every result.
#pragma once

#include <cstdint>
#include <string>
#include <sched.h>
#include <sys/types.h>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds: comparable across processes, so a parent
/// can hand its spawn time to a child (set-up is timed from process start).
std::int64_t monotonic_ns();

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(monotonic_ns() - start_ns) * 1e-9;
}

/// User + system CPU seconds of this process (all threads).
double process_cpu_seconds();

/// Peak resident set (VmHWM) of `pid` in MB (1e6 bytes); 0 when unreadable.
double peak_rss_mb(pid_t pid);

/// Worker threads for parallel batches and the server: min(nproc, 4).
std::size_t parallel_threads();

/// Pins the calling thread to the k-th (mod count) CPU it may run on, and
/// restores its CPU set when destroyed.  A closed loop spreads its
/// repetitions over the CPUs with it, so one CPU slowed by a neighbour on
/// a shared host cannot slow every repetition of an item.
class CpuPin {
 public:
  explicit CpuPin(std::size_t k);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// The build type the benchmark was compiled with (CMAKE_BUILD_TYPE).
const char* build_type();

/// The run context as one JSON object: nproc, CPU model, load average at
/// start, compiler, build type, commit, source digest, workload and seed.
std::string context_json(const std::string& workload, std::uint64_t seed,
                         const std::string& commit,
                         const std::string& source_digest);

}  // namespace perfbench
