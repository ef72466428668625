// The two workloads and what they share: arguments, metric names, and the
// layer report the traced run fills.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// CLOCK_MONOTONIC when the caller started this process (set-up is timed
  /// from it); 0 = measure from main().
  std::int64_t start_ns = 0;
  std::string out_dir = ".perfbench";
};

/// What a workload measured.  `e2e` holds the end-to-end metrics except
/// setup_s (untraced run); `layers` the per-layer metrics (traced run).
struct Measured {
  double own_setup_s = 0.0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
};

/// Set-up only: everything a run does before its first timed item.  Used
/// by the set-up probes main() spawns to time set-up several times a run.
void prepare_corpus(const Args& args);

/// Run one workload: fill `m` and count attempted and failed operations in
/// `result`.  Throws on a failure that leaves nothing to report.
void run_corpus(const Args& args, Result& result, Measured& m);
void run_serve(const Args& args, Result& result, Measured& m);

/// The p99 latency limit of serve.max_rps (ms from due time).
inline constexpr double kServeLimitMs = 100.0;

}  // namespace perfbench
