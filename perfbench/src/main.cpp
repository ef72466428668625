// perfbench — the analyzer's end-to-end benchmark (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--start-ns T] [--commit SHA] [--source-digest HEX]
//             [--out-dir DIR]
//
// Prints the run context as one JSON line, then, as the last line, the
// result {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1
// when any output is wrong, 2 on bad arguments or a non-Release build.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "context.hpp"
#include "stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, printed by every untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"pass_s", "s"},
    {"item_p50_ms", "ms"},     {"item_p75_ms", "ms"},
    {"serve_p50_ms", "ms"},    {"serve_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics, printed by every traced run (0 where a layer does
// no work on the workload).
constexpr MetricSpec kPerLayer[] = {
    {"bounds.derive_chi_ms", "ms"},     {"bounds.derive_chi_calls", "count"},
    {"bounds.unbounded", "count"},      {"bounds.intensity_ms", "ms"},
    {"bounds.share", "ratio"},          {"bounds.solve_success", "count"},
    {"bounds.solve_no_converge", "count"},
    {"bounds.solve_stop_reached", "count"},
    {"sdg.build_ms", "ms"},             {"sdg.enumerate_ms", "ms"},
    {"sdg.subgraphs", "count"},         {"sdg.merge_ms", "ms"},
    {"sdg.useful_frac", "ratio"},       {"symbolic.leading_ms", "ms"},
    {"symbolic.eval_ms", "ms"},         {"symbolic.live_nodes_peak", "count"},
    {"symbolic.interned", "count"},     {"symbolic.arena_mb", "MB"},
    {"frontend.parse_ms", "ms"},        {"frontend.parses", "count"},
    {"support.cpu_util", "ratio"},      {"support.critical_frac", "ratio"},
    {"service.hit_us_p50", "us"},       {"service.hit_us_p99", "us"},
    {"service.miss_ms_p50", "ms"},      {"service.miss_ms_p99", "ms"},
    {"service.queue_ms_p50", "ms"},     {"service.queue_ms_p99", "ms"},
    {"service.hit_rate", "ratio"},      {"service.coalesced", "count"},
    {"service.evicted", "count"},       {"service.hits", "count"},
    {"service.misses", "count"},        {"service.key_us", "us"},
    {"service.lookup_us", "us"},        {"analysis.derive_ms", "ms"},
    {"analysis.derives_per_kernel", "ratio"},
    {"schedule.tiles_ms", "ms"},        {"cachesim.measure_ms", "ms"},
    {"cachesim.accesses", "count"},     {"cachesim.maccesses_per_s", "M/s"},
    {"trace.coverage", "ratio"},        {"trace.overhead_frac", "ratio"},
    {"serve.gen_lag_ms_p99", "ms"},     {"serve.max_rps", "1/s"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload corpus|serve"
               " --seed N --seconds S --trace 0|1\n"
               "                 [--start-ns T] [--commit SHA] "
               "[--source-digest HEX] [--out-dir DIR]\n");
  return 2;
}

bool known_workload(const std::string& w) {
  return w == "corpus" || w == "serve";
}


// Times set-up in a fresh process: spawns this binary in probe mode and
// reads back the seconds from its spawn to the end of its set-up.
double probe_setup(const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string start = std::to_string(monotonic_ns());
  const std::string seed = std::to_string(args.seed);
  std::vector<std::string> argv_s = {"/proc/self/exe", "--setup-probe",
                                     "--workload", args.workload,
                                     "--seed", seed, "--start-ns", start};
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while (rc == 0 && (n = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fds[0]);
  if (rc != 0) return -1.0;
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) return -1.0;
  return std::stod(out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::int64_t main_ns = monotonic_ns();
  Args args;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool setup_probe = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--setup-probe") {
        setup_probe = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--start-ns") {
        args.start_ns = std::stoll(value);
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!known_workload(args.workload)) return usage();
  if (args.start_ns == 0) args.start_ns = main_ns;

  if (setup_probe) {
    prepare_corpus(args);
    std::printf("%s\n", number(seconds_since(args.start_ns)).c_str());
    return 0;
  }
  if (!have_trace || !(args.seconds > 0)) return usage();
  if (std::strcmp(build_type(), "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 build_type());
    return 2;
  }
  std::cout << context_json(args.workload, args.seed, commit, source_digest)
            << std::endl;

  Result result;
  Measured m;
  try {
    if (args.workload == "serve") {
      run_serve(args, result, m);
    } else {
      run_corpus(args, result, m);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = m.layers.find(spec.name);
      result.add(spec.name, it == m.layers.end() ? 0.0 : it->second, spec.unit);
    }
  } else {
    // Set-up is timed several times a run: this process's own, plus ten
    // fresh probe processes (a few ms each; serve sets up once: its set-up
    // is the seconds-long cache warm-up).
    std::vector<double> setups = {m.own_setup_s};
    if (args.workload != "serve") {
      for (int i = 0; i < 10; ++i) {
        const double s = probe_setup(args);
        if (s < 0) {
          std::fprintf(stderr, "perfbench: set-up probe failed\n");
          return 1;
        }
        setups.push_back(s);
      }
    }
    m.e2e["setup_s"] = median(setups);
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = m.e2e.find(spec.name);
      if (it == m.e2e.end() || !(it->second > 0)) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", spec.name);
        ++result.failed;
      }
      result.add(spec.name, it == m.e2e.end() ? 0.0 : it->second, spec.unit);
    }
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: attempted %llu, failed %llu "
               "(fail_frac %s)\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               number(result.attempted == 0 ? 1.0
                      : static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted)).c_str());
  std::cout << result.json() << std::endl;
  return result.correct() ? 0 : 1;
}
