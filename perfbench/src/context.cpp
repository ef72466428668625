#include "context.hpp"

#include <algorithm>
#include <fstream>
#include <sys/resource.h>
#include <thread>
#include <time.h>
#include <vector>

#include "stats.hpp"

namespace perfbench {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

std::size_t parallel_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

CpuPin::CpuPin(std::size_t k) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

const char* build_type() { return PERFBENCH_BUILD_TYPE; }

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  in >> one >> five >> fifteen;
  return "[" + number(one) + ", " + number(five) + ", " + number(fifteen) +
         "]";
}

}  // namespace

std::string context_json(const std::string& workload, std::uint64_t seed,
                         const std::string& commit,
                         const std::string& source_digest) {
  std::string out = "{\"context\": {";
  out += "\"workload\": " + quoted(workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"threads\": " + std::to_string(parallel_threads());
  out += ", \"cpu_model\": " + quoted(cpu_model());
  out += ", \"loadavg\": " + load_average();
  out += ", \"compiler\": " + quoted(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + quoted(build_type());
  out += ", \"commit\": " + quoted(commit);
  out += ", \"source_digest\": " + quoted(source_digest);
  return out + "}}";
}

}  // namespace perfbench
