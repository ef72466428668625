// `serve`: an open loop against the `analyzed` binary over its stdin/stdout
// pipe, from this one process.  Set-up starts the server and warms its cache
// with every registry kernel.  The seeded stream (generator.hpp) then runs
// at a ladder of fixed rates; each request is timed from when it was due.
// After the timed phase every reply is checked against a reference derived
// in this process without the server.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "context.hpp"
#include "frontend/lower.hpp"
#include "generator.hpp"
#include "kernels/table2.hpp"
#include "replay.hpp"
#include "service/bound_cache.hpp"
#include "service/cache_key.hpp"
#include "service/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One reply line as received.
struct Reply {
  std::string line;
  std::int64_t recv_ns = 0;
};

/// The `analyzed` child process and the thread reading its replies.  The
/// destructor stops both: it closes the server's stdin (EOF ends the
/// server), kills it if it has not exited, reaps it, and joins the reader.
class ServerProcess {
 public:
  explicit ServerProcess(std::size_t threads) {
    int in_pipe[2];
    int out_pipe[2];
    if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
      throw std::runtime_error("pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      posix_spawn_file_actions_addclose(&actions, fd);
    }
    std::string path = PERFBENCH_ANALYZED;
    std::string flag = "--threads";
    std::string count = std::to_string(threads);
    char* argv[] = {path.data(), flag.data(), count.data(), nullptr};
    const int rc = posix_spawn(&pid_, path.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    in_fd_ = in_pipe[1];
    out_fd_ = out_pipe[0];
    if (rc != 0) {
      pid_ = 0;
      close(in_fd_);
      close(out_fd_);
      throw std::runtime_error("cannot start " + path);
    }
    reader_ = std::thread([this] { read_loop(); });
  }

  ~ServerProcess() {
    finish(false);
    if (reader_.joinable()) reader_.join();
    if (out_fd_ >= 0) close(out_fd_);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Writes all of `text`; false when the server's stdin is gone.
  bool send(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = write(in_fd_, text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Waits until every id in `ids` has a reply, the server closes its
  /// stdout, or `timeout_s` passes.
  void wait_for(const std::vector<std::string>& ids, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), [&] {
      if (closed_) return true;
      for (const std::string& id : ids) {
        if (replies_.count(id) == 0) return false;
      }
      return true;
    });
  }

  /// A copy of the reply with `id`, if it has arrived.
  std::optional<Reply> reply(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = replies_.find(id);
    if (it == replies_.end()) return std::nullopt;
    return it->second;
  }

  /// Closes stdin (the server drains and exits on EOF) and reaps it;
  /// `graceful` waits for a clean exit, otherwise the server is killed.
  /// Returns the server's exit status (-1 when it did not exit cleanly).
  int finish(bool graceful) {
    if (pid_ == 0) return exit_status_;
    if (in_fd_ >= 0) {
      close(in_fd_);
      in_fd_ = -1;
    }
    if (!graceful) kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = 0;
    exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return exit_status_;
  }

 private:
  void read_loop() {
    std::string buffer;
    char chunk[65536];
    for (;;) {
      const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      const std::int64_t now = monotonic_ns();
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      std::size_t nl = 0;
      std::lock_guard<std::mutex> lock(mu_);
      while ((nl = buffer.find('\n', start)) != std::string::npos) {
        std::string line = buffer.substr(start, nl - start);
        start = nl + 1;
        // Every reply of the stream starts {"id":"<id>"; the id is unique.
        const std::size_t open = line.find("\"id\":\"");
        const std::size_t close_q =
            open == std::string::npos ? open : line.find('"', open + 6);
        std::string id = close_q == std::string::npos
                             ? "?" + std::to_string(unparsed_++)
                             : line.substr(open + 6, close_q - open - 6);
        replies_.emplace(std::move(id), Reply{std::move(line), now});
      }
      buffer.erase(0, start);
      cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  pid_t pid_ = 0;
  int in_fd_ = -1;
  int out_fd_ = -1;
  int exit_status_ = -1;
  std::mutex mu_;  ///< guards replies_, unparsed_, closed_
  std::condition_variable cv_;
  std::unordered_map<std::string, Reply> replies_;
  std::size_t unparsed_ = 0;
  bool closed_ = false;
  std::thread reader_;  ///< declared last: started after the members it uses
};

// The numeric field `key` of a reply line (NaN when absent).
double number_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(line.c_str() + at + tag.size(), nullptr);
}

// The reply with its trailing ,"elapsed_us":N removed.
std::string without_elapsed(const std::string& line) {
  const std::size_t at = line.rfind(",\"elapsed_us\":");
  return at == std::string::npos ? line : line.substr(0, at) + "}";
}

std::string cache_field(const std::string& line) {
  const std::string tag = "\"cache\":\"";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t end = line.find('"', at + tag.size());
  return line.substr(at + tag.size(), end - at - tag.size());
}

void sleep_until_ns(std::int64_t when_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(when_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(when_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// Fresh programs come from the single-statement Polybench kernels with at
// most three nested loops: each derives cold in 5-30 ms, so a run can send
// hundreds of misses and the reference can re-derive each source kernel.
// The two four-deep ones (doitgen, heat3d: ~100 ms) would make the p99 a
// cliff between them and the rest.
std::vector<PoolKernel> miss_pool() {
  std::vector<PoolKernel> pool;
  for (const soap::kernels::KernelEntry& k : soap::kernels::Registry::instance().kernels()) {
    if (k.family != "polybench" || k.source.empty()) continue;
    const soap::Program program = soap::frontend::parse_program(k.source);
    if (program.statements.size() != 1 || program.statements[0].domain.depth() > 3) {
      continue;
    }
    pool.push_back({k.name, k.source, k.options.max_subgraph_size,
                    k.options.max_subgraphs});
  }
  return pool;
}

soap::sdg::SdgOptions analyze_options(const PoolKernel& k) {
  soap::sdg::SdgOptions options;
  options.max_subgraph_size = k.max_subgraph_size;
  options.max_subgraphs = k.max_subgraphs;
  return options;
}

struct StepResult {
  bool ran = false;
  double p99_ms = kInf;
  /// How far the step is from meeting the limit (see the ladder loop); it
  /// meets the limit when <= 1.
  double severity = kInf;
  double wall_s = 0.0;

  [[nodiscard]] bool passed() const { return severity <= 1.0; }
};

}  // namespace

void run_serve(const Args& args, Result& result, Measured& m) {
  signal(SIGPIPE, SIG_IGN);
  const auto& registry = soap::kernels::Registry::instance().kernels();
  std::vector<std::string> names;
  for (const auto& k : registry) names.push_back(k.name);
  const std::vector<PoolKernel> pool = miss_pool();
  const ServeStream stream = make_serve_stream(args.seed, args.seconds, names, pool);
  std::vector<std::string> wires;
  wires.reserve(stream.requests.size());
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    wires.push_back(request_wire(stream, i, names, pool));
  }
  std::fprintf(stderr, "perfbench: serve stream %016llx, %zu requests, %zu programs\n",
               static_cast<unsigned long long>(fnv1a(stream_bytes(stream, names, pool))),
               stream.requests.size(), stream.programs.size());

  const std::size_t threads = parallel_threads();
  ServerProcess server(threads);

  // Set-up: warm the cache with every registry kernel and the primed
  // programs, then wait for all of them.
  std::vector<std::string> setup_ids;
  std::string warm;
  for (std::size_t k = 0; k < names.size(); ++k) {
    warm += "kernel " + names[k] + " id=w" + std::to_string(k) + "\n";
    setup_ids.push_back("w" + std::to_string(k));
  }
  for (std::size_t p = 0; p < stream.primed; ++p) {
    warm += prime_wire(stream, p, pool);
    setup_ids.push_back("p" + std::to_string(p));
  }
  if (server.send(warm)) server.wait_for(setup_ids, 120.0);
  for (const std::string& id : setup_ids) {
    if (!server.reply(id)) throw std::runtime_error("analyzed did not finish the warm-up");
  }
  m.own_setup_s = seconds_since(args.start_ns);

  // The timed phase: every step of the ladder in ascending rate, each
  // drained before the next.
  std::vector<std::int64_t> due_abs(stream.requests.size(), 0);
  std::vector<std::int64_t> sent_abs(stream.requests.size(), 0);
  std::vector<StepResult> steps(stream.steps.size());
  std::size_t sent_end = 0;  // requests [0, sent_end) were sent
  bool write_failed = false;
  for (std::size_t s = 0; s < stream.steps.size() && !write_failed; ++s) {
    const Step& step = stream.steps[s];
    const std::int64_t step_start = monotonic_ns() + 2000000;
    std::vector<std::string> ids;
    for (std::size_t i = step.first; i < step.first + step.count; ++i) {
      due_abs[i] = step_start + stream.requests[i].due_ns;
      sleep_until_ns(due_abs[i]);
      sent_abs[i] = monotonic_ns();
      if (!server.send(wires[i])) {
        write_failed = true;
        break;
      }
      ids.push_back("q" + std::to_string(i));
      sent_end = i + 1;
    }
    server.wait_for(ids, 30.0);
    StepResult& r = steps[s];
    r.ran = true;
    std::vector<double> latency_ms;
    std::int64_t last_ns = step_start;
    for (std::size_t i = step.first; i < step.first + step.count; ++i) {
      const auto reply = i < sent_end ? server.reply("q" + std::to_string(i)) : std::nullopt;
      const bool ok = reply && reply->line.find("\"status\":\"ok\"") != std::string::npos;
      latency_ms.push_back(ok ? static_cast<double>(reply->recv_ns - due_abs[i]) * 1e-6 : kInf);
      if (reply) last_ns = std::max(last_ns, reply->recv_ns);
    }
    r.wall_s = static_cast<double>(last_ns - step_start) * 1e-9;
    r.p99_ms = percentile(latency_ms, 0.99);
    // A stall of the shared host spoils one half of a step, a backlog grown
    // past the limit shows in its last request: the step meets the limit
    // when one half's p99 and the last request do.
    const auto half = static_cast<long>(latency_ms.size() / 2);
    const double halves_p99 =
        std::min(percentile({latency_ms.begin(), latency_ms.begin() + half}, 0.99),
                 percentile({latency_ms.begin() + half, latency_ms.end()}, 0.99));
    r.severity = std::max(halves_p99, latency_ms.back()) / kServeLimitMs;
    std::fprintf(stderr, "perfbench: step %zu rate %g/s: p99 %.3f ms, last %.3f ms, "
                 "%s; served %.1f/s\n", s, step.rate, r.p99_ms, latency_ms.back(),
                 r.passed() ? "met" : "missed", static_cast<double>(step.count) / r.wall_s);
  }

  const std::string stats_id = "s1";
  server.send("stats id=" + stats_id + "\n");
  server.wait_for({stats_id}, 60.0);
  const std::optional<Reply> stats = server.reply(stats_id);
  const double server_rss_mb = peak_rss_mb(server.pid());
  server.send("quit\n");
  if (server.finish(true) != 0) {
    std::fprintf(stderr, "perfbench: analyzed exited uncleanly\n");
    ++result.failed;
  }

  // ---- Reference, derived in-process after the timed phase ----
  Tracer deriv_tracer;
  Tracer* tracer = args.trace ? &deriv_tracer : nullptr;
  LayerCounts counts;
  double direct_s = 0.0;

  // Registry kernels: analyze_corpus_resilient over the whole registry.
  std::vector<const soap::kernels::KernelEntry*> all;
  for (const auto& k : registry) all.push_back(&k);
  soap::kernels::CorpusOptions corpus_options;
  corpus_options.threads = threads;
  const soap::kernels::CorpusReport report =
      soap::kernels::analyze_corpus_resilient(all, corpus_options);
  std::vector<std::string> kernel_ref(registry.size());
  for (std::size_t k = 0; k < registry.size(); ++k) {
    const auto& outcome = report.kernels[k];
    if (!outcome.bound ||
        !soap::sym::numerically_equal(*outcome.bound, registry[k].expected_bound)) {
      std::fprintf(stderr, "perfbench: reference bound of %s is wrong\n", names[k].c_str());
      ++result.failed;
    }
    kernel_ref[k] = soap::service::outcome_json(outcome).substr(1);
  }

  // Generated programs: one derivation per pool kernel (under the prefix of
  // its first program); a uniform prefix leaves the derivation unchanged,
  // so other programs of that kernel differ only in their array names.
  // Counted from here: the parallel batch above interns in schedule order.
  const std::uint64_t interned0 = soap::sym::expr_intern_stats().total_interned;
  struct PoolRef {
    std::string prefix;
    std::string fields;  ///< reply fields after "cache"
    soap::sdg::MultiStatementBound bound;
  };
  std::map<std::size_t, PoolRef> pool_ref;
  std::vector<bool> program_used(stream.programs.size(), false);
  for (std::size_t p = 0; p < stream.primed; ++p) program_used[p] = true;
  for (std::size_t i = 0; i < sent_end; ++i) {
    if (stream.requests[i].kind != RequestKind::kKernel) {
      program_used[stream.requests[i].target] = true;
    }
  }
  std::uint32_t item = 0;
  for (std::size_t p = 0; p < stream.programs.size(); ++p) {
    const GeneratedProgram& g = stream.programs[p];
    if (!program_used[p] || pool_ref.count(g.pool_index) != 0) continue;
    const soap::sdg::SdgOptions options = analyze_options(pool[g.pool_index]);
    const std::int64_t t0 = monotonic_ns();
    const auto direct =
        soap::sdg::multi_statement_bound(soap::frontend::parse_program(g.text), options);
    direct_s += seconds_since(t0);
    if (!direct) throw std::runtime_error("no reference bound for " + g.text);
    if (tracer != nullptr) {
      tracer->set_item(item++);
      std::optional<soap::sdg::MultiStatementBound> replay;
      {
        Tracer::Scope item(tracer, "item");
        std::optional<soap::Program> program;
        {
          Tracer::Scope span(tracer, "frontend.parse");
          program = soap::frontend::parse_program(g.text);
        }
        ++counts.parses;
        replay = traced_bound(*program, options, tracer, counts);
      }
      if (!replay || !same_bound(*direct, *replay)) {
        std::fprintf(stderr, "perfbench: replay differs for %s\n",
                     pool[g.pool_index].name.c_str());
        ++result.failed;
      }
    }
    pool_ref[g.pool_index] = {g.prefix,
                              "\"status\":\"ok\"," +
                                  soap::service::bound_json_fields(*direct),
                              *direct};
  }
  const auto program_fields = [&](const GeneratedProgram& g) {
    const PoolRef& ref = pool_ref.at(g.pool_index);
    std::string fields = ref.fields;
    const std::string from = "\"array\":\"" + ref.prefix;
    const std::string to = "\"array\":\"" + g.prefix;
    for (std::size_t at = fields.find(from); at != std::string::npos;
         at = fields.find(from, at + to.size())) {
      fields.replace(at, from.size(), to);
    }
    return fields;
  };
  std::vector<std::string> digests(stream.programs.size());
  for (std::size_t p = 0; p < stream.programs.size(); ++p) {
    if (!program_used[p]) continue;
    const GeneratedProgram& g = stream.programs[p];
    digests[p] = soap::service::make_cache_key(soap::frontend::parse_program(g.text),
                                               analyze_options(pool[g.pool_index]))
                     .digest.hex();
  }

  // Checks one reply against its reference; `cache` is the outcome the
  // stream's construction guarantees.
  std::size_t hits = 0;
  std::size_t misses = 0;
  const auto check = [&](const std::string& id, const std::string& expected_cache,
                         const std::string& body) {
    ++result.attempted;
    const std::optional<Reply> reply = server.reply(id);
    const std::string expected = "{\"id\":" + soap::service::json_string(id) + body;
    if (!reply || without_elapsed(reply->line) != expected ||
        cache_field(reply->line) != expected_cache) {
      std::fprintf(stderr, "perfbench: reply %s wrong:\n  got      %s\n  expected %s\n",
                   id.c_str(), reply ? reply->line.c_str() : "(none)", expected.c_str());
      ++result.failed;
      return false;
    }
    return true;
  };
  const auto kernel_body = [&](std::size_t k, const std::string& cache) {
    return ",\"cache\":\"" + cache + "\"," + kernel_ref[k];
  };
  const auto program_body = [&](std::size_t p, const std::string& cache) {
    return ",\"digest\":\"" + digests[p] + "\",\"cache\":\"" + cache + "\"," +
           program_fields(stream.programs[p]) + "}";
  };
  // Registry kernels with the same program (lu and ludcmp) share a cache
  // key, so during the concurrent warm-up the later one may be a hit or
  // coalesce onto the first; the warm-up is set-up and not counted.
  std::set<std::string> warm_keys;
  for (std::size_t k = 0; k < names.size(); ++k) {
    const std::string id = "w" + std::to_string(k);
    const bool first = warm_keys
        .insert(soap::service::make_cache_key(registry[k].build(), registry[k].options)
                    .digest.hex())
        .second;
    const std::optional<Reply> reply = server.reply(id);
    const std::string got = reply ? cache_field(reply->line) : "";
    check(id, first ? "miss" : got == "hit" ? "hit" : "coalesced",
          kernel_body(k, first ? "miss" : got == "hit" ? "hit" : "coalesced"));
  }
  for (std::size_t p = 0; p < stream.primed; ++p) {
    check("p" + std::to_string(p), "miss", program_body(p, "miss"));
  }
  std::vector<bool> request_ok(sent_end, false);
  for (std::size_t i = 0; i < sent_end; ++i) {
    const Request& req = stream.requests[i];
    const std::string cache = req.kind == RequestKind::kFresh ? "miss" : "hit";
    const std::string body = req.kind == RequestKind::kKernel
                                 ? kernel_body(req.target, cache)
                                 : program_body(req.target, cache);
    request_ok[i] = check("q" + std::to_string(i), cache, body);
    if (req.step <= kReferenceStep) ++(cache == "hit" ? hits : misses);
  }
  if (write_failed) ++result.failed;

  // ---- Metrics ----
  const Step& ref = stream.steps[kReferenceStep];
  std::vector<double> latency_ms, elapsed_ms, hit_us, miss_ms, queue_ms;
  for (std::size_t i = ref.first; i < ref.first + ref.count; ++i) {
    const std::optional<Reply> reply =
        i < sent_end ? server.reply("q" + std::to_string(i)) : std::nullopt;
    if (!reply || !request_ok[i]) {
      latency_ms.push_back(kInf);  // a failed request misses every limit
      continue;
    }
    const double lat = static_cast<double>(reply->recv_ns - due_abs[i]) * 1e-6;
    const double el = number_field(reply->line, "elapsed_us") * 1e-3;
    latency_ms.push_back(lat);
    elapsed_ms.push_back(el);
    queue_ms.push_back(lat - el);
    (stream.requests[i].kind == RequestKind::kFresh ? miss_ms : hit_us)
        .push_back(stream.requests[i].kind == RequestKind::kFresh ? el : el * 1e3);
  }
  std::vector<double> lag_ms;
  for (std::size_t i = 0; i < sent_end; ++i) {
    lag_ms.push_back(static_cast<double>(sent_abs[i] - due_abs[i]) * 1e-6);
  }

  // serve.max_rps: the highest rate that meets the limit, interpolated on
  // log(severity) toward the next rate up (which missed it), so the figure
  // moves continuously when the knee drifts between two steps.  Each climb
  // (after the light and reference steps) gives one; a stretch of the
  // shared host slowed by a neighbour spoils one climb, not the figure, so
  // the best climb's is reported.
  double max_rps = 0.0;
  for (std::uint32_t c = 1; c <= kClimbs; ++c) {
    std::vector<std::size_t> ladder;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      if (stream.steps[s].climb == 0 || stream.steps[s].climb == c) ladder.push_back(s);
    }
    std::size_t best = ladder.size();
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      if (steps[ladder[k]].ran && steps[ladder[k]].passed()) best = k;
    }
    double rps = 0.0;
    if (best == ladder.size()) {
      rps = stream.steps[ladder[0]].rate / steps[ladder[0]].severity;
    } else if (best + 1 == ladder.size() || !steps[ladder[best + 1]].ran) {
      rps = stream.steps[ladder[best]].rate;
    } else {
      const std::size_t lo_step = ladder[best];
      const std::size_t hi_step = ladder[best + 1];
      const double lo = std::log(steps[lo_step].severity);
      const double hi = std::log(std::min(steps[hi_step].severity, 1e9));
      const double frac = hi > lo ? std::clamp(-lo / (hi - lo), 0.0, 1.0) : 0.0;
      rps = stream.steps[lo_step].rate +
            frac * (stream.steps[hi_step].rate - stream.steps[lo_step].rate);
    }
    std::fprintf(stderr, "perfbench: climb %u: max rate meeting the limit %.1f/s\n", c, rps);
    max_rps = std::max(max_rps, rps);
  }

  m.e2e["pass_s"] = steps[kReferenceStep].wall_s;
  m.e2e["item_p50_ms"] = percentile(elapsed_ms, 0.50);
  m.e2e["item_p75_ms"] = percentile(elapsed_ms, 0.75);
  // The reference step in consecutive windows of >= 1000 requests (>= 10
  // beyond each p99); the median window is robust to one stall of the
  // shared host.
  const std::size_t windows = std::max<std::size_t>(1, latency_ms.size() / 1000);
  std::vector<double> window_p50, window_p99;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::vector<double> window(
        latency_ms.begin() + static_cast<long>(w * latency_ms.size() / windows),
        latency_ms.begin() + static_cast<long>((w + 1) * latency_ms.size() / windows));
    window_p50.push_back(percentile(window, 0.50));
    window_p99.push_back(percentile(window, 0.99));
  }
  m.e2e["serve_p50_ms"] = median(window_p50);
  m.e2e["serve_p99_ms"] = median(window_p99);
  m.e2e["peak_rss_mb"] = server_rss_mb;
  std::fprintf(stderr, "perfbench: reference step %zu requests; %zu hits / %zu misses "
               "in the steps through it\n", ref.count, hits, misses);

  if (args.trace) {
    auto& L = m.layers;
    // In-process replay of the reference step's analyze requests: parse,
    // key, and a warm BoundCache lookup.  The cache holds just the programs
    // those requests name, so no later step's programs evict them.
    Tracer replay_tracer;
    soap::service::BoundCache cache;
    std::vector<double> key_us, lookup_us;
    std::vector<bool> warmed(stream.programs.size(), false);
    for (std::size_t i = ref.first; i < ref.first + ref.count && i < sent_end; ++i) {
      const Request& req = stream.requests[i];
      if (req.kind == RequestKind::kKernel || warmed[req.target]) continue;
      warmed[req.target] = true;
      const GeneratedProgram& g = stream.programs[req.target];
      cache.put(soap::service::make_cache_key(soap::frontend::parse_program(g.text),
                                              analyze_options(pool[g.pool_index])),
                pool_ref.at(g.pool_index).bound);
    }
    for (std::size_t i = ref.first; i < ref.first + ref.count && i < sent_end; ++i) {
      const Request& req = stream.requests[i];
      if (req.kind == RequestKind::kKernel) continue;
      const GeneratedProgram& g = stream.programs[req.target];
      replay_tracer.set_item(static_cast<std::uint32_t>(i));
      std::optional<soap::Program> program;
      {
        Tracer::Scope span(&replay_tracer, "frontend.parse");
        program = soap::frontend::parse_program(g.text);
      }
      ++counts.parses;
      std::int64_t t0 = monotonic_ns();
      soap::service::CacheKey key;
      {
        Tracer::Scope span(&replay_tracer, "service.key");
        key = soap::service::make_cache_key(*program, analyze_options(pool[g.pool_index]));
      }
      key_us.push_back(static_cast<double>(monotonic_ns() - t0) * 1e-3);
      t0 = monotonic_ns();
      {
        Tracer::Scope span(&replay_tracer, "service.lookup");
        cache.get_or_derive(key, []() -> soap::sdg::MultiStatementBound {
          throw std::logic_error("warm lookup derived");
        });
      }
      lookup_us.push_back(static_cast<double>(monotonic_ns() - t0) * 1e-3);
    }
    for (std::size_t i = ref.first; i < ref.first + ref.count && i < sent_end; ++i) {
      const std::optional<Reply> reply = server.reply("q" + std::to_string(i));
      if (reply) replay_tracer.add("service.request", static_cast<std::uint32_t>(i),
                                   due_abs[i], reply->recv_ns);
    }

    report_layers(deriv_tracer, counts, direct_s * 1e3,
                  soap::sym::expr_intern_stats().total_interned - interned0, L);
    // Parses of the request replay count with the reference derivations'.
    const auto replay_self = replay_tracer.self_ms();
    const auto parse = replay_self.find("frontend.parse");
    if (parse != replay_self.end()) L["frontend.parse_ms"] += parse->second;
    L["service.hit_us_p50"] = percentile(hit_us, 0.50);
    L["service.hit_us_p99"] = percentile(hit_us, 0.99);
    L["service.miss_ms_p50"] = percentile(miss_ms, 0.50);
    L["service.miss_ms_p99"] = percentile(miss_ms, 0.99);
    L["service.queue_ms_p50"] = percentile(queue_ms, 0.50);
    L["service.queue_ms_p99"] = percentile(queue_ms, 0.99);
    if (stats) {
      L["service.hit_rate"] = number_field(stats->line, "hit_rate");
      L["service.coalesced"] = number_field(stats->line, "coalesced");
      L["service.evicted"] = number_field(stats->line, "evicted");
    }
    L["service.hits"] = static_cast<double>(hits);
    L["service.misses"] = static_cast<double>(misses);
    L["service.key_us"] = median(key_us);
    L["service.lookup_us"] = median(lookup_us);
    L["serve.gen_lag_ms_p99"] = percentile(lag_ms, 0.99);
    L["serve.max_rps"] = max_rps;
    const std::string base = args.out_dir + "/trace-serve-" + std::to_string(args.seed);
    if (!deriv_tracer.write_json(base + "-derive.json") ||
        !replay_tracer.write_json(base + "-requests.json")) {
      std::fprintf(stderr, "perfbench: cannot write the serve trace\n");
    }
  }
}

}  // namespace perfbench
