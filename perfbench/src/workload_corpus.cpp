// `corpus`: every registry kernel, uncached, in a seeded order, one kernel
// at a time through analyze_kernel_checked (closed loop, one client,
// threads=1).  The traced run also times one analyze_corpus_resilient batch
// of the same kernels on min(nproc, 4) threads, for the support layer, and
// replays analysis::measure_kernel on every (kernel, S) row of the default
// attainment table, for the analysis, schedule and cachesim layers.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>

#include "analysis/attainment.hpp"
#include "context.hpp"
#include "generator.hpp"
#include "kernels/table2.hpp"
#include "replay.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/expr.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using soap::kernels::KernelEntry;

std::vector<const KernelEntry*> seeded_kernels(const Args& args) {
  const std::vector<KernelEntry>& all = soap::kernels::Registry::instance().kernels();
  std::vector<const KernelEntry*> items;
  for (const std::size_t i : seeded_order(args.seed, 0, all.size())) {
    items.push_back(&all[i]);
  }
  return items;
}

struct RowItem {
  const KernelEntry* entry;
  long long S;
};

// The default attainment table (every registry kernel at S = 96 and
// S = 384) in a seeded order.
std::vector<RowItem> seeded_rows(const Args& args) {
  const std::vector<KernelEntry>& all = soap::kernels::Registry::instance().kernels();
  const std::vector<long long> sizes = soap::analysis::AttainmentOptions{}.cache_sizes;
  std::vector<RowItem> rows;
  for (const std::size_t i : seeded_order(args.seed, 3, all.size() * sizes.size())) {
    rows.push_back({&all[i / sizes.size()], sizes[i % sizes.size()]});
  }
  return rows;
}

// Rounds of the corpus a run times: max(2, seconds / 12), 3 at 35 s.
std::size_t corpus_rounds(double seconds) {
  return std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(seconds / 12.0)));
}

// A kernel's outcome is right when it is a clean, undegraded bound equal to
// the registry's recorded expected bound (numerically, as the golden tests
// compare it).
bool outcome_ok(const soap::kernels::KernelOutcome& outcome,
                const KernelEntry& entry) {
  const bool ok = outcome.status == soap::support::StatusCode::kOk &&
                  !outcome.degraded && outcome.bound &&
                  soap::sym::numerically_equal(*outcome.bound, entry.expected_bound);
  if (!ok) {
    std::fprintf(stderr, "perfbench: wrong bound for %s: %s\n", entry.name.c_str(),
                 outcome.bound ? outcome.bound->str().c_str() : outcome.message.c_str());
  }
  return ok;
}

// The traced replay of every kernel: the direct multi_statement_bound call
// (untraced, timed), then the layer-by-layer replay under spans; the two
// must agree bit for bit.
void traced_pass(const std::vector<const KernelEntry*>& items, Tracer& tracer,
                 Result& result, Measured& m, double batch_s) {
  LayerCounts counts;
  const std::uint64_t interned0 = soap::sym::expr_intern_stats().total_interned;
  double direct_s = 0.0;
  double slowest_s = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const KernelEntry& entry = *items[i];
    soap::sdg::SdgOptions options = entry.options;
    options.threads = 1;

    const std::int64_t t0 = monotonic_ns();
    const soap::Program direct_program = entry.build();
    const auto direct = soap::sdg::multi_statement_bound(direct_program, options);
    const double kernel_s = seconds_since(t0);
    direct_s += kernel_s;
    slowest_s = std::max(slowest_s, kernel_s);

    tracer.set_item(static_cast<std::uint32_t>(i));
    std::optional<soap::sdg::MultiStatementBound> replay;
    {
      Tracer::Scope item(&tracer, "item");
      std::optional<soap::Program> program;
      {
        Tracer::Scope span(&tracer, "frontend.parse");
        program = entry.build();
      }
      ++counts.parses;
      replay = traced_bound(*program, options, &tracer, counts);
    }
    ++result.attempted;
    if (!direct || !replay || !same_bound(*direct, *replay) ||
        !soap::sym::numerically_equal(replay->Q_leading, entry.expected_bound) || replay->degraded) {
      std::fprintf(stderr, "perfbench: replay of %s differs from the direct call\n",
                   entry.name.c_str());
      ++result.failed;
    }
  }
  report_layers(tracer, counts, direct_s * 1e3,
                soap::sym::expr_intern_stats().total_interned - interned0, m.layers);
  m.layers["support.critical_frac"] = slowest_s / batch_s;
}

// The traced replay of every attainment row (measure_kernel re-composed
// from analysis, schedule and cachesim calls): each row must be sound and
// undegraded.  Reports the analysis, schedule and cachesim layers.
void traced_rows(const Args& args, Result& result, Measured& m) {
  const std::vector<RowItem> rows = seeded_rows(args);
  Tracer tracer;
  LayerCounts counts;
  std::set<std::string> kernels;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    tracer.set_item(static_cast<std::uint32_t>(i));
    soap::analysis::AttainmentRow row;
    {
      Tracer::Scope item(&tracer, "item");
      row = traced_row(*rows[i].entry, rows[i].S, &tracer, counts);
    }
    kernels.insert(rows[i].entry->name);
    ++result.attempted;
    if (!row.sound() || row.degraded) {
      std::fprintf(stderr, "perfbench: unsound or degraded row %s S=%lld\n",
                   row.kernel.c_str(), row.S);
      ++result.failed;
    }
  }
  const auto total = tracer.total_ms();
  const auto self = tracer.self_ms();
  const auto get = [](const std::map<std::string, double>& map, const char* name) {
    const auto it = map.find(name);
    return it == map.end() ? 0.0 : it->second;
  };
  auto& L = m.layers;
  L["analysis.derive_ms"] = get(total, "analysis.derive");
  L["analysis.derives_per_kernel"] =
      static_cast<double>(counts.derives) / static_cast<double>(kernels.size());
  L["schedule.tiles_ms"] = get(self, "schedule.tiles");
  L["cachesim.measure_ms"] = get(self, "cachesim.measure");
  L["cachesim.accesses"] = static_cast<double>(counts.cachesim_accesses);
  L["cachesim.maccesses_per_s"] = static_cast<double>(counts.cachesim_accesses) /
                                  get(self, "cachesim.measure") / 1e3;
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + "-rows.json";
  if (!tracer.write_json(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace

void prepare_corpus(const Args& args) {
  if (seeded_kernels(args).empty()) throw std::runtime_error("empty kernel registry");
}

void run_corpus(const Args& args, Result& result, Measured& m) {
  const std::vector<const KernelEntry*> items = seeded_kernels(args);
  m.own_setup_s = seconds_since(args.start_ns);

  if (args.trace) {
    // One parallel batch of the same kernels (the analyze_tool --corpus
    // --threads path): the support layer's CPU use and critical path.
    const std::size_t threads = parallel_threads();
    soap::support::ThreadPool::global();
    Tracer tracer;
    soap::kernels::CorpusOptions options;
    options.threads = threads;
    const double cpu0 = process_cpu_seconds();
    const std::int64_t t0 = monotonic_ns();
    const soap::kernels::CorpusReport report =
        soap::kernels::analyze_corpus_resilient(items, options);
    const std::int64_t t1 = monotonic_ns();
    const double batch_s = static_cast<double>(t1 - t0) * 1e-9;
    tracer.add("support.corpus_batch", 0, t0, t1);
    m.layers["support.cpu_util"] = (process_cpu_seconds() - cpu0) /
                                   (batch_s * static_cast<double>(threads));
    for (std::size_t i = 0; i < items.size(); ++i) {
      ++result.attempted;
      if (!outcome_ok(report.kernels[i], *items[i])) ++result.failed;
    }
    traced_pass(items, tracer, result, m, batch_s);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.write_json(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    traced_rows(args, result, m);
    return;
  }

  // Every kernel once per round, round r pinned to the r-th CPU.  A
  // kernel's time is its best over the rounds, so a CPU slowed by a
  // neighbour on the shared host for part of the run does not set it.
  // (Pinning each kernel to a different CPU instead read ~8% slower on a
  // 4-vCPU KVM guest: the analyzer's working set refills each new CPU's
  // caches.)
  const std::size_t rounds = corpus_rounds(args.seconds);
  std::vector<double> best_ms(items.size(), std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < rounds; ++r) {
    const CpuPin pin(r);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::int64_t t0 = monotonic_ns();
      const soap::kernels::KernelOutcome outcome =
          soap::kernels::analyze_kernel_checked(*items[i]);
      best_ms[i] = std::min(best_ms[i], seconds_since(t0) * 1e3);
      ++result.attempted;
      if (!outcome_ok(outcome, *items[i])) ++result.failed;
    }
  }

  double pass_ms = 0.0;
  for (const double ms : best_ms) pass_ms += ms;
  // Closed loop: an item is due when the previous one completes, so its
  // latency from due time is its own duration.  The client's request is
  // the whole pass (analyze_tool --corpus): one pass of best times.
  m.e2e["pass_s"] = pass_ms / 1e3;
  m.e2e["item_p50_ms"] = percentile(best_ms, 0.50);
  m.e2e["item_p75_ms"] = percentile(best_ms, 0.75);
  m.e2e["serve_p50_ms"] = pass_ms;
  m.e2e["serve_p99_ms"] = pass_ms;
  m.e2e["peak_rss_mb"] = peak_rss_mb(getpid());
  std::fprintf(stderr, "perfbench: %zu rounds, %zu item samples (best of %zu each)\n",
               rounds, items.size(), rounds);
}

}  // namespace perfbench
