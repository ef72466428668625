// Tests of the benchmark's own code: the seeded generator (determinism of
// kernel orders and serve streams, the structure of the stream, the
// uniform-prefix renaming: a generated program derives the source kernel's
// bound) and the quantile estimator.
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "frontend/lower.hpp"
#include "generator.hpp"
#include "kernels/registry.hpp"
#include "sdg/multi_statement.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

using perfbench::PoolKernel;

std::vector<PoolKernel> test_pool(const std::vector<std::string>& names) {
  std::vector<PoolKernel> pool;
  for (const std::string& name : names) {
    const auto& k = soap::kernels::Registry::instance().at(name);
    pool.push_back({k.name, k.source, k.options.max_subgraph_size,
                    k.options.max_subgraphs});
  }
  return pool;
}

void test_orders() {
  expect(perfbench::seeded_order(7, 0, 43) == perfbench::seeded_order(7, 0, 43),
         "same seed gives the same kernel order");
  expect(perfbench::seeded_order(7, 0, 43) != perfbench::seeded_order(8, 0, 43),
         "another seed gives another kernel order");
  std::vector<std::size_t> order = perfbench::seeded_order(3, 0, 43);
  expect(std::set<std::size_t>(order.begin(), order.end()).size() == 43,
         "a kernel order is a permutation");
}

void test_stream() {
  std::vector<std::string> names;
  for (const auto& k : soap::kernels::Registry::instance().kernels()) {
    names.push_back(k.name);
  }
  const std::vector<PoolKernel> pool = test_pool({"gemm", "syrk", "trmm"});
  const auto a = perfbench::make_serve_stream(11, 10.0, names, pool);
  const auto b = perfbench::make_serve_stream(11, 10.0, names, pool);
  const auto c = perfbench::make_serve_stream(12, 10.0, names, pool);
  const std::string bytes_a = perfbench::stream_bytes(a, names, pool);
  expect(bytes_a == perfbench::stream_bytes(b, names, pool),
         "same seed gives a byte-identical request stream");
  expect(bytes_a != perfbench::stream_bytes(c, names, pool),
         "another seed gives another request stream");

  // Re-sends only target programs sent in an earlier step (or primed in
  // set-up), so they are hits; every fresh program is new.
  std::vector<std::uint32_t> first_step(a.programs.size(), 0);
  std::set<std::size_t> fresh;
  std::size_t kernels = 0;
  std::size_t resends = 0;
  for (const auto& req : a.requests) {
    if (req.kind == perfbench::RequestKind::kFresh) {
      expect(fresh.insert(req.target).second, "fresh programs are distinct");
      first_step[req.target] = req.step;
    }
  }
  for (const auto& req : a.requests) {
    if (req.kind == perfbench::RequestKind::kKernel) ++kernels;
    if (req.kind != perfbench::RequestKind::kResend) continue;
    ++resends;
    expect(req.target < a.primed || first_step[req.target] < req.step,
           "a re-send targets a program from an earlier step");
  }
  const double n = static_cast<double>(a.requests.size());
  expect(kernels / n > 0.82 && kernels / n < 0.88, "about 85% kernel requests");
  expect(resends / n > 0.08 && resends / n < 0.12, "about 10% re-sends");
  std::set<std::string> prefixes;
  for (const auto& p : a.programs) prefixes.insert(p.prefix);
  expect(prefixes.size() == a.programs.size(), "every program has its own prefix");
}

void test_prefix() {
  const std::string src = "for i in range(N):\n  for j in range(M):\n"
                          "    y[i] += A[i, j] * x2[j + 1]\n";
  expect(perfbench::prefix_arrays(src, "g_") ==
             "for i in range(N):\n  for j in range(M):\n"
             "    g_y[i] += g_A[i, j] * g_x2[j + 1]\n",
         "prefix_arrays renames arrays only");

  // The generated program derives the source kernel's bound; only the
  // array names in per_array change.
  for (const char* name : {"gemm", "atax", "jacobi2d", "softmax", "syr2k"}) {
    const auto& k = soap::kernels::Registry::instance().at(name);
    soap::sdg::SdgOptions options;
    options.max_subgraph_size = k.options.max_subgraph_size;
    options.max_subgraphs = k.options.max_subgraphs;
    const auto base =
        soap::sdg::multi_statement_bound(soap::frontend::parse_program(k.source), options);
    const auto renamed = soap::sdg::multi_statement_bound(
        soap::frontend::parse_program(perfbench::prefix_arrays(k.source, "gq7x2ab_")),
        options);
    const bool same = base && renamed && base->Q_leading == renamed->Q_leading &&
                      base->Q_sdg == renamed->Q_sdg && base->Q_cold == renamed->Q_cold &&
                      base->subgraphs_evaluated == renamed->subgraphs_evaluated &&
                      base->per_array.size() == renamed->per_array.size();
    expect(same, std::string("renamed ") + name + " derives the same bound");
    if (!same) continue;
    for (std::size_t i = 0; i < base->per_array.size(); ++i) {
      const auto& x = base->per_array[i];
      const auto& y = renamed->per_array[i];
      expect("gq7x2ab_" + x.array == y.array && x.rho == y.rho &&
                 x.rho_value == y.rho_value && x.cdag_size == y.cdag_size,
             std::string("renamed ") + name + " per-array bound of " + x.array);
    }
  }
}

void test_percentile() {
  expect(perfbench::percentile({7.0}, 0.99) == 7.0, "one sample is every quantile");
  expect(std::fabs(perfbench::median({1, 2, 3, 4, 5}) - 3.0) < 1e-12,
         "a symmetric sample's median is its middle");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  const double p50 = perfbench::percentile(ramp, 0.50);
  const double p99 = perfbench::percentile(ramp, 0.99);
  expect(std::fabs(p50 - 500.5) < 0.01, "median of 1..1000");
  expect(p99 > 985 && p99 < 995 && p50 < p99, "p99 of 1..1000 near rank 990");
  // A failed request (infinite latency) far above the median leaves it
  // finite; at the top it makes the p99 infinite.
  ramp.back() = std::numeric_limits<double>::infinity();
  expect(std::fabs(perfbench::median(ramp) - 500.5) < 0.01, "median ignores a far outlier");
  expect(std::isinf(perfbench::percentile(std::vector<double>(20, ramp.back()), 0.99)),
         "all-failed p99 is infinite");
}

}  // namespace

int main() {
  test_orders();
  test_stream();
  test_prefix();
  test_percentile();
  if (failures == 0) std::printf("perfbench tests passed\n");
  return failures == 0 ? 0 : 1;
}
