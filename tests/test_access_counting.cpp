// Machine-checks the combinatorial heart of the paper: the access-set size
// formulas (Lemma 3 / Corollary 1) and the dominator-set bound
// |Dom_min(H_rec)| >= sum_j |A_j| against brute-force enumeration on
// explicit CDAGs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "bounds/access_size.hpp"
#include "frontend/lower.hpp"
#include "pebbles/dominator.hpp"
#include "pebbles/instantiate.hpp"
#include "soap/projection.hpp"

namespace soap {
namespace {

using bounds::AccessTerm;
using bounds::analyze_statement;

// Distinct elements of `array` touched when executing `st` over the
// rectangular tile given by [0, tile[var]) per variable.
long long brute_force_access_count(
    const Statement& st, const std::string& array,
    const std::map<std::string, long long>& tile) {
  std::set<std::vector<long long>> seen;
  std::vector<std::string> vars = st.domain.variables();
  std::map<std::string, Rational> env;
  std::function<void(std::size_t)> rec = [&](std::size_t depth) {
    if (depth == vars.size()) {
      for (const ArrayAccess& in : st.inputs) {
        if (in.array != array) continue;
        for (const AccessComponent& comp : in.components) {
          std::vector<long long> idx;
          for (const Affine& a : comp.index) {
            idx.push_back(static_cast<long long>(a.eval(env).floor()));
          }
          seen.insert(std::move(idx));
        }
      }
      return;
    }
    for (long long v = 0; v < tile.at(vars[depth]); ++v) {
      env[vars[depth]] = Rational(v);
      rec(depth + 1);
    }
  };
  rec(0);
  return static_cast<long long>(seen.size());
}

Statement stencil_statement(int left, int right) {
  // B[i,t] = f(A[i-left..i+right, t], A[i, t-1]) over a 2D nest.
  Statement st;
  st.name = "stencil";
  Affine i = Affine::variable("i"), t = Affine::variable("t");
  st.domain = Domain({{"t", 0, Affine::variable("T")},
                      {"i", 0, Affine::variable("N")}});
  st.output = {"B", {{{i, t}}}};
  ArrayAccess a;
  a.array = "A";
  for (int o = -left; o <= right; ++o) {
    a.components.push_back({{i + Affine(o), t}});
  }
  a.components.push_back({{i, t - Affine(1)}});
  st.inputs = {a};
  return st;
}

class Lemma3LowerBound
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Lemma3LowerBound, FormulaNeverExceedsTrueAccessCount) {
  auto [left, right, ti, tt] = GetParam();
  Statement st = stencil_statement(left, right);
  auto analysis = analyze_statement(st);
  ASSERT_EQ(analysis.input_terms.size(), 1u);
  const AccessTerm& term = analysis.input_terms[0];
  std::map<std::string, long long> tile = {{"i", ti}, {"t", tt}};
  std::map<std::string, double> tile_d = {{"i", static_cast<double>(ti)},
                                          {"t", static_cast<double>(tt)}};
  double formula = term.eval(tile_d);
  long long actual = brute_force_access_count(st, "A", tile);
  EXPECT_LE(formula, static_cast<double>(actual) + 1e-9)
      << "offsets [-" << left << "," << right << "] tile " << ti << "x" << tt;
}

INSTANTIATE_TEST_SUITE_P(
    OffsetsAndTiles, Lemma3LowerBound,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 4, 7),
                       ::testing::Values(1, 3, 5)));

TEST(Lemma3, ExactForContiguousStencil) {
  // For the 3-point stencil the paper's bound 2*e_i*e_t - (e_i-2)(e_t-1) is
  // attained by the antipodal arrangement; the natural contiguous placement
  // accesses (e_i + 2) * e_t + e_i (halo + next-t row), strictly more.
  Statement st = stencil_statement(1, 1);
  auto analysis = analyze_statement(st);
  const AccessTerm& term = analysis.input_terms[0];
  double formula = term.eval({{"i", 4.0}, {"t", 3.0}});
  // 2*4*3 - (4-2)*(3-1) = 24 - 4 = 20.
  EXPECT_DOUBLE_EQ(formula, 20.0);
}

TEST(Corollary1, VersionedUpdateCountsProduct) {
  // C[i,j] += ... : the version-dimension projection counts x_i * x_j.
  Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
  Statement split = split_disjoint_accesses(p.statements[0]);
  auto analysis = analyze_statement(split);
  const AccessTerm* c_term = nullptr;
  for (const auto& t : analysis.input_terms) {
    if (t.array == "C") c_term = &t;
  }
  ASSERT_NE(c_term, nullptr);
  EXPECT_EQ(c_term->kind, bounds::TermKind::kInputOutput);
  EXPECT_DOUBLE_EQ(c_term->eval({{"i", 5.0}, {"j", 7.0}, {"k", 3.0}}), 35.0);
}

TEST(DominatorBound, AccessSetsFormADominator) {
  // The union of the access sets is itself a dominator of H (every path from
  // an input enters H through an accessed vertex), so the true minimum
  // dominator never exceeds sum_j |A_j(tile)|; it is also at least |Min(H)|
  // of the slab's final updates.
  Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
  const long long n = 3;
  auto detail = pebbles::instantiate_detailed(p, {{"N", n}});
  Statement split = split_disjoint_accesses(p.statements[0]);
  auto analysis = analyze_statement(split);
  for (long long kmax = 1; kmax <= n; ++kmax) {
    std::vector<std::size_t> H;
    for (const auto& [v, iter] : detail.iteration_of) {
      if (iter[2] < kmax) H.push_back(v);  // iteration vector (i, j, k)
    }
    double analytic = 0;
    std::map<std::string, double> tile = {{"i", double(n)},
                                          {"j", double(n)},
                                          {"k", double(kmax)}};
    for (const auto& t : analysis.input_terms) analytic += t.eval(tile);
    long long dom = pebbles::min_dominator_size(detail.cdag, H);
    EXPECT_LE(static_cast<double>(dom), analytic + 1e-9) << "kmax=" << kmax;
    EXPECT_GE(dom, static_cast<long long>(
                       pebbles::minimum_set(detail.cdag, H).size()) == 0
                  ? 1
                  : 1)
        << "kmax=" << kmax;
    EXPECT_GT(dom, 0) << "kmax=" << kmax;
  }
}

TEST(MinimumSet, OutputTermBoundsMinSet) {
  Program p = frontend::parse_program(R"(
for i in range(N):
  for j in range(N):
    C[i,j] = A[i] * B[j]
)");
  auto detail = pebbles::instantiate_detailed(p, {{"N", 4}});
  std::vector<std::size_t> H;
  for (const auto& [v, iter] : detail.iteration_of) H.push_back(v);
  auto min_set = pebbles::minimum_set(detail.cdag, H);
  // Every computed vertex is a sink here: Min(H) = 16 = x_i * x_j.
  EXPECT_EQ(min_set.size(), 16u);
  auto analysis = analyze_statement(p.statements[0]);
  ASSERT_EQ(analysis.output_terms.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.output_terms[0].eval({{"i", 4.0}, {"j", 4.0}}),
                   16.0);
}

TEST(SignedMonomials, MatchEvalOnRandomTiles) {
  Statement st = stencil_statement(1, 1);
  auto analysis = analyze_statement(st);
  const AccessTerm& term = analysis.input_terms[0];
  auto monos = term.signed_monomials();
  for (double xi : {1.0, 3.0, 8.0}) {
    for (double xt : {1.0, 2.0, 9.0}) {
      double direct = term.eval({{"i", xi}, {"t", xt}});
      double summed = 0;
      for (const auto& m : monos) {
        double v = m.coeff.to_double();
        for (const auto& [var, d] : m.degrees) {
          v *= std::pow(var == "i" ? xi : xt, d);
        }
        summed += v;
      }
      EXPECT_NEAR(direct, summed, 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// combine_access_extents, the chi fit's innermost combiner, against exact
// rational arithmetic.
// ---------------------------------------------------------------------------

using bounds::TermKind;

// |A| from integer extents and offsets, in exact arithmetic: the naive
// prod(e) - prod(e - c) that the double combiner must not evaluate directly.
Rational exact_combined(TermKind kind, const std::vector<long long>& e,
                        const std::vector<long long>& c) {
  Rational prod = 1;
  Rational minus = 1;
  bool any_offset = false;
  for (std::size_t i = 0; i < e.size(); ++i) {
    prod *= Rational(e[i]);
    minus *= Rational(e[i] - c[i]);
    if (c[i] > 0) any_offset = true;
  }
  switch (kind) {
    case TermKind::kPlain:
      return any_offset ? Rational(2) * prod - minus : prod;
    case TermKind::kInputOutput:
      return prod - minus;
    case TermKind::kVersioned:
    case TermKind::kOutput:
      return prod;
  }
  throw std::logic_error("exact_combined: bad kind");
}

double combined(TermKind kind, const std::vector<long long>& e,
                const std::vector<long long>& c) {
  std::vector<double> ed(e.begin(), e.end());
  std::vector<double> cd(c.begin(), c.end());
  return bounds::combine_access_extents(kind, ed.data(), cd.data(), e.size());
}

constexpr TermKind kAllKinds[] = {TermKind::kPlain, TermKind::kInputOutput,
                                  TermKind::kVersioned, TermKind::kOutput};

TEST(CombineAccessExtents, MatchesExactArithmeticOnRandomExtents) {
  std::mt19937_64 rng(20210704);
  std::uniform_int_distribution<int> dims(1, 6);
  std::uniform_int_distribution<long long> offset(0, 3);
  std::uniform_int_distribution<long long> extent(0, 1000);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = dims(rng);
    std::vector<long long> e(n);
    std::vector<long long> c(n);
    for (int i = 0; i < n; ++i) {
      c[i] = offset(rng);
      e[i] = std::max(c[i], 1LL) + extent(rng);
    }
    for (TermKind kind : kAllKinds) {
      const double want = exact_combined(kind, e, c).to_double();
      EXPECT_LE(std::fabs(combined(kind, e, c) - want),
                1e-12 * std::fabs(want))
          << "trial " << trial << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(CombineAccessExtents, NoCancellationWhenOffsetsAreTinyAgainstExtents) {
  // e = 1e6, c = 1: prod(e) - prod(e - c) is ~n * 1e30 next to prod(e) =
  // 1e36, which a naive double difference cannot resolve.
  for (std::size_t n = 1; n <= 6; ++n) {
    const std::vector<long long> e(n, 1000000);
    const std::vector<long long> c(n, 1);
    for (TermKind kind : kAllKinds) {
      const double want = exact_combined(kind, e, c).to_double();
      EXPECT_LE(std::fabs(combined(kind, e, c) - want),
                1e-12 * std::fabs(want))
          << "n " << n << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(CombineAccessExtents, TwentyDimsIsTheCap) {
  // 2^20 - 1^20 and 2 * 2^20 - 1, both exact in doubles.
  const std::vector<long long> e(20, 2);
  const std::vector<long long> c(20, 1);
  EXPECT_EQ(combined(TermKind::kInputOutput, e, c), 1048575.0);
  EXPECT_EQ(combined(TermKind::kPlain, e, c), 2097151.0);
  const std::vector<long long> e21(21, 2);
  const std::vector<long long> c21(21, 1);
  EXPECT_THROW(combined(TermKind::kPlain, e21, c21), std::logic_error);
}

}  // namespace
}  // namespace soap
