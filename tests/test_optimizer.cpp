#include "bounds/optimizer.hpp"
#include <cmath>

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "bounds/opt/backend.hpp"
#include "bounds/opt/evaluator.hpp"
#include "bounds/opt/types.hpp"
#include "bounds/single_statement.hpp"
#include "frontend/lower.hpp"
#include "support/cancel.hpp"

namespace soap::bounds {
namespace {

OptimizationProblem problem_of(const std::string& source) {
  Program p = frontend::parse_program(source);
  return statement_problem(p.statements[0]);
}

TEST(DeriveChi, GemmClosedForm) {
  auto chi = derive_chi(problem_of(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)"));
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(3, 2));
  // c = (1/3)^{3/2} = sqrt(3)/9.
  EXPECT_TRUE(chi->coefficient_exact);
  EXPECT_NEAR(chi->coefficient_num, std::pow(1.0 / 3.0, 1.5), 1e-9);
  // Balanced exponents.
  EXPECT_EQ(chi->exponents.at("i"), Rational(1, 2));
  EXPECT_EQ(chi->exponents.at("j"), Rational(1, 2));
  EXPECT_EQ(chi->exponents.at("k"), Rational(1, 2));
}

TEST(DeriveChi, Jacobi1dShiftedQuadratic) {
  auto chi = derive_chi(problem_of(R"(
for t in range(T):
  for i in range(1, N - 1):
    A[i,t+1] = A[i-1,t] + A[i,t] + A[i+1,t]
)"));
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(2));
  EXPECT_TRUE(chi->coefficient_exact);
  EXPECT_NEAR(chi->coefficient_num, 0.125, 1e-9);  // chi = (X+2)^2 / 8
}

TEST(DeriveChi, Heat3dFourThirds) {
  auto chi = derive_chi(problem_of(R"(
for t in range(T):
  for i in range(1, N-1):
    for j in range(1, N-1):
      for k in range(1, N-1):
        A[i,j,k,t+1] = A[i,j,k,t] + A[i-1,j,k,t] + A[i+1,j,k,t] + A[i,j-1,k,t] + A[i,j+1,k,t] + A[i,j,k-1,t] + A[i,j,k+1,t]
)"));
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(4, 3));
  EXPECT_TRUE(chi->coefficient_exact);
  // chi = (X/4)^{4/3}/2.
  EXPECT_NEAR(chi->coefficient_num, std::pow(0.25, 4.0 / 3.0) / 2.0, 1e-7);
  // Optimal time tile is half the spatial tile.
  EXPECT_NEAR(chi->tile_coeffs.at("t") / chi->tile_coeffs.at("i"), 0.5, 1e-6);
}

TEST(DeriveChi, UnboundedReuseReturnsNullopt) {
  // Variable r appears in no access: chi is unbounded.
  auto chi = derive_chi(problem_of(R"(
for i in range(N):
  for r in range(R):
    y[i] = x[i]
)"));
  EXPECT_FALSE(chi);
}

TEST(DeriveChi, StreamingAlphaOne) {
  auto chi = derive_chi(problem_of(R"(
for i in range(N):
  y[i] = x[i]
)"));
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(1));
  EXPECT_NEAR(chi->coefficient_num, 1.0, 1e-6);
}

TEST(DeriveChi, SumObjectiveDoublesConstant) {
  // Two statements sharing the same loads: chi = 2xy with xy <= X.
  OptimizationProblem p;
  p.vars = {"i", "j"};
  AccessTerm shared;
  shared.array = "A";
  shared.kind = TermKind::kPlain;
  shared.dims = {{DimSpec::Mode::kProduct, {"i"}, 0},
                 {DimSpec::Mode::kProduct, {"j"}, 0}};
  p.sum_terms = {shared};
  ObjectiveMonomial m;
  m.degrees = {{"i", 1}, {"j", 1}};
  m.coeff = 2;
  p.objective = {m};
  auto chi = derive_chi(p);
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->alpha, Rational(1));
  EXPECT_NEAR(chi->coefficient_num, 2.0, 1e-6);
}

TEST(MaximizeSubcomputation, RespectsBudget) {
  OptimizationProblem p = problem_of(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
  double X = 3e4;
  NumericOptimum opt = maximize_subcomputation(p, X);
  double used = 0;
  for (const AccessTerm& t : p.sum_terms) used += t.eval(opt.tiles);
  EXPECT_LE(used, X * (1.0 + 1e-6));
  // chi(X) = (X/3)^{3/2} for gemm.
  EXPECT_NEAR(opt.chi, std::pow(X / 3.0, 1.5), 0.01 * std::pow(X / 3.0, 1.5));
}

TEST(MaximizeSubcomputation, MinimumSetConstraintBinds) {
  // Outer product C[i,j] = A[i]*B[j]: the output tile x_i x_j <= X binds.
  OptimizationProblem p = problem_of(R"(
for i in range(N):
  for j in range(N):
    C[i,j] = A[i] * B[j]
)");
  ASSERT_EQ(p.single_terms.size(), 1u);
  double X = 1e4;
  NumericOptimum opt = maximize_subcomputation(p, X);
  EXPECT_LE(p.single_terms[0].eval(opt.tiles), X * (1.0 + 1e-6));
  EXPECT_NEAR(opt.chi, X, 0.02 * X);  // chi ~ X (output-bound)
}

class ChiMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(ChiMonotonicity, ChiGrowsWithBudget) {
  OptimizationProblem p = problem_of(R"(
for t in range(T):
  for i in range(1, N - 1):
    for j in range(1, N - 1):
      A[i,j,t+1] = A[i,j,t] + A[i-1,j,t] + A[i+1,j,t] + A[i,j-1,t] + A[i,j+1,t]
)");
  double X = GetParam();
  NumericOptimum lo = maximize_subcomputation(p, X);
  NumericOptimum hi = maximize_subcomputation(p, 2 * X);
  EXPECT_GT(hi.chi, lo.chi);
}

INSTANTIATE_TEST_SUITE_P(Budgets, ChiMonotonicity,
                         ::testing::Values(1e3, 1e4, 1e5, 1e6));

// ---------------------------------------------------------------------------
// The backend interface (bounds/opt): result codes, the shared feasibility
// projection, and the surfacing of non-convergence and stop trips.
// ---------------------------------------------------------------------------

OptimizationProblem gemm_problem() {
  return problem_of(R"(
for i in range(N):
  for j in range(N):
    for k in range(N):
      C[i,j] += A[i,k] * B[k,j]
)");
}

/// Total budget use of a tile assignment: sum of the sum terms (the
/// dominator constraint's left-hand side).
double budget_use(const OptimizationProblem& p,
                  const std::map<std::string, double>& tiles) {
  double used = 0.0;
  for (const AccessTerm& t : p.sum_terms) used += t.eval(tiles);
  return used;
}

TEST(ResultCodes, NamesSeverityAndParsing) {
  using opt::ResultCode;
  EXPECT_STREQ(opt::result_code_name(ResultCode::kSuccess), "success");
  EXPECT_STREQ(opt::result_code_name(ResultCode::kStopReached),
               "stop_reached");
  EXPECT_STREQ(opt::result_code_name(ResultCode::kNoConverge), "no_converge");
  EXPECT_STREQ(opt::result_code_name(ResultCode::kInfeasible), "infeasible");
  // worst() keeps the more severe code regardless of argument order.
  EXPECT_EQ(opt::worst(ResultCode::kSuccess, ResultCode::kNoConverge),
            ResultCode::kNoConverge);
  EXPECT_EQ(opt::worst(ResultCode::kInfeasible, ResultCode::kStopReached),
            ResultCode::kInfeasible);
  EXPECT_EQ(opt::worst(ResultCode::kSuccess, ResultCode::kSuccess),
            ResultCode::kSuccess);
  // Backend names round-trip through the parser; unknown names fail with a
  // reason that lists the valid spellings.
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    EXPECT_EQ(opt::parse_backend_name(opt::backend_name(kind)), kind);
    EXPECT_EQ(opt::backend(kind).name(), opt::backend_name(kind));
  }
  std::string reason;
  EXPECT_FALSE(opt::parse_backend_name("bogus", &reason));
  EXPECT_NE(reason.find("bogus"), std::string::npos);
  EXPECT_NE(reason.find("nelder_mead"), std::string::npos);
}

TEST(ProjectFeasible, ProjectedPointSatisfiesEveryConstraint) {
  OptimizationProblem p = gemm_problem();
  const double X = 3e4;
  // A wildly infeasible start: every tile far beyond the budget.
  std::map<std::string, double> tiles{{"i", 1e12}, {"j", 3e11}, {"k", 7e10}};
  auto proj = opt::project_feasible(p, tiles, X);
  ASSERT_TRUE(proj);
  EXPECT_LE(budget_use(p, *proj), X * (1.0 + 1e-9));
  for (const AccessTerm& t : p.single_terms) {
    EXPECT_LE(t.eval(*proj), X * (1.0 + 1e-9));
  }
  for (const auto& [var, v] : *proj) {
    EXPECT_GE(v, 1.0) << var;  // the paper's |D_t| >= 1
  }
  // The projection lands on the budget surface, not merely inside it.
  EXPECT_GE(budget_use(p, *proj), X * (1.0 - 1e-6));
}

TEST(ProjectFeasible, ReprojectionIsIdempotent) {
  OptimizationProblem p = gemm_problem();
  const double X = 1e6;
  std::map<std::string, double> tiles{{"i", 5e7}, {"j", 5e7}, {"k", 2e3}};
  auto once = opt::project_feasible(p, tiles, X);
  ASSERT_TRUE(once);
  auto twice = opt::project_feasible(p, *once, X);
  ASSERT_TRUE(twice);
  for (const auto& [var, v] : *once) {
    EXPECT_NEAR(twice->at(var), v, 1e-6 * v) << var;
  }
}

TEST(ProjectFeasible, HonorsExplicitVarBounds) {
  OptimizationProblem p = gemm_problem();
  const double X = 3e4;
  // Cap every tile at 4: the projection must respect the caps and still
  // satisfy the budget (the capped point is trivially feasible here).
  std::vector<opt::VarBound> bounds(3, opt::VarBound{2.0, 4.0});
  std::map<std::string, double> tiles{{"i", 1e9}, {"j", 1e9}, {"k", 1e9}};
  auto proj = opt::project_feasible(p, tiles, X, bounds);
  ASSERT_TRUE(proj);
  for (const auto& [var, v] : *proj) {
    EXPECT_GE(v, 2.0) << var;
    EXPECT_LE(v, 4.0) << var;
  }
  EXPECT_LE(budget_use(p, *proj), X * (1.0 + 1e-9));
}

TEST(ProjectFeasible, InfeasibleProblemReturnsNullopt) {
  OptimizationProblem p = gemm_problem();
  // Even the all-lower-bound point blows the budget: no feasible point.
  std::vector<opt::VarBound> bounds(3, opt::VarBound{1e6, 1e9});
  std::map<std::string, double> tiles{{"i", 1e6}, {"j", 1e6}, {"k", 1e6}};
  EXPECT_FALSE(opt::project_feasible(p, tiles, 10.0, bounds));
}

TEST(ProjectFeasible, MissingTileVariableThrows) {
  OptimizationProblem p = gemm_problem();
  std::map<std::string, double> tiles{{"i", 10.0}, {"j", 10.0}};  // no "k"
  EXPECT_THROW(opt::project_feasible(p, tiles, 1e4), std::out_of_range);
}

TEST(OptimizerBackend, HealthySolveReportsSuccess) {
  OptimizationProblem p = gemm_problem();
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    opt::SolveRequest request;
    request.X = 3e4;
    opt::SolveResult result = opt::backend(kind).solve(p, request);
    EXPECT_EQ(result.code, opt::ResultCode::kSuccess)
        << opt::backend_name(kind);
    EXPECT_GT(result.optimum.chi, 0.0) << opt::backend_name(kind);
  }
}

TEST(OptimizerBackend, IterationStarvationSurfacesNoConverge) {
  // The hostile configuration: one iteration per local search cannot meet
  // the convergence tolerance.  Before the backend interface this fell
  // through silently; now every backend reports kNoConverge while still
  // returning the best point it found.
  OptimizationProblem p = gemm_problem();
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    opt::SolveRequest request;
    request.X = 3e4;
    request.max_iterations = 1;
    opt::SolveResult result = opt::backend(kind).solve(p, request);
    EXPECT_EQ(result.code, opt::ResultCode::kNoConverge)
        << opt::backend_name(kind);
    // The best-so-far point is still populated and feasible.
    EXPECT_GT(result.optimum.chi, 0.0) << opt::backend_name(kind);
    EXPECT_LE(budget_use(p, result.optimum.tiles), 3e4 * (1.0 + 1e-6))
        << opt::backend_name(kind);
  }
}

TEST(OptimizerBackend, EvalBudgetSurfacesStopReachedWithoutThrowing) {
  OptimizationProblem p = gemm_problem();
  support::StopCriteria stop;
  stop.budget.max_solver_evals = 10;
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    opt::EvalGuard guard{&stop, 0};
    opt::SolveRequest request;
    request.X = 3e4;
    request.guard = &guard;
    opt::SolveResult result = opt::backend(kind).solve(p, request);
    EXPECT_EQ(result.code, opt::ResultCode::kStopReached)
        << opt::backend_name(kind);
    ASSERT_TRUE(result.stop_error.has_value()) << opt::backend_name(kind);
    EXPECT_EQ(result.stop_error->code(), support::StatusCode::kBudgetExceeded)
        << opt::backend_name(kind);
  }
}

TEST(OptimizerBackend, EvaluationsAreCountedPerSolveWithoutStopCriteria) {
  // derive_chi's default setup: one guard without StopCriteria, shared by
  // the derivation's solves (the per-derivation budget reads its ticks).
  // Every solve still counts, and reports only its own evaluations.
  OptimizationProblem p = gemm_problem();
  for (opt::BackendKind kind :
       {opt::BackendKind::kNelderMead, opt::BackendKind::kMultistart,
        opt::BackendKind::kSubplex}) {
    const opt::OptimizerBackend& be = opt::backend(kind);
    opt::EvalGuard shared;
    opt::SolveRequest lo;
    lo.X = 1e4;
    lo.guard = &shared;
    opt::SolveRequest hi = lo;
    hi.X = 1e6;
    const opt::SolveResult first = be.solve(p, lo);
    const opt::SolveResult second = be.solve(p, hi);
    EXPECT_GT(first.evaluations, 0u) << opt::backend_name(kind);
    EXPECT_GT(second.evaluations, 0u) << opt::backend_name(kind);
    EXPECT_EQ(shared.ticks, first.evaluations + second.evaluations)
        << opt::backend_name(kind);
    // Independent counts: the second solve reports what it performs alone.
    opt::SolveRequest alone = hi;
    alone.guard = nullptr;
    EXPECT_EQ(second.evaluations, be.solve(p, alone).evaluations)
        << opt::backend_name(kind);
  }
}

TEST(DeriveChi, RecordsHealthySolveCode) {
  auto chi = derive_chi(gemm_problem());
  ASSERT_TRUE(chi);
  EXPECT_EQ(chi->solve_code, opt::ResultCode::kSuccess);
}

// ---------------------------------------------------------------------------
// The chi fit's hot path: the feasibility bisection and the work counter.
// ---------------------------------------------------------------------------

// feasible_scale with a fixed 200 halvings, as it ran before it learned to
// stop once the bracket stops moving.  The early stop must not change a bit.
double reference_scale(const opt::Evaluator& ev, const std::vector<double>& x,
                       double X, const opt::BoundsView& bv) {
  std::vector<double> tiles(x.size());
  auto feasible = [&](double m) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      tiles[i] = bv.clamp(i, m * x[i]);
    }
    return ev.utilization(tiles, X) <= 1.0;
  };
  if (!feasible(1e-12)) return 0.0;
  double lo = 1e-12, hi = 1.0;
  while (feasible(hi) && hi < 1e18) {
    lo = hi;
    hi *= 4.0;
  }
  for (int it = 0; it < 200; ++it) {
    double mid = 0.5 * (lo + hi);
    (feasible(mid) ? lo : hi) = mid;
  }
  return lo;
}

void expect_scale_matches_reference(const OptimizationProblem& p,
                                    const std::vector<opt::VarBound>& bounds,
                                    std::uint64_t seed) {
  const opt::Evaluator ev(p);
  const opt::BoundsView bv = opt::BoundsView::make(p.vars.size(), bounds);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> log_tile(-3.0, 6.0);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(p.vars.size());
    for (double& xi : x) xi = std::pow(10.0, log_tile(rng));
    for (double X : {10.0, 3e4, 1e7}) {
      const double got = opt::feasible_scale(ev, x, X, bv);
      const double want = reference_scale(ev, x, X, bv);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "trial " << trial << " X " << X << ": " << got << " vs " << want;
    }
  }
}

TEST(FeasibleScale, BitIdenticalToFixedBisectionOnStencil) {
  expect_scale_matches_reference(problem_of(R"(
for t in range(T):
  for i in range(1, N - 1):
    A[i,t+1] = A[i-1,t] + A[i,t] + A[i+1,t]
)"),
                                 {}, 7);
}

TEST(FeasibleScale, BitIdenticalToFixedBisectionOnGemm) {
  expect_scale_matches_reference(gemm_problem(), {}, 11);
}

TEST(FeasibleScale, BitIdenticalToFixedBisectionAtTheScaleCap) {
  // Tiles capped at 4 never exhaust X >= 10: the scale runs into its 1e18
  // cap with hi itself feasible, so the last halvings land on hi.
  expect_scale_matches_reference(gemm_problem(),
                                 std::vector<opt::VarBound>(3, {1.0, 4.0}), 13);
}

TEST(OptimizerBackend, NelderMeadEvaluationCountIsPinned) {
  // A deterministic work counter for the default solve: one tick per
  // Nelder-Mead evaluation and per KKT polish iteration.  It moves only when
  // the search itself changes.  Before the hot-path cut it was 356: the
  // polish also spent a tick per iteration on a discarded objective.
  opt::SolveRequest request;
  request.X = 3e4;
  const opt::SolveResult result =
      opt::backend(opt::BackendKind::kNelderMead).solve(gemm_problem(), request);
  EXPECT_EQ(result.code, opt::ResultCode::kSuccess);
  EXPECT_EQ(result.evaluations, 294u);
}

}  // namespace
}  // namespace soap::bounds
