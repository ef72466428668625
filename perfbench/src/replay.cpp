#include "replay.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "bounds/intensity.hpp"
#include "bounds/optimizer.hpp"
#include "bounds/single_statement.hpp"
#include "cachesim/sim.hpp"
#include "schedule/tiling.hpp"
#include "sdg/merge.hpp"
#include "sdg/sdg.hpp"
#include "sdg/subgraph.hpp"
#include "support/sym_map.hpp"
#include "symbolic/expr.hpp"
#include "symbolic/leading.hpp"

namespace perfbench {

using Scope = Tracer::Scope;
namespace sym = soap::sym;

void LayerCounts::sample_live_nodes() {
  live_nodes_peak = std::max<std::uint64_t>(live_nodes_peak,
                                            sym::expr_intern_stats().live_nodes);
}

namespace {

// The reference point multi_statement_bound evaluates intensities and the
// final max() at (sdg/multi_statement.cpp).
constexpr double kReferenceS = 1 << 20;

soap::SymId s_symbol() {
  static const soap::SymId id = soap::intern_symbol("S");
  return id;
}

const soap::SymIdSet& s_only() {
  static const soap::SymIdSet set = soap::SymIdSet::from_unsorted({s_symbol()});
  return set;
}

double eval_all(const sym::Expr& e, double size_value, double s_value) {
  soap::SymMap<double> env;
  for (soap::SymId v : e.symbol_ids()) env.set(v, size_value);
  env.set(s_symbol(), s_value);
  return e.eval(env);
}

struct Evaluated {
  std::vector<std::string> arrays;
  sym::Expr rho;
  double rho_value = 0.0;
};

}  // namespace

std::optional<soap::sdg::MultiStatementBound> traced_bound(
    const soap::Program& program, const soap::sdg::SdgOptions& options,
    Tracer* tracer, LayerCounts& counts) {
  if (program.statements.empty()) return std::nullopt;
  ++counts.derives;

  std::optional<soap::sdg::Sdg> sdg;
  {
    Scope span(tracer, "sdg.build");
    sdg = soap::sdg::Sdg::build(program);
  }

  // The per-subgraph chain, in canonical enumeration order (the serial
  // path of the analyzer's pipeline), with the same per-expression cache
  // of reference evaluations.
  std::vector<Evaluated> evaluated;
  std::unordered_map<sym::Expr, double> rho_values;
  {
    Scope enumerate(tracer, "sdg.enumerate");
    soap::sdg::for_each_subgraph(
        *sdg, options.max_subgraph_size, options.max_subgraphs,
        [&](std::vector<std::string>&& arrays) {
          ++counts.subgraphs;
          std::optional<soap::sdg::MergedSubgraph> merged;
          {
            Scope span(tracer, "sdg.merge");
            merged = soap::sdg::merge_subgraph(*sdg, arrays);
          }
          std::optional<soap::bounds::ChiForm> chi;
          {
            Scope span(tracer, "bounds.derive_chi");
            chi = soap::bounds::derive_chi(merged->problem, {}, options.optimizer);
          }
          ++counts.derive_chi_calls;
          if (!chi) {
            ++counts.unbounded;
            return true;
          }
          switch (chi->solve_code) {
            case soap::bounds::opt::ResultCode::kSuccess: ++counts.solve_success; break;
            case soap::bounds::opt::ResultCode::kNoConverge: ++counts.solve_no_converge; break;
            case soap::bounds::opt::ResultCode::kStopReached: ++counts.solve_stop_reached; break;
            case soap::bounds::opt::ResultCode::kInfeasible: break;
          }
          std::optional<soap::bounds::IntensityResult> in;
          {
            Scope span(tracer, "bounds.intensity");
            in = soap::bounds::minimize_intensity(*chi);
          }
          double value = 0.0;
          {
            Scope span(tracer, "symbolic.eval");
            const auto it = rho_values.find(in->rho);
            value = it != rho_values.end()
                        ? it->second
                        : rho_values.emplace(in->rho, eval_all(in->rho, 1.0, kReferenceS))
                              .first->second;
          }
          if (std::isfinite(value) && value > 0) {
            evaluated.push_back({std::move(arrays), in->rho, value});
          }
          return true;
        });
  }

  soap::sdg::MultiStatementBound out;
  out.subgraphs_evaluated = evaluated.size();

  std::unordered_map<std::string, const Evaluated*> best_for;
  {
    Scope span(tracer, "sdg.reduce");
    for (const Evaluated& e : evaluated) {
      for (const std::string& array : e.arrays) {
        auto [it, inserted] = best_for.try_emplace(array, &e);
        if (!inserted && e.rho_value > it->second->rho_value) it->second = &e;
      }
    }
  }
  std::set<const Evaluated*> chosen;
  for (const auto& [array, best] : best_for) chosen.insert(best);
  counts.useful += chosen.size();

  Scope leading(tracer, "symbolic.leading");
  sym::ExprVec q_sdg_terms;
  for (const std::string& array : sdg->computed_arrays()) {
    const auto it = best_for.find(array);
    const Evaluated* best = it == best_for.end() ? nullptr : it->second;
    soap::sdg::ArrayBound ab;
    ab.array = array;
    ab.cdag_size = sym::leading_term_except(program.array_cdag_size(array), s_only());
    if (best == nullptr) {
      ab.rho = sym::Expr(0);
      out.per_array.push_back(std::move(ab));
      continue;
    }
    ab.rho = best->rho;
    ab.rho_value = best->rho_value;
    ab.best_subgraph = best->arrays;
    q_sdg_terms.push_back(ab.cdag_size / best->rho);
    out.per_array.push_back(std::move(ab));
  }
  out.Q_sdg = sym::leading_term_except(sym::make_add(std::move(q_sdg_terms)), s_only());

  sym::ExprVec q_cold_terms;
  for (const std::string& a : program.input_arrays()) {
    q_cold_terms.push_back(program.array_element_count(a));
  }
  for (const std::string& a : program.terminal_arrays()) {
    q_cold_terms.push_back(program.array_element_count(a));
  }
  out.Q_cold = sym::leading_term_except(sym::make_add(std::move(q_cold_terms)), s_only());

  const double sdg_val = eval_all(out.Q_sdg, 1e7, kReferenceS);
  const double cold_val = eval_all(out.Q_cold, 1e7, kReferenceS);
  out.Q_leading =
      options.use_cold_bound && cold_val > sdg_val ? out.Q_cold : out.Q_sdg;
  counts.sample_live_nodes();
  return out;
}

soap::analysis::AttainmentRow traced_row(const soap::kernels::KernelEntry& entry,
                                         long long S, Tracer* tracer,
                                         LayerCounts& counts) {
  std::optional<soap::Program> program;
  {
    Scope span(tracer, "frontend.parse");
    program = entry.build();
  }
  ++counts.parses;
  soap::analysis::AttainmentRow row;
  row.kernel = entry.name;
  row.family = entry.family;
  row.S = S;
  row.statements = program->statements.size();
  row.fused = row.statements > 1;
  row.params = soap::analysis::default_params(entry);

  std::optional<soap::sdg::MultiStatementBound> bound;
  {
    Scope span(tracer, "analysis.derive");
    soap::sdg::SdgOptions options = entry.options;
    options.threads = 1;
    bound = traced_bound(*program, options, tracer, counts);
  }
  if (!bound) throw std::runtime_error("attainment: no bound for " + entry.name);
  row.degraded = bound->degraded;
  {
    Scope span(tracer, "symbolic.eval");
    std::map<std::string, double> env;
    env["S"] = static_cast<double>(S);
    for (const auto& [k, v] : row.params) env[k] = static_cast<double>(v);
    row.Q_lb = bound->Q_leading.eval(env);
  }

  for (const soap::Statement& st : program->statements) {
    std::map<std::string, long long> tiles;
    std::optional<soap::bounds::IoLowerBound> sb;
    {
      Scope span(tracer, "bounds.single");
      sb = soap::bounds::single_statement_bound(st);
    }
    if (sb) {
      Scope span(tracer, "schedule.tiles");
      tiles = soap::schedule::concrete_tiles(st, *sb, S, row.params);
    }
    Scope span(tracer, "cachesim.measure");
    const soap::cachesim::Measurement m = soap::cachesim::measure_statement(
        st, row.params, tiles, static_cast<std::size_t>(S));
    row.Q_sim_lru += m.lru.io();
    row.Q_sim_belady += m.belady.io();
    row.trace_length += m.trace_length;
    row.footprint += m.footprint;
  }
  counts.cachesim_accesses += row.trace_length;
  return row;
}

void report_layers(const Tracer& tracer, const LayerCounts& counts, double direct_ms,
                   std::uint64_t interned, std::map<std::string, double>& out) {
  const std::map<std::string, double> self = tracer.self_ms();
  const auto get = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  // Coverage: self time of the layer spans inside replayed items; overhead:
  // the replayed items' whole time; both over the direct calls' time.
  double layer_ms = 0.0;
  double item_ms = 0.0;
  for (const Span& span : tracer.spans()) {
    const double ms = static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    if (span.parent == 0 && std::strcmp(span.name, "item") == 0) item_ms += ms;
  }
  for (const auto& [name, ms] : self) {
    if (name != "item" && name.rfind("support.", 0) != 0) layer_ms += ms;
  }
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  out["bounds.derive_chi_ms"] = get("bounds.derive_chi");
  out["bounds.derive_chi_calls"] = count(counts.derive_chi_calls);
  out["bounds.unbounded"] = count(counts.unbounded);
  out["bounds.intensity_ms"] = get("bounds.intensity");
  out["bounds.share"] = get("bounds.derive_chi") / direct_ms;
  out["bounds.solve_success"] = count(counts.solve_success);
  out["bounds.solve_no_converge"] = count(counts.solve_no_converge);
  out["bounds.solve_stop_reached"] = count(counts.solve_stop_reached);
  out["sdg.build_ms"] = get("sdg.build");
  out["sdg.enumerate_ms"] = get("sdg.enumerate");
  out["sdg.subgraphs"] = count(counts.subgraphs);
  out["sdg.merge_ms"] = get("sdg.merge");
  out["sdg.useful_frac"] =
      counts.subgraphs == 0 ? 0.0 : count(counts.useful) / count(counts.subgraphs);
  out["symbolic.leading_ms"] = get("symbolic.leading");
  out["symbolic.eval_ms"] = get("symbolic.eval");
  out["symbolic.live_nodes_peak"] = count(counts.live_nodes_peak);
  out["symbolic.interned"] = count(interned);
  out["symbolic.arena_mb"] = static_cast<double>(sym::expr_intern_stats().arena_bytes) / 1e6;
  out["frontend.parse_ms"] = get("frontend.parse");
  out["frontend.parses"] = count(counts.parses);
  out["trace.coverage"] = layer_ms / direct_ms;
  out["trace.overhead_frac"] = item_ms / direct_ms;
}

bool same_bound(const soap::sdg::MultiStatementBound& a,
                const soap::sdg::MultiStatementBound& b) {
  if (a.Q_leading != b.Q_leading || a.Q_sdg != b.Q_sdg || a.Q_cold != b.Q_cold ||
      a.subgraphs_evaluated != b.subgraphs_evaluated || a.degraded != b.degraded ||
      a.per_array.size() != b.per_array.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_array.size(); ++i) {
    const soap::sdg::ArrayBound& x = a.per_array[i];
    const soap::sdg::ArrayBound& y = b.per_array[i];
    if (x.array != y.array || x.cdag_size != y.cdag_size || x.rho != y.rho ||
        std::memcmp(&x.rho_value, &y.rho_value, sizeof(double)) != 0 ||
        x.best_subgraph != y.best_subgraph) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
