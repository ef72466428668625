// The traced replay: the analyzer's multi-statement derivation and the
// attainment row, re-composed here from each layer's public functions so
// that every call into a layer is a span (sdg::Sdg::build,
// for_each_subgraph, merge_subgraph, bounds::derive_chi,
// minimize_intensity, sym::leading_term_except, ...).  The replay computes
// the same result as the direct call — the corpus run checks each replayed
// derivation bit for bit — so its spans measure the program the untraced
// run times.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/attainment.hpp"
#include "kernels/registry.hpp"
#include "sdg/multi_statement.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work counters recorded at the same layer boundaries as the spans.
struct LayerCounts {
  std::uint64_t parses = 0;            ///< frontend programs built
  std::uint64_t subgraphs = 0;         ///< subgraphs enumerated
  std::uint64_t evaluated = 0;         ///< subgraphs with a finite rho
  std::uint64_t useful = 0;            ///< distinct best_subgraphs chosen
  std::uint64_t derive_chi_calls = 0;
  std::uint64_t unbounded = 0;         ///< derive_chi returned no chi
  std::uint64_t solve_success = 0;
  std::uint64_t solve_no_converge = 0;
  std::uint64_t solve_stop_reached = 0;
  std::uint64_t derives = 0;           ///< full bound derivations
  std::uint64_t cachesim_accesses = 0; ///< trace accesses replayed
  std::uint64_t live_nodes_peak = 0;   ///< symbolic intern-table high mark

  /// Samples the symbolic intern table's live-node gauge.
  void sample_live_nodes();
};

/// sdg::multi_statement_bound for `options` with no stop criteria, replayed
/// layer by layer under `tracer` (which may be null).
std::optional<soap::sdg::MultiStatementBound> traced_bound(
    const soap::Program& program, const soap::sdg::SdgOptions& options,
    Tracer* tracer, LayerCounts& counts);

/// analysis::measure_kernel(entry, S) replayed layer by layer.
soap::analysis::AttainmentRow traced_row(const soap::kernels::KernelEntry& entry,
                                         long long S, Tracer* tracer,
                                         LayerCounts& counts);

/// The per-layer metrics every traced replay reports (bounds, sdg,
/// symbolic, frontend, trace health) into `out`.  Replayed items are spans
/// named "item"; `direct_ms` is the untraced time of the same items and
/// `interned` the expressions interned meanwhile.
void report_layers(const Tracer& tracer, const LayerCounts& counts, double direct_ms,
                   std::uint64_t interned, std::map<std::string, double>& out);

/// Bit-for-bit equality of two derivations (expressions by node identity,
/// rho values by bits).
bool same_bound(const soap::sdg::MultiStatementBound& a,
                const soap::sdg::MultiStatementBound& b);

}  // namespace perfbench
