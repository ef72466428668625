// Global symbol interner: maps symbol names to dense 32-bit `SymId`s.
//
// Every symbol the analysis touches (program parameters N, M, T, ..., the
// fast-memory size S, iteration/tile variables i, j, k, ...) is interned
// exactly once; all hot paths then key their environments and symbol sets by
// `SymId` instead of `std::string`, turning string hashing/comparison into
// integer arithmetic.  The symbolic core (symbolic/expr.*) stores the SymId in
// every symbol node and derives per-node symbol-set caches from it.
//
// Thread-safety contract: `intern_symbol`, `symbol_name` and
// `interned_symbol_count` may be called concurrently from any thread; all
// three take one mutex over the name -> id index and the id -> name store.
// Ids are dense and assigned in first-intern order; names are never evicted
// or moved, so a `const std::string&` returned by `symbol_name()` stays
// valid for the lifetime of the process (and may be read without the lock).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace soap {

/// Dense identifier of an interned symbol name.  Value-comparable and
/// hashable; the numeric order is first-intern order (stable within a run,
/// *not* lexicographic — callers that need name order must sort by name).
struct SymId {
  std::uint32_t value = kInvalidValue;

  static constexpr std::uint32_t kInvalidValue = 0xffffffffu;

  [[nodiscard]] constexpr bool valid() const { return value != kInvalidValue; }

  friend constexpr bool operator==(SymId a, SymId b) {
    return a.value == b.value;
  }
  friend constexpr bool operator!=(SymId a, SymId b) {
    return a.value != b.value;
  }
  friend constexpr bool operator<(SymId a, SymId b) {
    return a.value < b.value;
  }
  friend constexpr bool operator<=(SymId a, SymId b) {
    return a.value <= b.value;
  }
  friend constexpr bool operator>(SymId a, SymId b) {
    return a.value > b.value;
  }
  friend constexpr bool operator>=(SymId a, SymId b) {
    return a.value >= b.value;
  }
};

/// Interns `name`, returning its dense id (idempotent).
SymId intern_symbol(std::string_view name);

/// Name of an interned id.  The reference is stable for the process lifetime.
/// Throws std::out_of_range for ids that were never handed out.
const std::string& symbol_name(SymId id);

/// Number of distinct symbols interned so far.
std::size_t interned_symbol_count();

}  // namespace soap

template <>
struct std::hash<soap::SymId> {
  std::size_t operator()(soap::SymId id) const noexcept {
    // Fibonacci multiplicative mix; ids are dense so identity would also do,
    // but mixing keeps unordered_map buckets balanced under striding.
    return static_cast<std::size_t>(id.value) * 0x9e3779b97f4a7c15ULL;
  }
};
