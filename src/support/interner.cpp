#include "support/interner.hpp"

#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace soap {

namespace {

struct InternTable {
  std::mutex mu;
  // string_view keys point into `names`, whose elements have stable
  // addresses (a deque never moves its elements on push_back).  names[id]
  // is the name of SymId{id}.
  std::unordered_map<std::string_view, std::uint32_t> index;
  std::deque<std::string> names;
};

// Leaked on purpose: symbol nodes (and through them, interned exprs held in
// static storage by tests/benches) may outlive any static destruction order
// we could arrange.  The pointer stays reachable, so LeakSanitizer is happy.
InternTable& table() {
  static auto* t = new InternTable();
  return *t;
}

}  // namespace

SymId intern_symbol(std::string_view name) {
  InternTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.index.find(name);
  if (it != t.index.end()) return SymId{it->second};
  if (t.names.size() >= SymId::kInvalidValue) {
    throw std::length_error("interner: id space full");
  }
  const auto id = static_cast<std::uint32_t>(t.names.size());
  const std::string& stored = t.names.emplace_back(name);
  t.index.emplace(std::string_view(stored), id);
  return SymId{id};
}

const std::string& symbol_name(SymId id) {
  InternTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  if (!id.valid() || id.value >= t.names.size()) {
    throw std::out_of_range("symbol_name: unknown SymId");
  }
  return t.names[id.value];
}

std::size_t interned_symbol_count() {
  InternTable& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.names.size();
}

}  // namespace soap
