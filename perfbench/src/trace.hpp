// In-memory span recorder for the traced run.  Spans are recorded from the
// benchmark's own code around its calls into each layer's public functions
// (nothing inside src/ is instrumented); they are kept in memory and
// written out once the run ends.  Single-threaded: spans are opened and
// closed on the thread that drives the traced replay.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";      ///< "<layer>.<call>", e.g. "bounds.derive_chi"
  std::uint32_t id = 0;       ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;   ///< enclosing span (0 at the top level)
  std::uint32_t item = 0;     ///< kernel, row or request the span serves
  std::int64_t start_ns = 0;  ///< CLOCK_MONOTONIC
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// A span open for the lifetime of the scope; no-op without a tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::uint32_t index_ = 0;
    std::uint32_t saved_parent_ = 0;
  };

  /// Tags the spans opened from now on with `item`.
  void set_item(std::uint32_t item) { item_ = item; }

  /// Records a finished span with explicit times (e.g. a request whose
  /// start and end were observed by other threads).
  void add(const char* name, std::uint32_t item, std::int64_t start_ns,
           std::int64_t end_ns);

  /// Self time per span name, in ms: each span's duration minus the part
  /// its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Total (inclusive) time per span name, in ms.
  [[nodiscard]] std::map<std::string, double> total_ms() const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON document; false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t current_ = 0;
  std::uint32_t item_ = 0;
};

}  // namespace perfbench
