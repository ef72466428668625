#include "trace.hpp"

#include <fstream>

#include "context.hpp"
#include "stats.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(tracer_->spans_.size() + 1);
  span.parent = tracer_->current_;
  span.item = tracer_->item_;
  index_ = span.id - 1;
  saved_parent_ = tracer_->current_;
  tracer_->current_ = span.id;
  tracer_->spans_.push_back(span);
  tracer_->spans_[index_].start_ns = monotonic_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = monotonic_ns();
  tracer_->current_ = saved_parent_;
}

void Tracer::add(const char* name, std::uint32_t item, std::int64_t start_ns,
                 std::int64_t end_ns) {
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = current_;
  span.item = item;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"item\": " << s.item << ", \"name\": " << quoted(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
