#include "generator.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <iterator>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

std::vector<std::size_t> seeded_order(std::uint64_t seed, std::uint64_t stream,
                                      std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed * 0x100000001b3ULL + stream);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

std::string prefix_arrays(const std::string& source, const std::string& prefix) {
  const auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  std::string out;
  out.reserve(source.size() + 64);
  std::size_t i = 0;
  while (i < source.size()) {
    if (!is_ident(source[i]) ||
        std::isdigit(static_cast<unsigned char>(source[i])) != 0) {
      out += source[i++];
      continue;
    }
    std::size_t end = i;
    while (end < source.size() && is_ident(source[end])) ++end;
    if (end < source.size() && source[end] == '[') out += prefix;
    out.append(source, i, end - i);
    i = end;
  }
  return out;
}

namespace {

// From light load past the knee (~3000-4000/s on a 4-CPU host): the light
// first step, the reference rate 500/s (kReferenceStep), then the climb
// from 1500/s, run kClimbs times.
constexpr double kBaseRates[] = {100, 500};
constexpr std::size_t kResendWindow = 1024;
constexpr double kClimbRates[] = {1500, 2500, 3000, 3500, 4000, 5000};

// The reference step gets 40% of the run, so its p99 rests on the most
// samples; the light first step 5%, the climbs 60% between them.
double step_seconds(double seconds, std::size_t step) {
  if (step == kReferenceStep) return seconds * 0.4;
  if (step < kReferenceStep) return seconds * 0.05;
  return seconds * 0.6 / static_cast<double>(kClimbs * std::size(kClimbRates));
}

std::string make_prefix(Rng& rng) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string prefix = "g";
  for (int i = 0; i < 6; ++i) prefix += kAlphabet[rng.below(36)];
  return prefix + "_";
}

}  // namespace

ServeStream make_serve_stream(std::uint64_t seed, double seconds,
                              const std::vector<std::string>& kernel_names,
                              const std::vector<PoolKernel>& pool) {
  ServeStream stream;
  Rng rng(seed ^ 0x5e12e5e12e5eULL);

  // Zipf(1) popularity over the registry, ranked in registry order: the
  // seed varies the draws, not which kernels are popular, so every seed
  // parses the same mix of programs on its hits.
  std::vector<double> cumulative(kernel_names.size());
  double total = 0.0;
  for (std::size_t r = 0; r < kernel_names.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative[r] = total;
  }

  // Fresh programs walk the pool in seeded round-robin order, so every
  // seed draws the same multiset of miss kernels per cycle.
  const std::vector<std::size_t> pool_order = seeded_order(seed, 2, pool.size());
  std::size_t next_pool = 0;
  const auto fresh_program = [&] {
    GeneratedProgram p;
    p.pool_index = pool_order[next_pool++ % pool_order.size()];
    p.prefix = make_prefix(rng);
    p.text = prefix_arrays(pool[p.pool_index].source, p.prefix);
    stream.programs.push_back(std::move(p));
    return stream.programs.size() - 1;
  };

  constexpr std::size_t kPrimed = 4;
  for (std::size_t i = 0; i < kPrimed; ++i) fresh_program();
  stream.primed = kPrimed;

  std::size_t resend_pool = kPrimed;  // programs sent in earlier steps
  std::array<RequestKind, kMixBlock> block{};
  std::vector<Step> ladder;
  for (const double rate : kBaseRates) ladder.push_back({.rate = rate});
  for (std::uint32_t c = 1; c <= kClimbs; ++c) {
    for (const double rate : kClimbRates) ladder.push_back({.rate = rate, .climb = c});
  }
  for (std::size_t s = 0; s < ladder.size(); ++s) {
    Step step = ladder[s];
    step.seconds = step_seconds(seconds, s);
    step.first = stream.requests.size();
    step.count = static_cast<std::size_t>(std::llround(step.rate * step.seconds));
    for (std::size_t i = 0; i < step.count; ++i) {
      Request req;
      req.step = static_cast<std::uint32_t>(s);
      req.due_ns = static_cast<std::int64_t>(
          std::llround(1e9 * static_cast<double>(i) / step.rate));
      // A fresh block pattern every kMixBlock requests: misses land in
      // seeded places but never bunch up beyond two in a row, so the p99
      // follows their cost rather than how the draws happened to cluster.
      if (i % kMixBlock == 0) {
        for (std::size_t b = 0; b < kMixBlock; ++b) {
          block[b] = b < kKernelsPerBlock ? RequestKind::kKernel
                     : b < kKernelsPerBlock + kResendsPerBlock ? RequestKind::kResend
                                                               : RequestKind::kFresh;
        }
        for (std::size_t b = kMixBlock - 1; b > 0; --b) {
          std::swap(block[b], block[rng.below(b + 1)]);
        }
      }
      const RequestKind kind = block[i % kMixBlock];
      if (kind == RequestKind::kKernel) {
        req.kind = RequestKind::kKernel;
        const double pick = rng.uniform() * total;
        const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), pick);
        req.target = std::min<std::size_t>(
            static_cast<std::size_t>(it - cumulative.begin()), kernel_names.size() - 1);
      } else if (kind == RequestKind::kResend) {
        req.kind = RequestKind::kResend;
        // One of the kResendWindow programs sent last: the server's LRU
        // cache (4096 entries over 8 shards) still holds every one of them,
        // so a re-send is a hit however long the run.
        const std::size_t oldest =
            resend_pool > kResendWindow ? resend_pool - kResendWindow : 0;
        req.target = oldest + rng.below(resend_pool - oldest);
      } else {
        req.kind = RequestKind::kFresh;
        req.target = fresh_program();
      }
      stream.requests.push_back(req);
    }
    resend_pool = stream.programs.size();
    stream.steps.push_back(step);
  }
  return stream;
}

namespace {

std::string analyze_wire(const std::string& id, const GeneratedProgram& p,
                         const std::vector<PoolKernel>& pool) {
  const PoolKernel& k = pool[p.pool_index];
  std::string wire = "analyze id=" + id +
                     " max-subgraph-size=" + std::to_string(k.max_subgraph_size) +
                     " max-subgraphs=" + std::to_string(k.max_subgraphs) + "\n";
  wire += p.text;
  if (!p.text.empty() && p.text.back() != '\n') wire += '\n';
  return wire + "end\n";
}

}  // namespace

std::string request_wire(const ServeStream& stream, std::size_t index,
                         const std::vector<std::string>& kernel_names,
                         const std::vector<PoolKernel>& pool) {
  const Request& req = stream.requests[index];
  const std::string id = "q" + std::to_string(index);
  if (req.kind == RequestKind::kKernel) {
    return "kernel " + kernel_names[req.target] + " id=" + id + "\n";
  }
  return analyze_wire(id, stream.programs[req.target], pool);
}

std::string prime_wire(const ServeStream& stream, std::size_t p,
                       const std::vector<PoolKernel>& pool) {
  return analyze_wire("p" + std::to_string(p), stream.programs[p], pool);
}

std::string stream_bytes(const ServeStream& stream,
                         const std::vector<std::string>& kernel_names,
                         const std::vector<PoolKernel>& pool) {
  std::string bytes;
  for (std::size_t p = 0; p < stream.primed; ++p) bytes += prime_wire(stream, p, pool);
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    const Request& req = stream.requests[i];
    bytes += std::to_string(req.step) + "@" + std::to_string(req.due_ns) + " ";
    bytes += request_wire(stream, i, kernel_names, pool);
  }
  return bytes;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
