// Seeded inputs of the benchmark's workloads.  Everything here is a pure
// function of its arguments: the same seed gives byte-identical kernel
// orders and serve request streams (tests/test_generator.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fast, and identical on every platform (the standard
/// library's distributions are not specified bit-for-bit).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// A seeded permutation of 0..n-1; `stream` separates independent draws
/// from one seed.
std::vector<std::size_t> seeded_order(std::uint64_t seed, std::uint64_t stream,
                                      std::size_t n);

/// Prefixes every array name of a DSL program (an identifier directly
/// followed by `[`) with `prefix`.  A uniform prefix keeps the arrays' sort
/// order, so the derivation — and the bound — is unchanged.
std::string prefix_arrays(const std::string& source, const std::string& prefix);

/// A registry kernel whose DSL source feeds the `serve` misses.
struct PoolKernel {
  std::string name;
  std::string source;
  std::size_t max_subgraph_size = 0;
  std::size_t max_subgraphs = 0;
};

/// A generated `analyze` program: a pool kernel's source with one seeded
/// prefix on every array name.
struct GeneratedProgram {
  std::size_t pool_index = 0;
  std::string prefix;
  std::string text;
};

enum class RequestKind : std::uint8_t {
  kKernel,  ///< `kernel NAME`, Zipf over the registry: a registry-path hit
  kResend,  ///< `analyze` of a program sent in an earlier step: a hit
  kFresh,   ///< `analyze` of a new generated program: a miss
};

struct Request {
  RequestKind kind = RequestKind::kKernel;
  /// Registry index (kKernel) or index into ServeStream::programs.
  std::size_t target = 0;
  std::uint32_t step = 0;
  /// When the request is due, relative to the start of its step.
  std::int64_t due_ns = 0;
};

/// One fixed-rate step of the open loop.
struct Step {
  double rate = 0.0;  ///< requests per second
  /// 0 for the light and the reference step, else which climb (1-based).
  std::uint32_t climb = 0;
  double seconds = 0.0;
  std::size_t first = 0;  ///< index of the step's first request
  std::size_t count = 0;
};

struct ServeStream {
  std::vector<Step> steps;
  std::vector<GeneratedProgram> programs;
  /// programs[0, primed) are sent during set-up so that re-sends in the
  /// first step have a cached target.
  std::size_t primed = 0;
  std::vector<Request> requests;
};

/// The request mix, exact in every block of kMixBlock consecutive requests
/// of a step (in seeded positions): kernel hits, re-sends, fresh misses.
inline constexpr std::size_t kMixBlock = 20;
inline constexpr std::size_t kKernelsPerBlock = 17;
inline constexpr std::size_t kResendsPerBlock = 2;

/// Index of the reference rate in the open-loop rate ladder (ascending
/// requests per second; see generator.cpp).
inline constexpr std::size_t kReferenceStep = 1;

/// How many times the rates above the reference are climbed (see
/// generator.cpp); serve.max_rps is the best climb's.
inline constexpr std::uint32_t kClimbs = 2;

/// Builds the seeded request stream for a run of `seconds` over a registry
/// of `kernel_names` with the miss pool `pool`.
ServeStream make_serve_stream(std::uint64_t seed, double seconds,
                              const std::vector<std::string>& kernel_names,
                              const std::vector<PoolKernel>& pool);

/// The protocol text of request `index` (its id is q<index>).
std::string request_wire(const ServeStream& stream, std::size_t index,
                         const std::vector<std::string>& kernel_names,
                         const std::vector<PoolKernel>& pool);

/// The protocol text that primes program `p` during set-up (id p<p>).
std::string prime_wire(const ServeStream& stream, std::size_t p,
                       const std::vector<PoolKernel>& pool);

/// Every request's due time and wire text, concatenated: byte-identical for
/// the same arguments.
std::string stream_bytes(const ServeStream& stream,
                         const std::vector<std::string>& kernel_names,
                         const std::vector<PoolKernel>& pool);

/// 64-bit FNV-1a digest of `bytes` (for printing a stream's identity).
std::uint64_t fnv1a(const std::string& bytes);

}  // namespace perfbench
