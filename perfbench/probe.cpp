// The host-speed probe (README.md, "Host speed"): fixed work that uses
// none of the library and does not touch the program's heap, so neither a
// change to the program nor the state of its heap can move it.
#include <array>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netbench.hpp"

namespace netbench {

/// Probe results are folded in here so the work cannot be dropped.
std::uint64_t probe_sink = 0;

namespace {

constexpr int kSteps = 512;  // distinct step functions: a large code footprint
constexpr std::size_t kTable = 1024;

/// One of kSteps small, branchy functions; each instantiation is its own
/// code, so a pass runs through tens of KB of instructions and hundreds of
/// indirect-branch targets, as the program's layered calls do.
template <int N>
[[gnu::noinline]] std::uint64_t step(std::uint64_t x, std::uint64_t* t) {
  x ^= x >> (N % 17 + 5);
  x *= 0x9e3779b97f4a7c15ULL + 2 * N;
  if ((x >> (N % 13)) & 1) {
    t[(x >> 7) & (kTable - 1)] += x;
  } else {
    t[(x >> 9) & (kTable - 1)] ^= N;
  }
  if ((x & 7) == (N & 7)) x += t[(N * 7) & (kTable - 1)];
  switch ((x >> 3) & 3) {
    case 0: return x + N;
    case 1: return x ^ (N * 3);
    case 2: return x - N * 5;
    default: return ~x;
  }
}

template <int... I>
constexpr auto step_table(std::integer_sequence<int, I...>) {
  return std::array<std::uint64_t (*)(std::uint64_t, std::uint64_t*),
                    sizeof...(I)>{&step<I>...};
}

/// One pass: 30,000 calls of the step functions in a fixed random order,
/// then 5,000 URL-like string keys counted in a hash map whose nodes come
/// from a private buffer.
void probe_pass() {
  static constexpr auto steps = step_table(std::make_integer_sequence<int, kSteps>{});
  static std::vector<std::uint64_t> table(kTable);
  static std::vector<std::byte> arena(1 << 20);
  std::uint64_t state = 42;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t x = 1;
  for (int i = 0; i < 30000; ++i) x = steps[next() % kSteps](x, table.data());

  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::pmr::string, std::uint64_t> counts(&pool);
  counts.reserve(4096);
  std::pmr::string key("/item/", &pool);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    key.resize(6);
    key += std::to_string(next() % 4000);
    counts[key] += i;
  }
  probe_sink += x + counts.size();
}

}  // namespace

double host_probe_ms() {
  // The untimed pass brings the probe's own code and data into cache, so
  // the timed one does not depend on how much of it the program evicted.
  probe_pass();
  const auto t0 = Clock::now();
  probe_pass();
  return ms_between(t0, Clock::now());
}

}  // namespace netbench
