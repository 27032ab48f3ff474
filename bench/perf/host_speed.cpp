#include "host_speed.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <vector>

namespace sccft::perf {

std::uint64_t reference_work() {
  constexpr int kItems = 10'000;
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<std::uint64_t, std::uint64_t> table;
  std::vector<std::uint64_t> values;
  values.reserve(kItems);
  for (int i = 0; i < kItems; ++i) {
    const std::uint64_t v = next();
    table[v % 50'000] += static_cast<std::uint64_t>(i);
    values.push_back(v);
  }
  std::uint64_t acc = 0;
  for (int i = 0; i < kItems; ++i) {
    const auto it = table.find(next() % 50'000);
    if (it != table.end()) acc += it->second;
  }
  std::sort(values.begin(), values.end());
  for (const std::uint64_t v : values) acc = (acc ^ v) * 1099511628211ULL;
  return acc;
}

double host_slowness() {
  static volatile std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  sink = sink + reference_work();
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  return took.count() / kReferenceWorkS;
}

}  // namespace sccft::perf
