// tfmcc_reference: a fixed CPU kernel that shares no code with the
// simulator, timed to measure how fast the host runs right now.
//
// run.py times it between episodes and scales every time it reports by
// NOMINAL_REFERENCE_S / (this kernel's time), so host-wide speed drift (up
// to ±30% over minutes on a shared 4-vCPU VM) cancels while a change to the
// simulator does not.  The kernel mixes the three kinds of work the
// workloads do: dependent loads over a table larger than L2 (fan-out state),
// heap sifts (the event scheduler) and libm calls (the control equation).
//
// Prints the kernel's time in seconds on stdout.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

int main() {
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Set-up, untimed: one random cycle through 2 MB of successor indices
  // and a 4096-entry heap, both touched before the clock starts.
  constexpr std::uint32_t kTable = 1u << 19;
  std::vector<std::uint32_t> order(kTable);
  for (std::uint32_t i = 0; i < kTable; ++i) order[i] = i;
  for (std::uint32_t i = kTable - 1; i > 0; --i) {
    std::swap(order[i], order[next() % (i + 1)]);
  }
  std::vector<std::uint32_t> succ(kTable);
  for (std::uint32_t i = 0; i < kTable; ++i) {
    succ[order[i]] = order[(i + 1) % kTable];
  }
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  for (int i = 0; i < 4096; ++i) heap.push(next());

  // The fastest of three repetitions: the kernel's own outliers (a page
  // fault, a preemption) must not read as a slow host.
  double best = 1e9;
  std::uint64_t acc = 0;
  double f = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t p = 0;
    for (int i = 0; i < 500'000; ++i) {
      p = succ[p];
      acc += p;
    }
    for (int i = 0; i < 200'000; ++i) {
      acc += heap.top();
      heap.pop();
      heap.push(next());
    }
    for (int i = 1; i < 150'000; ++i) {
      f += std::log(static_cast<double>(i)) * std::exp(-i * 1e-6);
    }
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  // acc and f are printed so the compiler cannot drop the work.
  std::printf("%.9f %llu %.3f\n", best, static_cast<unsigned long long>(acc),
              f);
  return 0;
}
