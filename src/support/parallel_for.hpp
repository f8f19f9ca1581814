// Minimal work-stealing-free parallel index loop, shared by the exploration
// engine and the Toolchain's dynamic batch mode.  Results must be written
// into per-index slots: index order is unspecified but every index runs
// exactly once, so fan-outs stay deterministic regardless of the thread
// count.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace b2h::support {

/// Run fn(0..n-1) on up to `threads` workers (0 = hardware concurrency,
/// 1 = serial on the calling thread).
inline void ParallelFor(std::size_t n, unsigned threads,
                        const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::size_t workers =
      threads == 0 ? std::thread::hardware_concurrency() : threads;
  if (workers == 0) workers = 1;
  workers = std::min(workers, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace b2h::support
