// Fixed-duration multi-threaded throughput measurement, the methodology of §7.1
// ("throughput is calculated based on the total number of operations performed by all
// the threads running for ten seconds"), with configurable duration and repeats for
// smaller machines.
#ifndef SRL_HARNESS_THROUGHPUT_RUNNER_H_
#define SRL_HARNESS_THROUGHPUT_RUNNER_H_

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/harness/stats.h"

namespace srl {

// The CPUs this process may run on, in ascending order (empty when the affinity mask
// cannot be read).
inline std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Runs `worker(tid, stop_flag)` on `threads` threads for `secs` seconds; the worker
// must loop until the flag is set and return its operation count. Returns total
// operations per second. Threads start together behind a barrier so short runs are not
// skewed by spawn time. When the threads fit on the CPUs the process may use, thread t
// is pinned to the t-th of them, so scheduler placement and migrations stay out of the
// repeat-to-repeat spread; oversubscribed runs stay unpinned and the scheduler shares
// the CPUs out.
template <typename Worker>
double MeasureThroughput(int threads, double secs, Worker&& worker) {
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<uint64_t> ops(static_cast<std::size_t>(threads), 0);
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = threads <= static_cast<int>(cpus.size());
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      if (pin) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[static_cast<std::size_t>(t)], &set);
        pthread_setaffinity_np(pthread_self(), sizeof set, &set);  // refused: unpinned
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      ops[static_cast<std::size_t>(t)] = worker(t, stop);
    });
  }
  while (ready.load() < threads) {
    std::this_thread::yield();
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) {
    th.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  uint64_t total = 0;
  for (uint64_t o : ops) {
    total += o;
  }
  return static_cast<double>(total) / elapsed;
}

// Repeats the measurement and reports mean and relative standard deviation, as the
// paper does (5 runs; std-dev < 3% of mean for nearly all points).
template <typename Worker>
Summary MeasureThroughputRepeated(int threads, double secs, int repeats, Worker&& worker) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    samples.push_back(MeasureThroughput(threads, secs, worker));
  }
  return Summarize(samples);
}

}  // namespace srl

#endif  // SRL_HARNESS_THROUGHPUT_RUNNER_H_
