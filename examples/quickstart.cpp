// Quickstart: the scalable range-lock API in five minutes.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>
#include <thread>
#include <vector>

#include "src/core/fair_list_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/list_rw_range_lock.h"

int main() {
  // 1. Exclusive range lock (paper §4.1): disjoint ranges proceed in parallel,
  //    overlapping ranges serialize.
  srl::ListRangeLock mutex_lock;
  {
    auto a = mutex_lock.Lock({0, 100});     // holds [0,100)
    auto b = mutex_lock.Lock({100, 200});   // adjacent — no conflict (end is exclusive)
    std::cout << "holding [0,100) and [100,200) simultaneously\n";
    mutex_lock.Unlock(b);
    mutex_lock.Unlock(a);
  }

  // RAII style:
  {
    srl::ListRangeLock::Guard guard(mutex_lock, {42, 64});
    std::cout << "holding [42,64) via RAII guard\n";
  }

  // 2. Reader-writer variant (§4.2): overlapping readers share; writers exclude.
  srl::ListRwRangeLock rw_lock;
  {
    auto r1 = rw_lock.LockRead({0, 1000});
    auto r2 = rw_lock.LockRead({500, 1500});  // overlaps r1, but both are readers
    std::cout << "two overlapping readers inside\n";
    rw_lock.Unlock(r1);
    rw_lock.Unlock(r2);
  }

  // 3. Real concurrency: each thread updates its own slice of a shared array under a
  //    write range; a full-range read takes a consistent snapshot.
  constexpr int kThreads = 4;
  constexpr int kSlotsPerThread = 8;
  std::vector<long> data(kThreads * kSlotsPerThread, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const srl::Range r{static_cast<uint64_t>(t) * kSlotsPerThread,
                         static_cast<uint64_t>(t + 1) * kSlotsPerThread};
      for (int iter = 0; iter < 1000; ++iter) {
        srl::ListRwRangeLock::WriteGuard g(rw_lock, r);
        for (uint64_t i = r.start; i < r.end; ++i) {
          data[i] += 1;
        }
      }
    });
  }
  long snapshot_total = -1;
  {
    // A concurrent full-range reader always sees each slice internally consistent.
    srl::ListRwRangeLock::ReadGuard g(rw_lock, srl::Range::Full());
    snapshot_total = 0;
    for (long v : data) {
      snapshot_total += v;
    }
  }
  for (auto& th : threads) {
    th.join();
  }
  std::cout << "snapshot total (consistent at some instant): " << snapshot_total << "\n";
  long final_total = 0;
  for (long v : data) {
    final_total += v;
  }
  std::cout << "final total: " << final_total << " (expected "
            << kThreads * kSlotsPerThread * 1000 << ")\n";

  // 4. The fast path (§4.5) is built in: on an empty lock, acquire and release are one
  //    CAS each. The fairness layer (§4.3) is for starvation-sensitive workloads.
  srl::ListRangeLock fast;
  auto h = fast.Lock({0, 10});
  fast.Unlock(h);  // constant-step acquire/release when uncontended
  srl::FairListRangeLock fair;
  auto fh = fair.Lock({0, 10});
  fair.Unlock(fh);
  std::cout << "plain and fair variants work identically from the caller's side\n";
  return 0;
}
