// Tests for the VmLock adapters: semantics per kind, wait-stats instrumentation, and
// the munmap lookup-speculation extension.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/vm/address_space.h"
#include "src/vm/vm_lock.h"
#include "tests/common/test_clock.h"

namespace srl::vm {
namespace {

using namespace std::chrono_literals;
using srl::testing::StaysFalse;

constexpr uint64_t kPage = AddressSpace::kPageSize;

class VmLockTest : public ::testing::TestWithParam<VmLockKind> {};

TEST_P(VmLockTest, ReadersShareWritersExclude) {
  auto lock = MakeVmLock(GetParam());
  void* r1 = lock->LockRead({0, 100});
  void* r2 = lock->LockRead({50, 150});  // must not block
  lock->UnlockRead(r1);
  lock->UnlockRead(r2);

  void* w = lock->LockWrite({0, 100});
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* w2 = lock->LockWrite({50, 150});
    in.store(true);
    lock->UnlockWrite(w2);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock->UnlockWrite(w);
  t.join();
  EXPECT_TRUE(in.load());
}

TEST_P(VmLockTest, FullWriteExcludesEverything) {
  auto lock = MakeVmLock(GetParam());
  void* fw = lock->LockFullWrite();
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* r = lock->LockRead({1000, 1001});
    in.store(true);
    lock->UnlockRead(r);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  lock->UnlockWrite(fw);
  t.join();
  EXPECT_TRUE(in.load());
}

TEST_P(VmLockTest, DisjointWritesParallelIffRangeLock) {
  auto lock = MakeVmLock(GetParam());
  void* w1 = lock->LockWrite({0, 100});
  std::atomic<bool> in{false};
  std::thread t([&] {
    void* w2 = lock->LockWrite({200, 300});
    in.store(true);
    lock->UnlockWrite(w2);
  });
  if (GetParam() == VmLockKind::kStock) {
    // The semaphore ignores ranges: disjoint writers still serialize.
    EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
    lock->UnlockWrite(w1);
    t.join();
  } else {
    t.join();  // range locks admit the disjoint writer while w1 is held
    EXPECT_TRUE(in.load());
    lock->UnlockWrite(w1);
  }
  EXPECT_TRUE(in.load());
}

TEST_P(VmLockTest, WaitStatsCountAcquisitions) {
  auto lock = MakeVmLock(GetParam());
  WaitStats stats;
  lock->SetWaitStats(&stats);
  for (int i = 0; i < 5; ++i) {
    lock->UnlockRead(lock->LockRead({0, 10}));
  }
  for (int i = 0; i < 3; ++i) {
    lock->UnlockWrite(lock->LockWrite({0, 10}));
  }
  lock->UnlockWrite(lock->LockFullWrite());
  EXPECT_EQ(stats.ReadCount(), 5u);
  EXPECT_EQ(stats.WriteCount(), 4u);  // 3 ranged + 1 full
  lock->SetWaitStats(nullptr);
}

// kSkiplistIndexed stays out: it serves reads as writes, so ReadersShareWritersExclude
// would block on its second overlapping read.
INSTANTIATE_TEST_SUITE_P(Kinds, VmLockTest,
                         ::testing::Values(VmLockKind::kStock, VmLockKind::kTree,
                                           VmLockKind::kList, VmLockKind::kListLockFree),
                         [](const ::testing::TestParamInfo<VmLockKind>& info) {
                           std::string name = VmLockKindName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(UnmapSpeculationTest, MissingUnmapResolvesOnReadPath) {
  AddressSpace as(VmVariant::kListRefined);
  as.SetUnmapLookupSpeculation(true);
  const uint64_t a = as.Mmap(4 * kPage, kProtRead);
  EXPECT_FALSE(as.Munmap(a + (1u << 16) * kPage, kPage));  // far past any mapping
  EXPECT_EQ(as.Stats().unmap_lookup_fastpath.load(), 1u);
  // A real unmap still works and takes the full path.
  EXPECT_TRUE(as.Munmap(a, 4 * kPage));
  EXPECT_EQ(as.Stats().unmap_lookup_fastpath.load(), 1u);
  EXPECT_TRUE(as.SnapshotVmas().empty());
  EXPECT_TRUE(as.CheckInvariants());
}

TEST(UnmapSpeculationTest, MissingUnmapDoesNotBlockBehindReaders) {
  AddressSpace as(VmVariant::kListRefined);
  as.SetUnmapLookupSpeculation(true);
  const uint64_t a = as.Mmap(4 * kPage, kProtRead);
  // Hold a refined read (a page fault in flight) — a full-range write would block
  // behind it, but the speculative miss must not.
  void* rh = as.Lock().LockRead({a, a + kPage});
  std::atomic<bool> done{false};
  std::thread t([&] {
    as.Munmap(a + (1u << 16) * kPage, kPage);  // miss
    done.store(true);
  });
  t.join();  // completes while the read is still held
  EXPECT_TRUE(done.load());
  as.Lock().UnlockRead(rh);
}

TEST(UnmapSpeculationTest, ConcurrentStressStaysConsistent) {
  AddressSpace as(VmVariant::kListRefined);
  as.SetUnmapLookupSpeculation(true);
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const uint64_t r = as.Mmap(2 * kPage, kProtRead | kProtWrite);
        if (r == 0 || !as.PageFault(r, true)) {
          ok.store(false);
          return;
        }
        as.Munmap(r + (1u << 18) * kPage, kPage);  // miss probe
        if (!as.Munmap(r, 2 * kPage)) {            // real unmap
          ok.store(false);
          return;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(as.CheckInvariants());
  EXPECT_GT(as.Stats().unmap_lookup_fastpath.load(), 0u);
}

}  // namespace
}  // namespace srl::vm
