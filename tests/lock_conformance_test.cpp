// Conformance suite: every range-lock implementation in the repository must satisfy the
// same behavioural contract. Run as typed tests over the adapters of
// src/harness/lock_adapters.h, so any new lock added to the repo gets the full battery
// by appending one line to the type list.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/lnode.h"
#include "src/epoch/node_pool.h"
#include "src/harness/lock_adapters.h"
#include "src/harness/prng.h"
#include "tests/common/range_oracle.h"
#include "tests/common/test_clock.h"

namespace srl {
namespace {

using namespace std::chrono_literals;
using testing::StaysFalse;

template <typename Adapter>
class LockConformanceTest : public ::testing::Test {
 protected:
  Adapter adapter_;
};

using AllLocks =
    ::testing::Types<ListExAdapter, ListLockFreeAdapter, SkiplistIndexedAdapter,
                     ListRwAdapter, FairListExAdapter, FairListRwAdapter, TreeExAdapter,
                     TreeRwAdapter, SegmentRwAdapter, RwSemAdapter>;

class LockNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    std::string name = T::Name();
    for (char& c : name) {
      if (c == '-') {
        c = '_';
      }
    }
    return name;
  }
};

TYPED_TEST_SUITE(LockConformanceTest, AllLocks, LockNames);

TYPED_TEST(LockConformanceTest, WriteAcquireRelease) {
  auto h = this->adapter_.AcquireWrite({0, 100});
  this->adapter_.Release(h);
  auto h2 = this->adapter_.AcquireWrite({0, 100});  // reacquirable
  this->adapter_.Release(h2);
}

TYPED_TEST(LockConformanceTest, ReadAcquireRelease) {
  auto h = this->adapter_.AcquireRead({0, 100});
  this->adapter_.Release(h);
}

TYPED_TEST(LockConformanceTest, OverlappingWritersExclude) {
  constexpr uint64_t kUniverse = 64;
  testing::RangeOracle oracle(kUniverse);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0xabc + t);
      for (int i = 0; i < 1500; ++i) {
        uint64_t a = rng.NextBelow(kUniverse);
        uint64_t b = rng.NextBelow(kUniverse);
        if (a > b) {
          std::swap(a, b);
        }
        const Range r{a, b + 1};
        auto h = this->adapter_.AcquireWrite(r);
        oracle.EnterWrite(r);
        oracle.ExitWrite(r);
        this->adapter_.Release(h);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

TYPED_TEST(LockConformanceTest, ReadersAndWritersExclude) {
  constexpr uint64_t kUniverse = 64;
  testing::RangeOracle oracle(kUniverse);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0x777 + t);
      for (int i = 0; i < 1500; ++i) {
        uint64_t a = rng.NextBelow(kUniverse);
        uint64_t b = rng.NextBelow(kUniverse);
        if (a > b) {
          std::swap(a, b);
        }
        const Range r{a, b + 1};
        if (rng.NextChance(0.3)) {
          auto h = this->adapter_.AcquireWrite(r);
          oracle.EnterWrite(r);
          oracle.ExitWrite(r);
          this->adapter_.Release(h);
        } else {
          auto h = this->adapter_.AcquireRead(r);
          oracle.EnterRead(r);
          oracle.ExitRead(r);
          this->adapter_.Release(h);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

TYPED_TEST(LockConformanceTest, OverlappingReadersShareIfSupported) {
  if (!TypeParam::kSharedReaders) {
    GTEST_SKIP() << "exclusive-only lock";
  }
  auto r1 = this->adapter_.AcquireRead({0, 50});
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto r2 = this->adapter_.AcquireRead({25, 75});
    in.store(true);
    this->adapter_.Release(r2);
  });
  t.join();  // completes while r1 is held
  EXPECT_TRUE(in.load());
  this->adapter_.Release(r1);
}

TYPED_TEST(LockConformanceTest, WriterBlockedUntilOverlapReleased) {
  auto h = this->adapter_.AcquireWrite({10, 20});
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto h2 = this->adapter_.AcquireWrite({15, 25});
    in.store(true);
    this->adapter_.Release(h2);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  this->adapter_.Release(h);
  t.join();
  EXPECT_TRUE(in.load());
}

TYPED_TEST(LockConformanceTest, FullRangeIsExclusiveAgainstAll) {
  auto h = this->adapter_.AcquireWrite(Range::Full());
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto h2 = this->adapter_.AcquireWrite({5, 6});
    in.store(true);
    this->adapter_.Release(h2);
  });
  EXPECT_TRUE(StaysFalse([&] { return in.load(); }));
  this->adapter_.Release(h);
  t.join();
  EXPECT_TRUE(in.load());
}

TYPED_TEST(LockConformanceTest, ManySequentialAcquisitions) {
  Xoshiro256 rng(12345);
  for (int i = 0; i < 3000; ++i) {
    uint64_t a = rng.NextBelow(64);
    const Range r{a, a + 1 + rng.NextBelow(16)};
    if (i % 2 == 0) {
      auto h = this->adapter_.AcquireWrite(r);
      this->adapter_.Release(h);
    } else {
      auto h = this->adapter_.AcquireRead(r);
      this->adapter_.Release(h);
    }
  }
}

TYPED_TEST(LockConformanceTest, DisjointWritersRunConcurrently) {
  if (!TypeParam::kPrecise) {
    GTEST_SKIP() << "coarse-grained lock may serialize disjoint ranges";
  }
  auto h = this->adapter_.AcquireWrite({0, 10});
  std::atomic<bool> in{false};
  std::thread t([&] {
    auto h2 = this->adapter_.AcquireWrite({100, 110});
    in.store(true);
    this->adapter_.Release(h2);
  });
  t.join();  // must complete while [0,10) is still held
  EXPECT_TRUE(in.load());
  this->adapter_.Release(h);
}

TYPED_TEST(LockConformanceTest, HandleReleasableByAnotherThread) {
  // The Lock/Unlock contract is ownership-by-handle, not ownership-by-thread: a range
  // acquired here must be releasable from any thread (the VM layer hands handles across
  // worker threads this way).
  auto h = this->adapter_.AcquireWrite({10, 20});
  std::thread t([&] { this->adapter_.Release(h); });
  t.join();
  // The range must actually be free again.
  auto h2 = this->adapter_.AcquireWrite({10, 20});
  this->adapter_.Release(h2);
}

TYPED_TEST(LockConformanceTest, OutOfOrderRelease) {
  if (!TypeParam::kPrecise) {
    GTEST_SKIP() << "coarse-grained lock may serialize disjoint ranges";
  }
  // Acquisition order must impose no release order.
  auto h1 = this->adapter_.AcquireWrite({0, 10});
  auto h2 = this->adapter_.AcquireWrite({20, 30});
  auto h3 = this->adapter_.AcquireWrite({40, 50});
  this->adapter_.Release(h2);
  auto h4 = this->adapter_.AcquireWrite({20, 30});  // middle range is free again
  this->adapter_.Release(h1);
  this->adapter_.Release(h4);
  this->adapter_.Release(h3);
}

// --- Non-blocking (TryAcquire*) and timed (Acquire*For) conformance ---

TYPED_TEST(LockConformanceTest, TryAcquireConflictFailsWithoutBlocking) {
  // Called from the thread that already holds the conflicting range: if the try
  // acquisition blocked, this test would deadlock rather than fail.
  auto h = this->adapter_.AcquireWrite({10, 20});
  typename TypeParam::Handle t{};
  EXPECT_FALSE(this->adapter_.TryAcquireWrite({15, 25}, &t));
  EXPECT_FALSE(this->adapter_.TryAcquireRead({15, 25}, &t));
  this->adapter_.Release(h);
  // The failed attempts held nothing: the range must be immediately reacquirable.
  ASSERT_TRUE(this->adapter_.TryAcquireWrite({15, 25}, &t));
  this->adapter_.Release(t);
}

TYPED_TEST(LockConformanceTest, TryAcquireFullRangeConflictFails) {
  auto h = this->adapter_.AcquireWrite(Range::Full());
  typename TypeParam::Handle t{};
  EXPECT_FALSE(this->adapter_.TryAcquireWrite({5, 6}, &t));
  EXPECT_FALSE(this->adapter_.TryAcquireRead({5, 6}, &t));
  this->adapter_.Release(h);
}

TYPED_TEST(LockConformanceTest, TryAcquireDisjointSucceeds) {
  if (!TypeParam::kPrecise) {
    GTEST_SKIP() << "coarse-grained lock may fail try acquisitions of disjoint ranges";
  }
  auto h = this->adapter_.AcquireWrite({0, 10});
  typename TypeParam::Handle t1{};
  typename TypeParam::Handle t2{};
  ASSERT_TRUE(this->adapter_.TryAcquireWrite({100, 110}, &t1));
  ASSERT_TRUE(this->adapter_.TryAcquireRead({200, 210}, &t2));
  this->adapter_.Release(t2);
  this->adapter_.Release(t1);
  this->adapter_.Release(h);
}

TYPED_TEST(LockConformanceTest, TryAcquireUncontendedSucceeds) {
  typename TypeParam::Handle t{};
  ASSERT_TRUE(this->adapter_.TryAcquireWrite({10, 20}, &t));
  this->adapter_.Release(t);
  ASSERT_TRUE(this->adapter_.TryAcquireRead({10, 20}, &t));
  this->adapter_.Release(t);
}

TYPED_TEST(LockConformanceTest, TryReadSharesWithReaderIfSupported) {
  if (!TypeParam::kSharedReaders) {
    GTEST_SKIP() << "exclusive-only lock";
  }
  auto r1 = this->adapter_.AcquireRead({0, 50});
  typename TypeParam::Handle r2{};
  ASSERT_TRUE(this->adapter_.TryAcquireRead({25, 75}, &r2));
  this->adapter_.Release(r2);
  this->adapter_.Release(r1);
}

TYPED_TEST(LockConformanceTest, TimedAcquireConflictTimesOut) {
  using namespace std::chrono;
  const auto timeout = 20ms;
  auto h = this->adapter_.AcquireWrite({10, 20});
  typename TypeParam::Handle t{};
  const auto t0 = steady_clock::now();
  EXPECT_FALSE(this->adapter_.AcquireWriteFor({15, 25}, timeout, &t));
  // The deadline is a lower bound on the wait (Expired() is now >= when); no upper
  // bound is asserted — sanitizers and oversubscribed CI dilate time freely.
  EXPECT_GE(steady_clock::now() - t0, timeout);
  EXPECT_FALSE(this->adapter_.AcquireReadFor({15, 25}, timeout, &t));
  this->adapter_.Release(h);
  // With the conflict gone the same timed acquisition succeeds.
  ASSERT_TRUE(this->adapter_.AcquireWriteFor({15, 25}, timeout, &t));
  this->adapter_.Release(t);
}

TYPED_TEST(LockConformanceTest, TimedAcquireDisjointSucceeds) {
  if (!TypeParam::kPrecise) {
    GTEST_SKIP() << "coarse-grained lock may serialize disjoint ranges";
  }
  using namespace std::chrono;
  auto h = this->adapter_.AcquireWrite({0, 10});
  typename TypeParam::Handle t{};
  ASSERT_TRUE(this->adapter_.AcquireWriteFor({100, 110}, 10ms, &t));
  this->adapter_.Release(t);
  this->adapter_.Release(h);
}

TYPED_TEST(LockConformanceTest, TimedAcquireReleasedMidWaitSucceeds) {
  // A waiter whose deadline has not yet expired must admit when the holder releases,
  // not burn the whole timeout.
  using namespace std::chrono_literals;
  auto h = this->adapter_.AcquireWrite({10, 20});
  std::atomic<bool> got{false};
  std::thread t([&] {
    typename TypeParam::Handle th{};
    if (this->adapter_.AcquireWriteFor({15, 25}, 60s, &th)) {
      got.store(true);
      this->adapter_.Release(th);
    }
  });
  EXPECT_TRUE(StaysFalse([&] { return got.load(); }));
  this->adapter_.Release(h);
  t.join();
  EXPECT_TRUE(got.load());
}

TYPED_TEST(LockConformanceTest, AbortedWaiterLeaksNoListNode) {
  if (!TypeParam::kUsesNodePool) {
    GTEST_SKIP() << "lock does not allocate from NodePool<LNode>";
  }
  using namespace std::chrono_literals;
  // An always-held disjoint anchor keeps the list non-empty, so the §4.5 fast path
  // (which recycles without ever entering the list) stays out of play and both
  // measurements see the same list shape. Wide enough (64 units = 16 windows of the
  // lock-free adapter's 4-unit windows) to cover every bucket of a bucketed lock —
  // a one-bucket anchor would leave the other buckets' fast paths live and the sweep
  // residue would vary with which buckets the storm dirtied.
  auto anchor = this->adapter_.AcquireWrite({1000, 1064});
  // sweep(): a write acquisition covering every range this test uses traverses the
  // list, unlinking all marked nodes into this thread's pool; its own release then
  // leaves exactly one marked node behind. Sweeping before each measurement makes the
  // in-list residue constant, so pool-total conservation is exact.
  auto sweep = [&] {
    auto h = this->adapter_.AcquireWrite({0, 100});
    this->adapter_.Release(h);
  };
  auto pool_total = [] {
    auto& pool = NodePool<LNode>::Local();
    return pool.ActiveSize() + pool.ReclaimedSize();
  };
  sweep();
  const std::size_t baseline = pool_total();
  auto h = this->adapter_.AcquireWrite({0, 10});
  typename TypeParam::Handle t{};
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(this->adapter_.TryAcquireWrite({5, 15}, &t));
    EXPECT_FALSE(this->adapter_.TryAcquireRead({5, 15}, &t));
    EXPECT_FALSE(this->adapter_.AcquireWriteFor({5, 15}, 1ms, &t));
    EXPECT_FALSE(this->adapter_.AcquireReadFor({5, 15}, 1ms, &t));
  }
  this->adapter_.Release(h);
  sweep();
  // Every aborted acquisition returned its node to the pool (directly, or via the
  // sweep's unlink of a self-deleted in-list node). Under ASan, an actually dropped
  // node would additionally be reported as a leak at exit.
  EXPECT_EQ(pool_total(), baseline);
  this->adapter_.Release(anchor);
}

TYPED_TEST(LockConformanceTest, StressWithOccasionalFullRange) {
  // Mixed-width hammer: mostly small ranges, occasionally Range::Full(). Exercises the
  // list locks' wait-then-retraverse and helping paths far more than uniform smalls.
  constexpr uint64_t kUniverse = 64;
  testing::RangeOracle oracle(kUniverse);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0xf00d + t);
      for (int i = 0; i < 600; ++i) {
        const bool full = rng.NextChance(0.02);
        uint64_t a = rng.NextBelow(kUniverse);
        const Range r = full ? Range::Full() : Range{a, a + 1 + rng.NextBelow(8)};
        if (full || rng.NextChance(0.4)) {
          auto h = this->adapter_.AcquireWrite(r);
          oracle.EnterWrite(r);
          oracle.ExitWrite(r);
          this->adapter_.Release(h);
        } else {
          auto h = this->adapter_.AcquireRead(r);
          oracle.EnterRead(r);
          oracle.ExitRead(r);
          this->adapter_.Release(h);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

}  // namespace
}  // namespace srl
