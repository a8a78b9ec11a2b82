// Targeted tests for the list-lock internals: the two compare() policies of the
// Listing-1 kernel, lazy unlink + helping, node-pool recycling across threads, bounded
// patience under real contention, the §4.5 fast-path handoff, and independence of
// multiple locks sharing the global epoch domain.
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/harris_list.h"
#include "src/core/list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/epoch/node_pool.h"
#include "src/harness/prng.h"
#include "tests/common/range_oracle.h"

namespace srl {
namespace {

// Listing 1's and Listing 2's compare() as a table: the relation of an in-list node
// `cur` to a node being inserted. -1 = keep traversing, 0 = conflict (wait), +1 =
// insert before cur. Ranges are half-open, so abutting ranges never conflict.
TEST(HarrisListOrderTest, CompareTable) {
  struct Row {
    const char* what;
    uint64_t cur_start, cur_end;
    bool cur_reader;
    uint64_t node_start, node_end;
    bool node_reader;
    int exclusive;  // ExclusiveOrder (ignores the reader flags)
    int rw;         // RwOrder
  };
  const Row rows[] = {
      {"cur abuts node on the left", 0, 10, false, 10, 20, false, -1, -1},
      {"cur abuts node on the right", 10, 20, false, 0, 10, false, 1, 1},
      {"readers abutting", 0, 10, true, 10, 20, true, -1, -1},
      {"one-unit overlap, cur first", 0, 10, false, 9, 20, false, 0, 0},
      {"one-unit overlap, node first", 9, 20, false, 0, 10, false, 0, 0},
      {"cur contains node", 0, 100, false, 40, 60, false, 0, 0},
      {"node contains cur", 40, 60, false, 0, 100, false, 0, 0},
      {"reader/reader, same start", 10, 20, true, 10, 30, true, 0, -1},
      {"reader/reader, node starts earlier", 10, 20, true, 5, 15, true, 0, 1},
      {"reader/reader, cur starts earlier", 5, 15, true, 10, 20, true, 0, -1},
      {"reader cur, writer node, same start", 10, 20, true, 10, 20, false, 0, 0},
      {"writer cur, reader node, same start", 10, 20, false, 10, 20, true, 0, 0},
  };
  for (const Row& row : rows) {
    LNode cur;
    cur.start = row.cur_start;
    cur.end = row.cur_end;
    cur.reader = row.cur_reader;
    LNode node;
    node.start = row.node_start;
    node.end = row.node_end;
    node.reader = row.node_reader;
    EXPECT_EQ(ExclusiveOrder::Compare(&cur, &node), row.exclusive) << row.what;
    EXPECT_EQ(RwOrder::Compare(&cur, &node), row.rw) << row.what;
  }
}

// Released nodes stay in the list (marked) until a later traversal unlinks them. A
// traversal that walks the whole list must collect every marked node it passes.
TEST(ListLockInternalsTest, TraversalCollectsMarkedNodes) {
  ListRangeLock lock;
  // Acquire + release a ladder of disjoint ranges: each release only marks.
  std::vector<ListRangeLock::Handle> handles;
  for (uint64_t i = 0; i < 32; ++i) {
    handles.push_back(lock.Lock({i * 10, i * 10 + 5}));
  }
  for (auto h : handles) {
    lock.Unlock(h);
  }
  // A traversal to the very end must physically unlink all 32 marked nodes.
  auto h = lock.Lock({1000, 1010});
  EXPECT_EQ(lock.DebugHeldCount(), 1);
  lock.Unlock(h);
}

// Nodes allocated by one thread can be unlinked (and thus pooled) by another; the
// pools must keep every thread supplied through a long imbalanced run.
TEST(ListLockInternalsTest, CrossThreadNodeRecycling) {
  ListRangeLock lock;
  constexpr int kIters = 30000;  // well above the pool target of 128
  std::atomic<bool> stop{false};
  // Thread B continuously acquires a range positioned after A's, so B's traversals
  // unlink A's marked nodes, draining them into B's pools.
  std::thread b([&] {
    while (!stop.load()) {
      auto h = lock.Lock({5000, 5010});
      lock.Unlock(h);
    }
  });
  for (int i = 0; i < kIters; ++i) {
    auto h = lock.Lock({0, 10});
    lock.Unlock(h);
  }
  stop.store(true);
  b.join();
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

// With zero patience and genuine CAS contention, LockBounded must sometimes give up —
// and a give-up must leave no residue in the list.
TEST(ListLockInternalsTest, LockBoundedGivesUpUnderContention) {
  ListRangeLock lock;
  std::atomic<uint64_t> give_ups{0};
  std::atomic<uint64_t> acquisitions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        ListRangeLock::Handle h = nullptr;
        // Disjoint 1-unit ranges at the head of the list: no blocking, pure CAS races.
        if (lock.LockBounded({static_cast<uint64_t>(i % 7) * 2,
                              static_cast<uint64_t>(i % 7) * 2 + 1},
                             /*max_failures=*/0, &h)) {
          acquisitions.fetch_add(1);
          lock.Unlock(h);
        } else {
          give_ups.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_GT(acquisitions.load(), 0u);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  // give_ups may be zero on an unloaded machine; the structural checks above are the
  // real assertions. Report for visibility.
  RecordProperty("give_ups", static_cast<int>(give_ups.load()));
}

// Many locks share the one global epoch domain; traffic on one lock must never corrupt
// another (nodes unlinked from lock A recycled into acquisitions on lock B).
TEST(ListLockInternalsTest, MultipleLocksShareEpochDomain) {
  constexpr int kLocks = 8;
  constexpr uint64_t kUniverse = 64;
  std::vector<std::unique_ptr<ListRwRangeLock>> locks;
  std::vector<std::unique_ptr<testing::RangeOracle>> oracles;
  for (int i = 0; i < kLocks; ++i) {
    locks.push_back(std::make_unique<ListRwRangeLock>());
    oracles.push_back(std::make_unique<testing::RangeOracle>(kUniverse));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0x10c + t);
      for (int i = 0; i < 8000; ++i) {
        const std::size_t li = rng.NextBelow(kLocks);
        uint64_t a = rng.NextBelow(kUniverse);
        uint64_t b = rng.NextBelow(kUniverse);
        if (a > b) {
          std::swap(a, b);
        }
        const Range r{a, b + 1};
        if (rng.NextChance(0.4)) {
          auto h = locks[li]->LockWrite(r);
          oracles[li]->EnterWrite(r);
          oracles[li]->ExitWrite(r);
          locks[li]->Unlock(h);
        } else {
          auto h = locks[li]->LockRead(r);
          oracles[li]->EnterRead(r);
          oracles[li]->ExitRead(r);
          locks[li]->Unlock(h);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int i = 0; i < kLocks; ++i) {
    EXPECT_FALSE(oracles[i]->Violated()) << "lock " << i;
    EXPECT_EQ(locks[i]->DebugHeldCount(), 0) << "lock " << i;
    EXPECT_TRUE(locks[i]->DebugInvariantHolds()) << "lock " << i;
  }
}

// Fast-path acquisitions interleaved with regular-path contention: the mark-at-head
// conversion protocol (§4.5) must stay consistent through repeated handoffs. Typed over
// both single-list locks; the RW lock mixes readers and writers, so fast-path readers
// and writers both get converted by the other mode's slow path.
template <typename Lock>
class FastPathHandoffTest : public ::testing::Test {
 protected:
  static constexpr bool kRw = std::is_same_v<Lock, ListRwRangeLock>;

  static typename Lock::Handle Acquire(Lock& lock, const Range& r, bool write) {
    if constexpr (kRw) {
      return write ? lock.LockWrite(r) : lock.LockRead(r);
    } else {
      return lock.Lock(r);
    }
  }
};

class HandoffLockNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, ListRwRangeLock> ? "list_rw" : "list_ex";
  }
};

using HandoffLocks = ::testing::Types<ListRangeLock, ListRwRangeLock>;
TYPED_TEST_SUITE(FastPathHandoffTest, HandoffLocks, HandoffLockNames);

TYPED_TEST(FastPathHandoffTest, FastPathConversionHandoffStress) {
  // NodePool conservation across the handoff, single-threaded so it is exact. Each
  // round takes a fresh (empty) lock, acquires a range on the fast path, then converts
  // that node with a disjoint slow-path acquisition. The lost fast release must mark
  // the node (it is in the list now) so that the sweep retires it exactly once;
  // recycling it as well would return it to the pool twice. Per round the pool hands
  // out three nodes, gets two back through the sweep's retires, and the lock's
  // destructor frees the sweep's own marked node: a net loss of exactly one.
  constexpr int kRounds = 32;
  auto& pool = NodePool<LNode>::Local();
  {
    // Pre-warm so no refill (which may allocate or free) runs inside the count.
    std::vector<LNode*> warm;
    for (int i = 0; i < 3 * kRounds; ++i) {
      warm.push_back(pool.Alloc());
    }
    for (LNode* n : warm) {
      pool.Recycle(n);
    }
  }
  auto pool_total = [&pool] { return pool.ActiveSize() + pool.ReclaimedSize(); };
  const std::size_t baseline = pool_total();
  for (int i = 0; i < kRounds; ++i) {
    TypeParam fresh;
    const std::size_t before = pool_total();
    auto fast = this->Acquire(fresh, {0, 2}, /*write=*/i % 2 == 0);  // empty list
    auto slow = this->Acquire(fresh, {10, 12}, /*write=*/true);      // strips `fast`
    fresh.Unlock(fast);
    fresh.Unlock(slow);
    // Both nodes are still in the list, marked; a recycled one would be handed out
    // again while still linked, so stop here rather than corrupt the list.
    ASSERT_EQ(pool_total(), before - 2) << "a converted fast-path node was recycled";
    fresh.Unlock(this->Acquire(fresh, {0, 100}, /*write=*/true));  // sweep
    EXPECT_EQ(fresh.DebugHeldCount(), 0);
  }
  EXPECT_EQ(pool_total(), baseline - kRounds);

  // Concurrent handoffs. Once any acquisition has taken the slow path, its marked
  // residue keeps the list non-empty, so a lock offers the fast path only while it is
  // young. The threads therefore walk a ring of fresh locks in step, kOpsPerLock
  // operations on each, so fast-path acquisitions keep racing strip conversions.
  constexpr int kLocks = 256;
  constexpr int kOpsPerLock = 40;
  constexpr uint64_t kUniverse = 32;
  std::vector<std::unique_ptr<TypeParam>> locks;
  std::vector<std::unique_ptr<testing::RangeOracle>> oracles;
  for (int i = 0; i < kLocks; ++i) {
    locks.push_back(std::make_unique<TypeParam>());
    oracles.push_back(std::make_unique<testing::RangeOracle>(kUniverse));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0xfa57 + t);
      for (int i = 0; i < kLocks * kOpsPerLock; ++i) {
        TypeParam& lock = *locks[i / kOpsPerLock];
        testing::RangeOracle& oracle = *oracles[i / kOpsPerLock];
        // Tiny, often non-overlapping ranges: the first few per lock race for the
        // fast path and the strip conversion.
        const uint64_t a = rng.NextBelow(kUniverse - 2);
        const Range r{a, a + 1 + rng.NextBelow(2)};
        const bool write = !this->kRw || rng.NextChance(0.5);
        auto h = this->Acquire(lock, r, write);
        if (write) {
          oracle.EnterWrite(r);
          oracle.ExitWrite(r);
        } else {
          oracle.EnterRead(r);
          oracle.ExitRead(r);
        }
        lock.Unlock(h);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int i = 0; i < kLocks; ++i) {
    EXPECT_FALSE(oracles[i]->Violated()) << "lock " << i;
    EXPECT_EQ(locks[i]->DebugHeldCount(), 0) << "lock " << i;
    EXPECT_TRUE(locks[i]->DebugInvariantHolds()) << "lock " << i;
  }
}

// RW lock: a full-range writer alternating with page-sized readers — the exact
// interleaving pattern of the VM subsystem's structural vs refined operations.
TEST(ListLockInternalsTest, FullRangeWriterVsFineReaders) {
  ListRwRangeLock lock;
  constexpr uint64_t kUniverse = 64;
  testing::RangeOracle oracle(kUniverse);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(0xbee + t);
      while (!stop.load()) {
        const uint64_t a = rng.NextBelow(kUniverse);
        const Range r{a, a + 1};
        auto h = lock.LockRead(r);
        oracle.EnterRead(r);
        oracle.ExitRead(r);
        lock.Unlock(h);
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    auto h = lock.LockWrite(Range::Full());
    oracle.EnterWrite({0, kUniverse});
    oracle.ExitWrite({0, kUniverse});
    lock.Unlock(h);
  }
  stop.store(true);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

}  // namespace
}  // namespace srl
