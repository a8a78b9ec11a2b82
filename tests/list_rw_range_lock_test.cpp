// Tests for the reader-writer list-based range lock (§4.2, Listings 2–3).
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fair_list_range_lock.h"
#include "src/core/list_rw_range_lock.h"
#include "src/core/lnode.h"
#include "src/epoch/node_pool.h"
#include "src/harness/prng.h"
#include "src/sync/pause.h"
#include "tests/common/range_oracle.h"
#include "tests/common/test_clock.h"

namespace srl {
namespace {

using namespace std::chrono_literals;
using testing::StaysFalse;

// Multi-bucket geometry: 16-unit windows over 16 buckets. The Fibonacci bucket hash
// sends windows 0, 1 and 2 (units [0,16), [16,32), [32,48)) to buckets 0, 9 and 3.
constexpr ListRwRangeLock::Options kBucketed{.buckets = 16, .window_shift = 4};

TEST(ListRwRangeLockTest, ReadWriteSingleThread) {
  ListRwRangeLock lock;
  auto r = lock.LockRead({0, 10});
  ASSERT_NE(r, nullptr);
  lock.Unlock(r);
  auto w = lock.LockWrite({0, 10});
  ASSERT_NE(w, nullptr);
  lock.Unlock(w);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
}

TEST(ListRwRangeLockTest, OverlappingReadersShare) {
  ListRwRangeLock lock;
  auto r1 = lock.LockRead({0, 100});
  std::atomic<bool> second_in{false};
  std::thread t([&] {
    auto r2 = lock.LockRead({50, 150});  // overlaps r1; must not block
    second_in.store(true);
    lock.Unlock(r2);
  });
  t.join();  // terminates while r1 is still held
  EXPECT_TRUE(second_in.load());
  lock.Unlock(r1);
}

TEST(ListRwRangeLockTest, SameRangeReadersShare) {
  ListRwRangeLock lock;
  auto r1 = lock.LockRead({0, 10});
  auto r2 = lock.LockRead({0, 10});  // identical range, same start — still shared
  EXPECT_EQ(lock.DebugHeldCount(), 2);
  lock.Unlock(r1);
  lock.Unlock(r2);
}

TEST(ListRwRangeLockTest, WriterBlocksOverlappingReader) {
  ListRwRangeLock lock;
  auto w = lock.LockWrite({0, 100});
  std::atomic<bool> reader_in{false};
  std::thread t([&] {
    auto r = lock.LockRead({50, 60});
    reader_in.store(true);
    lock.Unlock(r);
  });
  EXPECT_TRUE(StaysFalse([&] { return reader_in.load(); }));
  lock.Unlock(w);
  t.join();
  EXPECT_TRUE(reader_in.load());
}

TEST(ListRwRangeLockTest, ReaderBlocksOverlappingWriter) {
  ListRwRangeLock lock;
  auto r = lock.LockRead({0, 100});
  std::atomic<bool> writer_in{false};
  std::thread t([&] {
    auto w = lock.LockWrite({50, 60});
    writer_in.store(true);
    lock.Unlock(w);
  });
  EXPECT_TRUE(StaysFalse([&] { return writer_in.load(); }));
  lock.Unlock(r);
  t.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(ListRwRangeLockTest, WritersExcludeEachOther) {
  ListRwRangeLock lock;
  auto w1 = lock.LockWrite({0, 100});
  std::atomic<bool> second_in{false};
  std::thread t([&] {
    auto w2 = lock.LockWrite({50, 150});
    second_in.store(true);
    lock.Unlock(w2);
  });
  EXPECT_TRUE(StaysFalse([&] { return second_in.load(); }));
  lock.Unlock(w1);
  t.join();
  EXPECT_TRUE(second_in.load());
}

TEST(ListRwRangeLockTest, DisjointWritersProceedInParallel) {
  ListRwRangeLock lock;
  auto w1 = lock.LockWrite({0, 10});
  std::atomic<bool> second_in{false};
  std::thread t([&] {
    auto w2 = lock.LockWrite({20, 30});
    second_in.store(true);
    lock.Unlock(w2);
  });
  t.join();
  EXPECT_TRUE(second_in.load());
  lock.Unlock(w1);
}

TEST(ListRwRangeLockTest, ReaderPastWriterRangeNotBlocked) {
  ListRwRangeLock lock;
  auto w = lock.LockWrite({0, 10});
  std::atomic<bool> reader_in{false};
  std::thread t([&] {
    auto r = lock.LockRead({10, 20});  // adjacent — precise half-open semantics
    reader_in.store(true);
    lock.Unlock(r);
  });
  t.join();
  EXPECT_TRUE(reader_in.load());
  lock.Unlock(w);
}

// Hammers the Figure-1 race: a reader whose range starts before existing readers and a
// writer that fits in a gap further down the list insert at different positions and can
// only be serialized by the validation step.
void Figure1RaceHammer(ListRwRangeLock& lock) {
  constexpr int kIters = 3000;
  constexpr uint64_t kUniverse = 64;
  testing::RangeOracle oracle(kUniverse);
  std::atomic<bool> stop{false};

  // Background readers recreate the [1,10) [20,25) [40,45) population continuously.
  std::vector<std::thread> background;
  for (uint64_t base : {uint64_t{1}, uint64_t{20}, uint64_t{40}}) {
    background.emplace_back([&, base] {
      const Range r{base, base + 5};
      while (!stop.load()) {
        auto h = lock.LockRead(r);
        oracle.EnterRead(r);
        oracle.ExitRead(r);
        lock.Unlock(h);
      }
    });
  }

  std::thread reader([&] {
    const Range r{15, 45};  // spans the writer's target
    for (int i = 0; i < kIters; ++i) {
      auto h = lock.LockRead(r);
      oracle.EnterRead(r);
      oracle.ExitRead(r);
      lock.Unlock(h);
    }
  });
  std::thread writer([&] {
    const Range r{30, 35};
    for (int i = 0; i < kIters; ++i) {
      auto h = lock.LockWrite(r);
      oracle.EnterWrite(r);
      oracle.ExitWrite(r);
      lock.Unlock(h);
    }
  });
  reader.join();
  writer.join();
  stop.store(true);
  for (auto& th : background) {
    th.join();
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  EXPECT_TRUE(lock.DebugInvariantHolds());
}

TEST(ListRwRangeLockTest, Figure1RaceHammer) {
  ListRwRangeLock lock;
  Figure1RaceHammer(lock);
}

// The same hammer on the bucketed geometry: the reader covers buckets {0, 3, 9} and the
// writer {3, 9}, so the two serialize across several lists and release prefixes on
// every timed-out or restarted acquisition.
TEST(ListRwRangeLockTest, Figure1RaceHammerBucketed) {
  ListRwRangeLock lock(kBucketed);
  Figure1RaceHammer(lock);
}

// Every field is 8 bytes wide, so the struct has no padding: gtest names each case after
// the param's raw bytes, and padding bytes would make those names differ from build to
// build.
struct RwStressParam {
  int64_t threads;
  double write_fraction;
  int64_t patience;  // 0 runs the plain ListRwRangeLock, otherwise FairListRwRangeLock
};

class ListRwStressTest : public ::testing::TestWithParam<RwStressParam> {};

TEST_P(ListRwStressTest, MixedWorkloadExclusion) {
  const RwStressParam param = GetParam();
  constexpr uint64_t kUniverse = 128;
  constexpr int kIters = 3000;
  testing::RangeOracle oracle(kUniverse);

  auto body = [&](auto& lock, int tid) {
    Xoshiro256 rng(0xc0ffee00 + tid);
    for (int i = 0; i < kIters; ++i) {
      uint64_t a = rng.NextBelow(kUniverse);
      uint64_t b = rng.NextBelow(kUniverse);
      if (a > b) {
        std::swap(a, b);
      }
      const Range r{a, b + 1};
      if (rng.NextChance(param.write_fraction)) {
        auto h = lock.LockWrite(r);
        oracle.EnterWrite(r);
        oracle.ExitWrite(r);
        lock.Unlock(h);
      } else {
        auto h = lock.LockRead(r);
        oracle.EnterRead(r);
        oracle.ExitRead(r);
        lock.Unlock(h);
      }
    }
  };

  auto run = [&](auto& lock) {
    std::vector<std::thread> threads;
    for (int t = 0; t < param.threads; ++t) {
      threads.emplace_back([&, t] { body(lock, t); });
    }
    for (auto& th : threads) {
      th.join();
    }
  };

  if (param.patience > 0) {
    FairListRwRangeLock lock(
        FairListRwRangeLock::Options{.patience = static_cast<int>(param.patience)});
    run(lock);
  } else {
    ListRwRangeLock lock;
    run(lock);
    EXPECT_EQ(lock.DebugHeldCount(), 0);
    EXPECT_TRUE(lock.DebugInvariantHolds());
  }
  EXPECT_FALSE(oracle.Violated());
  EXPECT_TRUE(oracle.Quiescent());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListRwStressTest,
    ::testing::Values(RwStressParam{4, 0.0, 0}, RwStressParam{4, 0.2, 0},
                      RwStressParam{4, 0.5, 0}, RwStressParam{8, 0.2, 0},
                      RwStressParam{8, 0.5, 0}, RwStressParam{8, 1.0, 0},
                      RwStressParam{4, 0.2, 4}, RwStressParam{8, 0.5, 4}),
    [](const ::testing::TestParamInfo<RwStressParam>& info) {
      // Appended piecewise: chained operator+ temporaries trip a GCC 12 -Wrestrict
      // false positive at -O3, which -Werror turns into a Release build failure.
      std::string name = "t";
      name += std::to_string(info.param.threads);
      name += "_w";
      name += std::to_string(static_cast<int>(info.param.write_fraction * 100));
      if (info.param.patience > 0) {
        name += "_fair";
      }
      return name;
    });

// Writers under a constant reader stream must still complete (validation restarts are
// bounded in practice; the fairness layer guarantees it outright).
TEST(ListRwRangeLockTest, WriterCompletesUnderReaderStream) {
  ListRwRangeLock lock;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto h = lock.LockRead({0, 100});
        lock.Unlock(h);
      }
    });
  }
  std::atomic<int> writes_done{0};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      auto h = lock.LockWrite({40, 60});
      writes_done.fetch_add(1);
      lock.Unlock(h);
    }
  });
  writer.join();
  stop.store(true);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(writes_done.load(), 200);
}

// Drives the Figure-1 race until a timed reader expires *inside* r_validate and
// self-deletes its already-enqueued node — the one abort path a single thread cannot
// reach (any pre-insertion conflict aborts before the node enters the list). A held
// seed reader at [2,3) forces the racing reader [0,10) and writer [5,15) to insert at
// different list positions, so neither sees the other before its validation pass. The
// invariant checks (and ASan/TSan in the sanitizer configs) then verify the self-delete
// left the list structurally sound with nothing leaked.
void TimedReaderAbortsInsideValidation(ListRwRangeLock& lock) {
  auto seed = lock.LockRead({2, 3});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto h = lock.LockWrite({5, 15});
      lock.Unlock(h);
    }
  });
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  uint64_t reader_successes = 0;
  while (lock.DebugRValidateAborts() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    ListRwRangeLock::Handle h = nullptr;
    if (lock.LockReadFor({0, 10}, 3us, &h)) {
      ++reader_successes;
      lock.Unlock(h);
    }
  }
  stop.store(true);
  writer.join();
  const uint64_t aborts = lock.DebugRValidateAborts();
  lock.Unlock(seed);
  // Whatever mix of aborts and successes the race produced, the list must be sound:
  // both ranges reacquirable, invariant intact, only residue reclaimable.
  auto w = lock.LockWrite(Range::Full());
  lock.Unlock(w);
  EXPECT_TRUE(lock.DebugInvariantHolds());
  if (aborts == 0) {
    GTEST_SKIP() << "race window never hit (reader successes: " << reader_successes
                 << "); structural checks still passed";
  }
}

TEST(ListRwRangeLockTest, TimedReaderAbortsInsideValidation) {
  ListRwRangeLock lock;
  TimedReaderAbortsInsideValidation(lock);
}

// All three ranges lie in window 0, so the race runs in bucket 0 of the 16-bucket lock;
// the closing Range::Full() writer then spans every bucket.
TEST(ListRwRangeLockTest, TimedReaderAbortsInsideValidationBucketed) {
  ListRwRangeLock lock(kBucketed);
  TimedReaderAbortsInsideValidation(lock);
}

// Writer restart on the bucketed geometry. The writer W = [30,35) covers windows 1 and
// 2, i.e. buckets 9 and 3, so it holds bucket 3 (its prefix) while it inserts and
// validates in bucket 9. There 448 held seed readers on [16,30) separate W's insertion
// point from that of the reader R = [10,31) (buckets 0 and 9), which starts before
// them: the Figure-1 race, now with a prefix on both sides. The seeds make W's
// traversal long enough for R to land at the head behind it, and R pauses between
// acquisitions because readers have priority — a reader that re-acquires at once
// keeps W waiting on it. When R's node lands in bucket 9 between W's insert and W's
// w_validate, W self-deletes there, must release bucket 3 and restart — keeping
// bucket 3 would leave W waiting on its own stale node, so its timed acquisition would
// time out and the node would still count as held. R alternates blocking and timed
// acquisitions, so a timed R that expires in r_validate releases its bucket-0 prefix
// the same way. Afterwards no node may be held and the node pool must balance across
// both threads.
// One round of the race on a fresh lock; returns how many writer restarts it drove.
uint64_t BucketedWriterRestartRound() {
  // Every acquisition takes a few nodes; each thread's pool is pre-warmed well beyond
  // what kOps of them can take, so no Alloc refills (a refill mallocs or trims, which
  // the conservation count below cannot tell from a leak or a double return).
  constexpr int kOps = 10000;
  constexpr std::size_t kPrewarm = 4 * kOps;
  ListRwRangeLock lock(kBucketed);
  auto prewarm = [] {
    auto& pool = NodePool<LNode>::Local();
    std::vector<LNode*> nodes(kPrewarm);
    for (LNode*& n : nodes) {
      n = pool.Alloc();
    }
    for (LNode* n : nodes) {
      pool.Recycle(n);
    }
  };
  auto pool_total = [] {
    auto& pool = NodePool<LNode>::Local();
    return pool.ActiveSize() + pool.ReclaimedSize();
  };
  // Covers all 16 windows' buckets: no bucket is ever empty, so the fast path (which
  // recycles eagerly) stays out of play and the sweep residue is one node per bucket.
  auto anchor = lock.LockRead({1000, 1000 + 16 * 16});
  // A writer over the whole space traverses every bucket, unlinking all marked nodes
  // into this thread's pool; its release leaves exactly one marked node per bucket.
  // Timed, so that a node leaked as held fails the test instead of hanging it.
  auto sweep = [&] {
    ListRwRangeLock::Handle h = nullptr;
    if (!lock.LockWriteFor({0, 256}, 2s, &h)) {
      return false;
    }
    lock.Unlock(h);
    return true;
  };

  std::atomic<bool> go{false};
  std::atomic<bool> reader_running{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_done{false};
  std::atomic<bool> swept{false};
  std::atomic<std::size_t> reader_baseline{0};
  std::atomic<std::size_t> reader_final{0};
  std::thread reader([&] {
    prewarm();
    reader_baseline.store(pool_total());
    while (!go.load()) {
      std::this_thread::yield();
    }
    reader_running.store(true);
    for (int i = 0; i < kOps && !stop.load(); ++i) {
      ListRwRangeLock::Handle h = nullptr;
      if (i % 2 == 0) {
        h = lock.LockRead({10, 31});
      } else if (!lock.LockReadFor({10, 31}, 3us, &h)) {
        continue;
      }
      lock.Unlock(h);
      for (int s = 0; s < 64; ++s) {
        CpuRelax();
      }
    }
    reader_done.store(true);
    while (!swept.load()) {
      std::this_thread::yield();
    }
    reader_final.store(pool_total());
  });
  prewarm();
  while (reader_baseline.load() == 0) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(sweep());
  const std::size_t baseline_sum = pool_total() + reader_baseline.load();
  std::vector<ListRwRangeLock::Handle> seeds;
  for (uint64_t start = 16; start < 30; ++start) {
    for (int copy = 0; copy < 32; ++copy) {
      seeds.push_back(lock.LockRead({start, start + 1}));
    }
  }
  go.store(true);
  while (!reader_running.load()) {
    std::this_thread::yield();
  }
  int timeouts = 0;
  for (int i = 0; i < kOps && lock.DebugWValidateRestarts() == 0 && !reader_done.load();
       ++i) {
    ListRwRangeLock::Handle h = nullptr;
    if (!lock.LockWriteFor({30, 35}, 1s, &h)) {
      ++timeouts;
      break;
    }
    lock.Unlock(h);
  }
  stop.store(true);
  while (!reader_done.load()) {
    std::this_thread::yield();
  }
  for (ListRwRangeLock::Handle h : seeds) {
    lock.Unlock(h);
  }
  EXPECT_EQ(timeouts, 0) << "the writer never got [30,35) back after a restart";
  // With the reader gone the writer must get through at once.
  ListRwRangeLock::Handle w = nullptr;
  EXPECT_TRUE(lock.TryLockWrite({30, 35}, &w));
  if (w != nullptr) {
    lock.Unlock(w);
  }
  // Collects every marked node: restarted writers', aborted readers', releases.
  EXPECT_TRUE(sweep()) << "a node is still held after every acquisition released";
  const std::size_t my_final = pool_total();
  swept.store(true);
  reader.join();
  EXPECT_EQ(lock.DebugHeldCount(), 16);  // the anchor's node in each bucket
  EXPECT_TRUE(lock.DebugInvariantHolds());
  EXPECT_EQ(my_final + reader_final.load(), baseline_sum);
  lock.Unlock(anchor);
  EXPECT_EQ(lock.DebugHeldCount(), 0);
  return lock.DebugWValidateRestarts();
}

TEST(ListRwRangeLockTest, BucketedWriterRestartReleasesPrefix) {
  // A round hits the race more often than not; a few rounds make a miss rare.
  uint64_t restarts = 0;
  for (int round = 0; round < 10 && restarts == 0 && !HasFailure(); ++round) {
    restarts = BucketedWriterRestartRound();
  }
  if (restarts == 0 && !HasFailure()) {
    GTEST_SKIP() << "race window never hit; structural checks still passed";
  }
}

}  // namespace
}  // namespace srl
