// Stripe-boundary semantics for the sharded address space: routing, the home-stripe
// policy, overflow-to-neighbour allocation, the no-straddle invariant at window edges,
// cross-stripe classification to the full-range path, and the per-stripe counter
// isolation claim (churn in stripe A causes no speculative-fault retries in stripe B).
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/prng.h"
#include "src/harness/throughput_runner.h"
#include "src/sync/topology.h"
#include "src/vm/address_space.h"

namespace srl::vm {
namespace {

constexpr uint64_t kPage = AddressSpace::kPageSize;
constexpr uint64_t kSpan = AddressSpace::kStripeSpan;

TEST(VmStripeTest, StripeCountClampsAndRoundsToPowerOfTwo) {
  EXPECT_EQ(AddressSpace(VmVariant::kListScoped, 4).Stripes(), 4u);
  EXPECT_EQ(AddressSpace(VmVariant::kListScoped, 3).Stripes(), 4u);
  EXPECT_EQ(AddressSpace(VmVariant::kListScoped, 200).Stripes(), 64u);
  EXPECT_EQ(AddressSpace(VmVariant::kListScoped, 1).Stripes(), 1u);
  // Non-scoped variants default to one stripe (full-range structural ops serialize
  // everything anyway) but accept explicit striping.
  EXPECT_EQ(AddressSpace(VmVariant::kStock).Stripes(), 1u);
  EXPECT_EQ(AddressSpace(VmVariant::kTreeFull, 8).Stripes(), 8u);
}

TEST(VmStripeTest, MmapInStripeCarvesFromThatWindow) {
  AddressSpace as(VmVariant::kListScoped, 8);
  ASSERT_EQ(as.Stripes(), 8u);
  for (unsigned i = 0; i < 8; ++i) {
    const uint64_t addr = as.MmapInStripe(i, 4 * kPage, kProtRead | kProtWrite);
    ASSERT_NE(addr, 0u);
    EXPECT_EQ(as.StripeOf(addr), i);
    EXPECT_GE(addr, AddressSpace::kMmapBase + i * kSpan);
    EXPECT_LT(addr + 4 * kPage, AddressSpace::kMmapBase + (i + 1) * kSpan);
    EXPECT_TRUE(as.PageFault(addr, true));
  }
  EXPECT_EQ(as.MmapInStripe(8, kPage, kProtRead), 0u) << "stripe index out of range";
  EXPECT_TRUE(as.CheckInvariants());
}

// Pins the single-core fallback policy deterministically on every host: with the
// topology probe forced to report one core, HomeStripe must ignore CPU placement and
// use registration-order round-robin (on a real multicore host the CPU-derived
// assignment is exercised instead and thread homes may legitimately collide).
class ForcedSingleCore {
 public:
  ForcedSingleCore() { Topology::TestOnlyForceSingleCore(true); }
  ~ForcedSingleCore() { Topology::TestOnlyForceSingleCore(false); }
};

TEST(VmStripeTest, HomeStripePolicySpreadsThreads) {
  ForcedSingleCore forced;
  AddressSpace as(VmVariant::kListScoped, 8);
  // 8 fresh threads draw consecutive registration tokens, so their home stripes must
  // be pairwise distinct — the "scoped mmaps from different threads share no state"
  // property reduces to this.
  std::vector<unsigned> homes(8, ~0u);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t addr = as.Mmap(2 * kPage, kProtRead);
      ASSERT_NE(addr, 0u);
      homes[static_cast<std::size_t>(t)] = as.StripeOf(addr);
      EXPECT_EQ(as.HomeStripe(), as.StripeOf(addr));
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(std::set<unsigned>(homes.begin(), homes.end()).size(), 8u)
      << "threads hashed onto colliding home stripes";
  EXPECT_TRUE(as.CheckInvariants());
}

TEST(VmStripeTest, SingleCoreFallbackIsStablePerThread) {
  ForcedSingleCore forced;
  AddressSpace as(VmVariant::kListScoped, 4);
  // Each fresh thread's home stripe is stable across calls (the registration token is
  // drawn once per thread), and sequentially spawned threads walk the stripes round
  // robin modulo the stripe count.
  std::vector<unsigned> homes;
  for (int t = 0; t < 6; ++t) {
    std::thread([&] {
      const unsigned h1 = as.HomeStripe();
      const unsigned h2 = as.HomeStripe();
      EXPECT_EQ(h1, h2) << "home stripe not stable within a thread";
      homes.push_back(h1);
    }).join();
  }
  // Consecutive threads land on consecutive stripes mod 4 (whatever token the first
  // one drew): distinctness over any 4-thread window follows.
  for (std::size_t i = 1; i < homes.size(); ++i) {
    EXPECT_EQ(homes[i], (homes[i - 1] + 1) % 4)
        << "single-core fallback is not registration-order round-robin";
  }
}

// Pins the multicore policy: a thread's home stripe is the id of the CPU it first ran
// on, masked to the stripe count. The value is cached per thread, so each probe thread
// is pinned before its first HomeStripe() call.
TEST(VmStripeTest, HomeStripeFollowsCpu) {
  if (Topology::Get().SingleCore()) {
    GTEST_SKIP() << "single-core host: the registration-order fallback applies";
  }
  AddressSpace as(VmVariant::kListScoped, 4);
  const unsigned stripes = as.Stripes();
  std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 2) {
    GTEST_SKIP() << "needs at least 2 allowed CPUs, have " << cpus.size();
  }
  if (cpus.size() > stripes) {
    cpus.resize(stripes);
  }
  // Descending, so registration-order homing (consecutive tokens) cannot pass by luck.
  std::reverse(cpus.begin(), cpus.end());
  for (const int cpu : cpus) {
    bool pinned = false;
    std::thread([&] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0) {
        return;
      }
      pinned = true;
      const unsigned home = as.HomeStripe();
      EXPECT_EQ(home, static_cast<unsigned>(cpu) & (stripes - 1)) << "cpu " << cpu;
      const uint64_t addr = as.Mmap(2 * kPage, kProtRead);
      ASSERT_NE(addr, 0u);
      EXPECT_EQ(as.StripeOf(addr), home) << "cpu " << cpu;
    }).join();
    if (!pinned) {
      GTEST_SKIP() << "pinning to cpu " << cpu << " was refused";
    }
  }
  EXPECT_TRUE(as.CheckInvariants());
}

TEST(VmStripeTest, ExhaustedWindowOverflowsToNeighbour) {
  AddressSpace as(VmVariant::kListScoped, 4);
  // Nearly fill stripe 0's window, then ask it for more than the remainder: the
  // allocation must overflow to stripe 1 — wholly inside stripe 1's window, never
  // straddling the edge.
  const uint64_t big = as.MmapInStripe(0, kSpan - 4 * kPage, kProtRead);
  ASSERT_NE(big, 0u);
  EXPECT_EQ(as.StripeOf(big), 0u);
  const uint64_t spill = as.MmapInStripe(0, 16 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(spill, 0u);
  EXPECT_EQ(as.StripeOf(spill), 1u) << "exhausted window did not overflow to neighbour";
  EXPECT_EQ(as.StripeOf(spill + 16 * kPage - 1), 1u);
  EXPECT_EQ(as.Stats().stripe(1).mmap_overflow.load(), 1u);
  EXPECT_TRUE(as.PageFault(spill, true));
  // Exhaust every window (stripe 1 already carries the spill, so ask for a little
  // less than a full span): the allocator must fail cleanly rather than straddle.
  for (unsigned i = 1; i < 4; ++i) {
    ASSERT_NE(as.MmapInStripe(i, kSpan - 64 * kPage, kProtRead), 0u);
  }
  EXPECT_EQ(as.Mmap(kSpan, kProtRead), 0u) << "no window can fit a full span now";
  EXPECT_TRUE(as.CheckInvariants());
}

// An exact-fit carve ends flush at the window edge and the overflow allocation starts
// at the next window's base: two adjacent same-protection VMAs across a stripe edge.
// The merge sweep must refuse to absorb across the edge (a straddling VMA would be
// invisible to the other stripe's lookups), at identical user-visible semantics.
TEST(VmStripeTest, AdjacentVmasAcrossStripeEdgeNeverMerge) {
  AddressSpace as(VmVariant::kListScoped, 2);
  const uint32_t prot = kProtRead | kProtWrite;
  const uint64_t a = as.MmapInStripe(0, kSpan, prot);  // exact fit: [base, base+span)
  ASSERT_NE(a, 0u);
  ASSERT_EQ(a, AddressSpace::kMmapBase);
  const uint64_t b = as.MmapInStripe(0, 8 * kPage, prot);  // overflows to stripe 1
  ASSERT_EQ(b, a + kSpan) << "overflow allocation must start at the next window base";
  ASSERT_EQ(as.StripeOf(b), 1u);

  // Same-protection mprotect across the shared edge: coverage holds, the operation
  // classifies cross-stripe (full path), and the merge sweep sees two mergeable
  // neighbours — which must stay two VMAs.
  ASSERT_TRUE(as.Mprotect(b - 2 * kPage, 4 * kPage, prot));
  EXPECT_GT(as.Stats().cross_stripe_fallback.load(), 0u);
  const auto vmas = as.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 2u) << "merge sweep absorbed across a stripe edge";
  EXPECT_EQ(vmas[0], (VmaInfo{a, a + kSpan, prot}));
  EXPECT_EQ(vmas[1], (VmaInfo{b, b + 8 * kPage, prot}));
  // Lookups on both sides of the edge must keep resolving (a straddler would break
  // stripe 1's).
  EXPECT_TRUE(as.PageFault(b - kPage, true));
  EXPECT_TRUE(as.PageFault(b, true));
  EXPECT_TRUE(as.CheckInvariants());
}

TEST(VmStripeTest, CrossStripeMunmapFallsBackAndUnmapsBothSides) {
  AddressSpace as(VmVariant::kListScoped, 2);
  const uint32_t prot = kProtRead | kProtWrite;
  const uint64_t a = as.MmapInStripe(0, kSpan, prot);
  ASSERT_NE(a, 0u);
  const uint64_t b = as.MmapInStripe(0, 8 * kPage, prot);  // stripe 1, adjacent
  ASSERT_EQ(b, a + kSpan);
  ASSERT_TRUE(as.PageFault(b - kPage, true));
  ASSERT_TRUE(as.PageFault(b, true));

  const uint64_t before = as.Stats().cross_stripe_fallback.load();
  ASSERT_TRUE(as.Munmap(b - 2 * kPage, 4 * kPage));
  EXPECT_GT(as.Stats().cross_stripe_fallback.load(), before);
  const auto vmas = as.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 2u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, b - 2 * kPage, prot}));
  EXPECT_EQ(vmas[1], (VmaInfo{b + 2 * kPage, b + 8 * kPage, prot}));
  EXPECT_EQ(as.PresentPagesInRange(b - 2 * kPage, 4 * kPage), 0u)
      << "cross-stripe munmap left pages behind";
  EXPECT_FALSE(as.PageFault(b, false)) << "unmapped head half still faults in";
  EXPECT_TRUE(as.CheckInvariants());
}

// Deterministic failing cross-stripe Mprotect (error-path audit of the lock-free-list
// PR): an mprotect spanning a stripe edge classifies kCrossStripe and takes the
// full-range path — full write acquisition plus the affected stripes' mutation locks in
// ascending order — and then fails coverage against a hole. The fallback counter must
// tick exactly once per call (no double count on the way out), the early return must
// leave no VMA or protection changed, and the address space must keep functioning
// (locks released correctly on the error path).
TEST(VmStripeTest, FailingCrossStripeMprotectCountsOnceAndChangesNothing) {
  AddressSpace as(VmVariant::kListScoped, 2);
  const uint32_t prot = kProtRead | kProtWrite;
  const uint64_t a = as.MmapInStripe(0, kSpan, prot);  // exact fit: ends at the edge
  ASSERT_NE(a, 0u);
  const uint64_t b = as.MmapInStripe(0, 8 * kPage, prot);  // overflows to stripe 1
  ASSERT_EQ(b, a + kSpan);
  ASSERT_EQ(as.StripeOf(b), 1u);
  // Punch a hole wholly inside stripe 1 (scoped, no fallback).
  ASSERT_TRUE(as.Munmap(b + 2 * kPage, 2 * kPage));
  ASSERT_EQ(as.Stats().cross_stripe_fallback.load(), 0u);

  const auto before_vmas = as.SnapshotVmas();
  // Spans the edge AND the hole: classifies cross-stripe, then coverage fails (ENOMEM).
  for (int attempt = 0; attempt < 2; ++attempt) {
    const uint64_t before = as.Stats().cross_stripe_fallback.load();
    EXPECT_FALSE(as.Mprotect(b - 2 * kPage, 6 * kPage, kProtRead));
    EXPECT_EQ(as.Stats().cross_stripe_fallback.load(), before + 1)
        << "cross_stripe_fallback must tick exactly once per failing call";
    EXPECT_EQ(as.SnapshotVmas(), before_vmas)
        << "failed cross-stripe mprotect mutated the address space";
  }

  // The error path must have released everything: a covered cross-stripe mprotect over
  // the same edge still succeeds (and also counts exactly once).
  const uint64_t before = as.Stats().cross_stripe_fallback.load();
  ASSERT_TRUE(as.Mprotect(b - 2 * kPage, 4 * kPage, kProtRead));
  EXPECT_EQ(as.Stats().cross_stripe_fallback.load(), before + 1);
  const auto vmas = as.SnapshotVmas();
  ASSERT_EQ(vmas.size(), 4u);
  EXPECT_EQ(vmas[0], (VmaInfo{a, b - 2 * kPage, prot}));
  // Same protection on both sides of the edge, but the merge sweep must not absorb
  // across it — two read-only VMAs abutting at the stripe boundary.
  EXPECT_EQ(vmas[1], (VmaInfo{b - 2 * kPage, b, kProtRead}));
  EXPECT_EQ(vmas[2], (VmaInfo{b, b + 2 * kPage, kProtRead}));
  EXPECT_EQ(vmas[3], (VmaInfo{b + 4 * kPage, b + 8 * kPage, prot}));
  EXPECT_TRUE(as.PageFault(b - kPage, false));
  EXPECT_FALSE(as.PageFault(b - kPage, true)) << "read-only after the protect";
  EXPECT_TRUE(as.CheckInvariants());
}

// The acceptance claim of the sharding refactor, as a deterministic concurrent test:
// structural churn confined to stripe 0 must cause zero speculative-fault retries for
// faults confined to stripe 1 — their seqcounts share nothing. (Under the PR 4 global
// seqcount, every munmap invalidated every in-flight speculative fault.)
TEST(VmStripeTest, ChurnInOneStripeNeverRetriesFaultsInAnother) {
  for (const VmVariant variant : {VmVariant::kTreeScoped, VmVariant::kListScoped}) {
    AddressSpace as(variant, 4);
    constexpr uint64_t kPages = 64;
    const uint64_t base = as.MmapInStripe(1, kPages * kPage, kProtRead | kProtWrite);
    ASSERT_NE(base, 0u);

    std::atomic<bool> stop{false};
    std::atomic<bool> churn_ok{true};
    std::atomic<uint64_t> churn_cycles{0};
    std::thread churner([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t scratch = as.MmapInStripe(0, 4 * kPage, kProtRead | kProtWrite);
        if (scratch == 0 || as.StripeOf(scratch) != 0 ||
            !as.Munmap(scratch, 4 * kPage)) {
          churn_ok.store(false);
          return;
        }
        churn_cycles.fetch_add(1, std::memory_order_relaxed);
      }
    });

    // Fault until both sides have provably overlapped: plenty of faults AND plenty of
    // churn cycles (on one core the churner may not be scheduled until we yield).
    Xoshiro256 rng(0x57a11);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    uint64_t faults = 0;
    while ((faults < 20000 || churn_cycles.load(std::memory_order_relaxed) < 64) &&
           churn_ok.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      const uint64_t addr = base + rng.NextBelow(kPages) * kPage;
      ASSERT_TRUE(as.PageFault(addr, rng.NextChance(0.5)));
      if (++faults % 512 == 0) {
        std::this_thread::yield();  // hand the core to the churner
      }
    }
    stop.store(true);
    churner.join();
    ASSERT_TRUE(churn_ok.load());
    ASSERT_GE(churn_cycles.load(), 64u) << "churner starved; the race never happened";

    const VmStats& st = as.Stats();
    EXPECT_GT(st.stripe(1).fault_spec_ok.load(), 0u)
        << VmVariantName(variant) << ": faults never took the speculative path";
    EXPECT_EQ(st.stripe(1).fault_spec_retry.load(), 0u)
        << VmVariantName(variant)
        << ": stripe-0 churn invalidated stripe-1 faults — seqcounts not isolated";
    EXPECT_GT(st.stripe(0).scoped_structural.load(), 0u);
    EXPECT_EQ(st.stripe(0).fault_spec_ok.load(), 0u);
    EXPECT_TRUE(as.CheckInvariants());
  }
}

// Scoped structural ops pinned to distinct stripes account to their own stripe's
// counters and never degrade to the full-range path.
TEST(VmStripeTest, ScopedOpsAccountToTheirStripe) {
  AddressSpace as(VmVariant::kListScoped, 4);
  for (unsigned i = 0; i < 4; ++i) {
    const uint64_t addr = as.MmapInStripe(i, 8 * kPage, kProtNone);
    ASSERT_NE(addr, 0u);
    ASSERT_TRUE(as.Mprotect(addr, 4 * kPage, kProtRead));  // structural split, in-stripe
    ASSERT_TRUE(as.Munmap(addr + 6 * kPage, kPage));       // in-stripe munmap
  }
  const VmStats& st = as.Stats();
  for (unsigned i = 0; i < 4; ++i) {
    // mmap + split + munmap, each stripe-scoped and attributed to stripe i.
    EXPECT_GE(st.stripe(i).scoped_structural.load(), 3u) << "stripe " << i;
  }
  EXPECT_EQ(st.scoped_fallback.load(), 0u);
  EXPECT_EQ(st.cross_stripe_fallback.load(), 0u);
  EXPECT_GT(as.Lock().RangedWriteAcquisitions(), 0u);
  EXPECT_EQ(as.Lock().FullWriteAcquisitions(), 0u)
      << "an in-stripe op degraded to the full-range path";
  EXPECT_TRUE(as.CheckInvariants());
}

}  // namespace
}  // namespace srl::vm
