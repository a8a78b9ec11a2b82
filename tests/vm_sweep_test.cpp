// Deterministic battery for the page sweeps of Munmap and MadviseDontNeed: pages are
// gone when the call returns, a never-faulted region skips the sweep, the sweep's
// exclusive end spares the next stripe window, a cross-stripe munmap clips exactly,
// and a DONTNEED-vs-fault hammer on a repeatedly trimmed window. The concurrent
// fault-vs-unmap ordering claims live in vm_fault_unmap_race_test; this file pins the
// sweep itself, mostly single-threaded so every expectation is exact.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/vm/address_space.h"

namespace srl::vm {
namespace {

constexpr uint64_t kPage = AddressSpace::kPageSize;

struct SweepParam {
  VmVariant variant;
  unsigned stripes;
};

std::string SweepTestName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = VmVariantName(info.param.variant);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  if (info.param.stripes > 1) {
    name += "_s" + std::to_string(info.param.stripes);
  }
  return name;
}

class VmSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(VmSweepTest, MunmapDropsPagesBeforeReturning) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t base = as.Mmap(4 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(base, 0u);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(as.PageFault(base + p * kPage, true));
  }

  ASSERT_TRUE(as.Munmap(base, 4 * kPage));
  EXPECT_FALSE(as.PageFault(base, false));
  EXPECT_EQ(as.PresentPagesInRange(base, 4 * kPage), 0u)
      << "the sweep must finish before Munmap returns";
  EXPECT_TRUE(as.CheckInvariants());
}

TEST_P(VmSweepTest, DontNeedTrimsDropPagesBeforeReturning) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t base = as.Mmap(8 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(base, 0u);
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(as.PageFault(base + p * kPage, true));
  }

  // Three abutting trims; each drops exactly its own pages before returning.
  ASSERT_TRUE(as.MadviseDontNeed(base, 2 * kPage));
  EXPECT_EQ(as.PresentPagesInRange(base, 2 * kPage), 0u);
  EXPECT_EQ(as.PresentPagesInRange(base + 2 * kPage, 6 * kPage), 6u);
  ASSERT_TRUE(as.MadviseDontNeed(base + 2 * kPage, 2 * kPage));
  ASSERT_TRUE(as.MadviseDontNeed(base + 4 * kPage, 4 * kPage));
  EXPECT_EQ(as.PresentPagesInRange(base, 8 * kPage), 0u);

  // A fault after the madvise call repopulates its page durably, and only that page.
  ASSERT_TRUE(as.PageFault(base + kPage, true));
  EXPECT_EQ(as.PresentPagesInRange(base, kPage), 0u);
  EXPECT_EQ(as.PresentPagesInRange(base + kPage, kPage), 1u);
  EXPECT_EQ(as.PresentPagesInRange(base + 2 * kPage, 6 * kPage), 0u);
  EXPECT_TRUE(as.CheckInvariants());
}

// The dying VMA's present_hint is an upper bound on its installed pages, so a region
// that never faulted a page skips the sweep outright — and a sparsely faulted one must
// not.
TEST_P(VmSweepTest, NeverFaultedMunmapSkipsTheSweep) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t base = as.Mmap(256 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(base, 0u);
  // Fault only the front quarter — the arena shape.
  for (uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(as.PageFault(base + p * kPage, true));
  }
  ASSERT_TRUE(as.Munmap(base, 256 * kPage));
  EXPECT_EQ(as.PresentPagesInRange(base, 256 * kPage), 0u);
  EXPECT_EQ(as.Stats().sweeps_skipped_empty.load(), 0u);
  EXPECT_TRUE(as.CheckInvariants());

  const uint64_t cold = as.Mmap(16 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(cold, 0u);
  ASSERT_TRUE(as.Munmap(cold, 16 * kPage));
  EXPECT_EQ(as.Stats().sweeps_skipped_empty.load(), 1u);
  EXPECT_TRUE(as.CheckInvariants());
}

TEST_P(VmSweepTest, FlusherVsFaultHammerOnTrimmedWindow) {
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t base = as.Mmap(8 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(base, 0u);

  // The trimming thread is the flusher: every MadviseDontNeed sweeps inline, so its
  // RemoveRange runs concurrently with the faulting thread's installs all the time.
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::thread faulter([&] {
    uint64_t p = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (!as.PageFault(base + p * kPage, true)) {
        ok.store(false);  // the mapping never goes away: a fault must never fail
        return;
      }
      p = (p + 1) % 8;
    }
  });
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(as.MadviseDontNeed(base, 8 * kPage));
  }
  stop.store(true, std::memory_order_release);
  faulter.join();
  EXPECT_TRUE(ok.load());
  EXPECT_TRUE(as.CheckInvariants());

  // Quiesced, every page re-faults to a stable present state.
  for (uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(as.PageFault(base + p * kPage, true));
  }
  EXPECT_EQ(as.PresentPagesInRange(base, 8 * kPage), 8u);
  EXPECT_TRUE(as.CheckInvariants());
}

TEST_P(VmSweepTest, MunmapEndingExactlyOnStripeEdgeSparesTheNextWindow) {
  if (GetParam().stripes < 2) {
    GTEST_SKIP() << "needs at least two stripe windows";
  }
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t a = as.MmapInStripe(0, 4 * kPage, kProtRead | kProtWrite);
  const uint64_t b = as.MmapInStripe(1, 4 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(as.PageFault(a + p * kPage, true));
    ASSERT_TRUE(as.PageFault(b + p * kPage, true));
  }

  // Unmap from `a` to EXACTLY the end of stripe 0's window: the sweep's exclusive end
  // sits on the window edge, the canonical off-by-one trap. Stripe 1's first mapping
  // starts at most a page past the edge, so an inclusive-end sweep would eat its first
  // page.
  const uint64_t edge = VmaIndex::WindowEnd(0);
  ASSERT_TRUE(as.Munmap(a, edge - a));
  EXPECT_EQ(as.PresentPagesInRange(a, 4 * kPage), 0u);
  EXPECT_EQ(as.PresentPagesInRange(b, 4 * kPage), 4u)
      << "a sweep ending on the stripe edge leaked into the next window";
  EXPECT_TRUE(as.CheckInvariants());
}

TEST_P(VmSweepTest, CrossStripeMunmapSplitsTheSweepAtTheWindowEdge) {
  if (GetParam().stripes < 2) {
    GTEST_SKIP() << "needs at least two stripe windows";
  }
  AddressSpace as(GetParam().variant, GetParam().stripes);
  const uint64_t a = as.MmapInStripe(0, 4 * kPage, kProtRead | kProtWrite);
  const uint64_t b = as.MmapInStripe(1, 4 * kPage, kProtRead | kProtWrite);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(as.PageFault(a + p * kPage, true));
    ASSERT_TRUE(as.PageFault(b + p * kPage, true));
  }

  // One munmap spanning the edge: unmaps all of `a`, clips `b`'s first page. The
  // dead range is a window wide, so the sweep walks the page-table subtree of each
  // stripe it covers and must clip exactly at `b + kPage` inside the second one.
  ASSERT_TRUE(as.Munmap(a, b + kPage - a));
  EXPECT_EQ(as.PresentPagesInRange(a, 4 * kPage), 0u);
  EXPECT_EQ(as.PresentPagesInRange(b, kPage), 0u) << "clipped head page survived";
  EXPECT_EQ(as.PresentPagesInRange(b + kPage, 3 * kPage), 3u)
      << "the sweep overran the clip point";
  EXPECT_TRUE(as.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VmSweepTest,
    ::testing::Values(SweepParam{VmVariant::kStock, 1},
                      SweepParam{VmVariant::kTreeFull, 1},
                      SweepParam{VmVariant::kListRefined, 1},
                      SweepParam{VmVariant::kTreeScoped, 1},
                      SweepParam{VmVariant::kListScoped, 1},
                      SweepParam{VmVariant::kListLfScoped, 1},
                      SweepParam{VmVariant::kSkiplistScoped, 1},
                      // Multi-stripe spaces: sweeps must stay window-confined.
                      SweepParam{VmVariant::kTreeScoped, 4},
                      SweepParam{VmVariant::kListScoped, 4},
                      SweepParam{VmVariant::kListLfScoped, 4},
                      SweepParam{VmVariant::kSkiplistScoped, 4}),
    SweepTestName);

}  // namespace
}  // namespace srl::vm
