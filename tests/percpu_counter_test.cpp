// Per-CPU event counters (src/sync/percpu_counter.h) and the VM counters built on them:
// totals stay exact under concurrency, with more threads than slots, a forced shared
// slot, and real fault/churn traffic through AddressSpace and VmLock.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/prng.h"
#include "src/sync/percpu_counter.h"
#include "src/vm/address_space.h"

namespace srl {
namespace {

TEST(PerCpuCounterTest, SlotCountIsAPowerOfTwoCappedAtMaxSlots) {
  EXPECT_EQ(PerCpuCounters(1, 0).Slots(), 1u);
  EXPECT_EQ(PerCpuCounters(1, 3).Slots(), 4u);
  EXPECT_EQ(PerCpuCounters(1, 1000).Slots(), PerCpuCounters::kMaxSlots);
  const unsigned slots = PerCpuCounters::DefaultSlots();
  EXPECT_EQ(slots & (slots - 1), 0u);
  EXPECT_LE(slots, PerCpuCounters::kMaxSlots);
  EXPECT_GE(slots, std::min(Topology::Get().CpuCount(), PerCpuCounters::kMaxSlots));
  EXPECT_EQ(PerCpuCounters(1).Slots(), slots);
}

TEST(PerCpuCounterTest, CountersSpanningSeveralLinesStayIndependent) {
  PerCpuCounters set(20);  // 20 counters: three lines per slot
  for (std::size_t i = 0; i < set.Size(); ++i) {
    set.Add(i, i + 1);
  }
  for (std::size_t i = 0; i < set.Size(); ++i) {
    EXPECT_EQ(set.Sum(i), i + 1) << "counter " << i;
  }
  PerCpuCounter handle(&set, 7);
  handle.Add();
  handle.Add(10);
  EXPECT_EQ(handle.load(), 8u + 11u);
  EXPECT_EQ(set.Sum(6), 7u);
  EXPECT_EQ(set.Sum(8), 9u);
}

// More threads than slots, including a single slot every thread shares: an increment
// that is not one atomic RMW loses updates here.
TEST(PerCpuCounterTest, MoreThreadsThanSlotsCountExactly) {
  constexpr uint64_t kAdds = 100000;
  for (unsigned slots : {1u, 2u, PerCpuCounters::DefaultSlots()}) {
    PerCpuCounters set(3, slots);
    const unsigned threads = set.Slots() + 4;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&set] {
        for (uint64_t i = 0; i < kAdds; ++i) {
          set.Add(1);
        }
        set.Add(2, 3);
      });
    }
    for (auto& th : pool) {
      th.join();
    }
    EXPECT_EQ(set.Sum(1), threads * kAdds) << set.Slots() << " slots";
    EXPECT_EQ(set.Sum(0), 0u);
    EXPECT_EQ(set.Sum(2), threads * 3u);
  }
}

}  // namespace

namespace vm {
namespace {

constexpr int kThreads = 4;

class PerCpuCounterVmTest : public ::testing::TestWithParam<VmVariant> {};

// 4 threads fault a scoped mapping with no structural op in flight: every fault
// resolves on the lock-free path, each page installs exactly once, and the per-stripe
// counts land on the mapping's stripe only.
TEST_P(PerCpuCounterVmTest, ConcurrentFaultsCountExactly) {
  constexpr uint64_t kPages = 256;
  constexpr uint64_t kRounds = 400;  // each thread faults every page kRounds times
  AddressSpace as(GetParam(), 4);
  const unsigned map_stripe = as.Stripes() - 1;
  const uint64_t base = as.MmapInStripe(map_stripe, kPages * AddressSpace::kPageSize,
                                        kProtRead | kProtWrite);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(0xfa017 + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < kPages * kRounds; ++i) {
        const uint64_t page = (i + static_cast<uint64_t>(t) * kPages / kThreads) % kPages;
        ASSERT_TRUE(as.PageFault(base + page * AddressSpace::kPageSize,
                                 rng.NextChance(0.3)));
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  const uint64_t n = kThreads * kPages * kRounds;
  const VmStats& st = as.Stats();
  EXPECT_EQ(st.Faults(), n);
  EXPECT_EQ(st.FaultSpecOk(), n);
  EXPECT_EQ(st.MajorFaults(), kPages);
  EXPECT_EQ(st.fault_spec_fallback.load(), 0u);
  EXPECT_EQ(st.fault_errors.load(), 0u);
  EXPECT_EQ(as.PresentPages(), kPages);
  for (unsigned i = 0; i < st.StripeCount(); ++i) {
    const uint64_t want = i == map_stripe ? n : 0;
    EXPECT_EQ(st.stripe(i).faults.load(), want) << "stripe " << i;
    EXPECT_EQ(st.stripe(i).fault_spec_ok.load(), want) << "stripe " << i;
  }
}

// 4 churn threads, one per stripe: every mmap and munmap takes exactly one ranged write
// acquisition, and none degrades to a full-range write.
TEST_P(PerCpuCounterVmTest, ConcurrentChurnCountsEveryWriteAcquisition) {
  constexpr uint64_t kCycles = 2000;
  constexpr uint64_t kScratch = 4 * AddressSpace::kPageSize;
  AddressSpace as(GetParam(), 4);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const unsigned stripe = static_cast<unsigned>(t) % as.Stripes();
      for (uint64_t i = 0; i < kCycles; ++i) {
        const uint64_t addr = as.MmapInStripe(stripe, kScratch, kProtRead | kProtWrite);
        ASSERT_TRUE(as.PageFault(addr, true));
        ASSERT_TRUE(as.Munmap(addr, kScratch));
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
  const uint64_t n = kThreads * kCycles;
  const VmStats& st = as.Stats();
  EXPECT_EQ(st.mmaps.load(), n);
  EXPECT_EQ(st.munmaps.load(), n);
  EXPECT_EQ(st.scoped_structural.load(), 2 * n);
  EXPECT_EQ(as.Lock().RangedWriteAcquisitions(), st.mmaps.load() + st.munmaps.load());
  EXPECT_EQ(as.Lock().FullWriteAcquisitions(), 0u);
  EXPECT_EQ(st.Faults(), n);
  EXPECT_EQ(st.MajorFaults(), n);
  EXPECT_TRUE(as.CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(Scoped, PerCpuCounterVmTest,
                         ::testing::Values(VmVariant::kTreeScoped, VmVariant::kListScoped,
                                           VmVariant::kListLfScoped,
                                           VmVariant::kSkiplistScoped),
                         [](const ::testing::TestParamInfo<VmVariant>& info) {
                           std::string name = VmVariantName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace vm
}  // namespace srl
