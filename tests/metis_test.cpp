// Tests for the arena allocator simulation and the Metis-like MapReduce workloads.
#include <cstring>
#include <gtest/gtest.h>

#include "src/metis/arena_allocator.h"
#include "src/metis/metis_job.h"
#include "src/metis/text_gen.h"
#include "src/metis/word_table.h"

namespace srl::metis {
namespace {

constexpr uint64_t kPage = vm::AddressSpace::kPageSize;

TEST(ArenaAllocatorTest, AllocReturnsUsableDistinctMemory) {
  vm::AddressSpace as(vm::VmVariant::kListRefined);
  ArenaAllocator arena(as, /*arena_pages=*/256, /*grow_chunk_pages=*/4);
  auto* a = static_cast<char*>(arena.Alloc(100));
  auto* b = static_cast<char*>(arena.Alloc(100));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  std::memset(a, 0xaa, 100);
  std::memset(b, 0xbb, 100);
  EXPECT_EQ(static_cast<uint8_t>(a[99]), 0xaa);
  EXPECT_EQ(static_cast<uint8_t>(b[0]), 0xbb);
  EXPECT_TRUE(arena.Healthy());
}

TEST(ArenaAllocatorTest, GrowthIssuesBoundaryMoveMprotects) {
  vm::AddressSpace as(vm::VmVariant::kListRefined);
  ArenaAllocator arena(as, 256, 4);
  // First allocation: structural split (the arena's first commit), then growth should
  // speculate.
  for (int i = 0; i < 40; ++i) {
    ASSERT_NE(arena.Alloc(8 * 1024), nullptr);
  }
  const auto& st = as.Stats();
  EXPECT_GE(st.mprotects.load(), 20u);
  EXPECT_EQ(st.spec_fallback.load(), 1u) << "only the first commit is structural";
  EXPECT_GT(st.SpeculationSuccessRate(), 0.9);
  EXPECT_TRUE(arena.Healthy());
  EXPECT_TRUE(as.CheckInvariants());
}

TEST(ArenaAllocatorTest, FaultsOncePerPage) {
  vm::AddressSpace as(vm::VmVariant::kStock);
  ArenaAllocator arena(as, 64, 4);
  arena.Alloc(kPage / 2);
  arena.Alloc(kPage / 2);  // same page + next page boundary
  const uint64_t faults = as.Stats().MajorFaults();
  EXPECT_GE(faults, 1u);
  EXPECT_LE(faults, 2u);
}

TEST(ArenaAllocatorTest, ResetShrinksAndDropsPages) {
  vm::AddressSpace as(vm::VmVariant::kListRefined);
  ArenaAllocator arena(as, 256, 4);
  for (int i = 0; i < 30; ++i) {
    arena.Alloc(16 * 1024);
  }
  const uint64_t committed_before = arena.CommittedBytes();
  EXPECT_GT(committed_before, 4 * kPage);
  arena.Reset();
  EXPECT_EQ(arena.CommittedBytes(), 4 * kPage);
  // Regrowth faults again (pages were dropped).
  const uint64_t mf_before = as.Stats().MajorFaults();
  for (int i = 0; i < 30; ++i) {
    arena.Alloc(16 * 1024);
  }
  EXPECT_GT(as.Stats().MajorFaults(), mf_before);
  EXPECT_TRUE(arena.Healthy());
  EXPECT_TRUE(as.CheckInvariants());
}

TEST(ArenaAllocatorTest, ExhaustionReturnsNull) {
  vm::AddressSpace as(vm::VmVariant::kStock);
  ArenaAllocator arena(as, 8, 2);  // tiny arena
  void* p = arena.Alloc(6 * kPage);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(arena.Alloc(4 * kPage), nullptr);
  EXPECT_TRUE(arena.Healthy());
}

TEST(TextGeneratorTest, DeterministicAndWellFormed) {
  TextGenerator a(42), b(42);
  std::string sa, sb;
  a.Fill(&sa, 10000);
  b.Fill(&sb, 10000);
  EXPECT_EQ(sa, sb);
  for (char c : sa) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || c == ' ');
  }
}

TEST(WordTableTest, CountsWords) {
  vm::AddressSpace as(vm::VmVariant::kStock);
  ArenaAllocator arena(as, 1024, 4);
  WordTable table(arena, /*track_positions=*/false);
  EXPECT_TRUE(table.Add("foo", 3, 0));
  EXPECT_TRUE(table.Add("bar", 3, 1));
  EXPECT_TRUE(table.Add("foo", 3, 2));
  EXPECT_EQ(table.DistinctWords(), 2u);
  uint64_t foo_count = 0;
  table.ForEach([&](const WordTable::Entry& e) {
    if (e.len == 3 && std::memcmp(e.word, "foo", 3) == 0) {
      foo_count = e.count;
    }
  });
  EXPECT_EQ(foo_count, 2u);
}

TEST(WordTableTest, GrowsPastInitialCapacityAndTracksPositions) {
  vm::AddressSpace as(vm::VmVariant::kStock);
  ArenaAllocator arena(as, 4096, 4);
  WordTable table(arena, /*track_positions=*/true, /*initial_capacity=*/16);
  char word[16];
  for (int i = 0; i < 5000; ++i) {
    const int len = std::snprintf(word, sizeof word, "w%d", i);
    ASSERT_TRUE(table.Add(word, static_cast<uint32_t>(len), static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(table.DistinctWords(), 5000u);
  uint64_t postings = 0;
  table.ForEach([&](const WordTable::Entry& e) {
    for (auto* pc = e.postings; pc != nullptr; pc = pc->next) {
      postings += pc->used;
    }
  });
  EXPECT_EQ(postings, 5000u);
}

class MetisJobTest : public ::testing::TestWithParam<MetisApp> {};

TEST_P(MetisJobTest, RunsAndProducesIdenticalResultsAcrossVariants) {
  MetisConfig cfg;
  cfg.app = GetParam();
  cfg.threads = 4;
  cfg.chunk_bytes = 64 * 1024;
  cfg.rounds = 3;
  cfg.seed = 7;

  MetisResult baseline;
  bool first = true;
  for (vm::VmVariant variant :
       {vm::VmVariant::kStock, vm::VmVariant::kTreeFull, vm::VmVariant::kTreeRefined,
        vm::VmVariant::kListFull, vm::VmVariant::kListRefined}) {
    vm::AddressSpace as(variant);
    const MetisResult r = RunMetis(as, cfg);
    ASSERT_TRUE(r.ok) << vm::VmVariantName(variant);
    EXPECT_GT(r.total_words, 0u);
    EXPECT_GT(r.distinct_words, 0u);
    EXPECT_TRUE(as.CheckInvariants()) << vm::VmVariantName(variant);
    if (first) {
      baseline = r;
      first = false;
    } else {
      // The computation must be lock-variant independent.
      EXPECT_EQ(r.total_words, baseline.total_words) << vm::VmVariantName(variant);
      EXPECT_EQ(r.distinct_words, baseline.distinct_words) << vm::VmVariantName(variant);
      EXPECT_EQ(r.checksum, baseline.checksum) << vm::VmVariantName(variant);
    }
  }
}

TEST_P(MetisJobTest, RefinedVariantSpeculatesHeavily) {
  MetisConfig cfg;
  cfg.app = GetParam();
  cfg.threads = 4;
  cfg.chunk_bytes = 64 * 1024;
  cfg.rounds = 4;
  vm::AddressSpace as(vm::VmVariant::kListRefined);
  const MetisResult r = RunMetis(as, cfg);
  ASSERT_TRUE(r.ok);
  // "over 99% of mprotect calls succeed in the speculative path" (§7.2). Small runs
  // carry proportionally more of the per-arena first split, so use a slack bound.
  EXPECT_GT(as.Stats().SpeculationSuccessRate(), 0.9)
      << "spec=" << as.Stats().spec_success.load()
      << " fallback=" << as.Stats().spec_fallback.load();
  EXPECT_GT(as.Stats().mprotects.load(), 0u);
  EXPECT_GT(as.Stats().Faults(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Apps, MetisJobTest,
                         ::testing::Values(MetisApp::kWc, MetisApp::kWr, MetisApp::kWrmem),
                         [](const ::testing::TestParamInfo<MetisApp>& info) {
                           return MetisAppName(info.param);
                         });

}  // namespace
}  // namespace srl::metis
