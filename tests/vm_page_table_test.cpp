// The lock-free radix page table on its own: exclusive range ends at every edge of the
// radix (leaf, directory, stripe window), install tickets and ticket-exact removal,
// leaf reclamation when a leaf empties, and a 4-thread hammer on one leaf that kills
// and re-creates it while checking the present set against an oracle and the leaf
// pool's node accounting.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/prng.h"
#include "src/vm/address_space.h"
#include "src/vm/page_table.h"

namespace srl::vm {
namespace {

// Every PageTable range is [first_page, last_page) with an EXCLUSIVE end. The case that
// would expose an off-by-one is a range ending exactly on an edge of the radix: the
// walk must include the edge's left neighbour and exclude the edge itself, on the
// narrow path and on a walk that starts far below the edge.
void ExpectRemoveRangeStopsAt(uint64_t edge, uint64_t wide_span) {
  PageTable pt;
  ASSERT_TRUE(pt.Install(edge - 1));
  ASSERT_TRUE(pt.Install(edge));

  pt.RemoveRange(edge - 4, edge);
  EXPECT_FALSE(pt.Present(edge - 1));
  EXPECT_TRUE(pt.Present(edge)) << "exclusive end erased the page on the edge";
  EXPECT_EQ(pt.CountRange(edge - 4, edge), 0u);
  EXPECT_EQ(pt.CountRange(edge, edge + 1), 1u);

  ASSERT_TRUE(pt.Install(edge - 1));
  pt.RemoveRange(edge - wide_span, edge);
  EXPECT_FALSE(pt.Present(edge - 1));
  EXPECT_TRUE(pt.Present(edge)) << "wide walk crossed the edge";

  // And from the other side: a range starting on the edge spares its left neighbour.
  ASSERT_TRUE(pt.Install(edge - 1));
  pt.RemoveRange(edge, edge + wide_span);
  EXPECT_TRUE(pt.Present(edge - 1));
  EXPECT_FALSE(pt.Present(edge));
  EXPECT_EQ(pt.Count(), 1u);
}

constexpr uint64_t kWindowBasePage = AddressSpace::kMmapBase / AddressSpace::kPageSize;

TEST(VmPageTableTest, RemoveRangeStopsAtLeafEdge) {
  ExpectRemoveRangeStopsAt(kWindowBasePage + 3 * PageTable::kLeafSlots,
                           2 * PageTable::kLeafSlots);
}

TEST(VmPageTableTest, RemoveRangeStopsAtDirEdge) {
  // A bottom directory spans 512 leaves; its edge is also a leaf edge.
  const uint64_t dir_span = PageTable::kLeafSlots << PageTable::kDirBits;
  ExpectRemoveRangeStopsAt(kWindowBasePage + 2 * dir_span, 3 * dir_span);
}

TEST(VmPageTableTest, RemoveRangeStopsAtStripeWindowEdge) {
  const uint64_t window_pages = AddressSpace::kStripeSpan / AddressSpace::kPageSize;
  ExpectRemoveRangeStopsAt(kWindowBasePage + window_pages, window_pages);
}

TEST(VmPageTableTest, TicketsAreUniqueAndExactRemovalHonoursThem) {
  PageTable pt;
  const uint64_t page = kWindowBasePage + 5;
  uint64_t t1 = 0;
  ASSERT_TRUE(pt.Install(page, &t1));
  EXPECT_NE(t1, 0u);
  uint64_t minor = 123;
  EXPECT_FALSE(pt.Install(page, &minor));
  EXPECT_EQ(minor, 0u) << "a minor fault has no install to undo";
  EXPECT_FALSE(pt.RemoveExact(page, t1 + 1));
  EXPECT_TRUE(pt.Present(page));
  EXPECT_TRUE(pt.RemoveExact(page, t1));
  EXPECT_FALSE(pt.Present(page));
  EXPECT_FALSE(pt.RemoveExact(page, t1)) << "removed twice";

  // The leaf died with its last page; the re-install lands in a fresh leaf and must
  // still get a new ticket, or the old one would erase it.
  uint64_t t2 = 0;
  ASSERT_TRUE(pt.Install(page, &t2));
  EXPECT_NE(t2, t1);
  EXPECT_FALSE(pt.RemoveExact(page, t1));
  EXPECT_TRUE(pt.Present(page));
  EXPECT_TRUE(pt.Remove(page));
  EXPECT_FALSE(pt.Remove(page));
}

TEST(VmPageTableTest, EmptiedLeafIsUnlinkedAndRangeQueriesSkipAbsentDirs) {
  PageTable pt;
  EXPECT_EQ(pt.LeafCount(), 0u);
  const uint64_t a = kWindowBasePage;
  const uint64_t far = PageTable::kPages - 1;  // the last top-level directory
  ASSERT_TRUE(pt.Install(a));
  ASSERT_TRUE(pt.Install(a + 1));
  ASSERT_TRUE(pt.Install(a + PageTable::kLeafSlots));
  ASSERT_TRUE(pt.Install(far));
  EXPECT_EQ(pt.LeafCount(), 3u);
  EXPECT_EQ(pt.Count(), 4u);
  EXPECT_EQ(pt.CountRange(0, PageTable::kPages), 4u);
  EXPECT_EQ(pt.CountRange(a + 1, far), 2u);
  EXPECT_EQ(pt.AllPages(),
            (std::vector<uint64_t>{a, a + 1, a + PageTable::kLeafSlots, far}));

  EXPECT_TRUE(pt.Remove(a));
  EXPECT_EQ(pt.LeafCount(), 3u) << "the leaf still holds a + 1";
  EXPECT_TRUE(pt.Remove(a + 1));
  EXPECT_EQ(pt.LeafCount(), 2u) << "an emptied leaf must be unlinked";

  // Out-of-range queries answer "absent"; a range past kPages is clipped.
  EXPECT_FALSE(pt.Present(PageTable::kPages));
  EXPECT_FALSE(pt.Remove(PageTable::kPages + 7));
  EXPECT_FALSE(pt.RemoveExact(PageTable::kPages, 1));
  EXPECT_EQ(pt.CountRange(far, ~uint64_t{0}), 1u);
  pt.RemoveRange(0, ~uint64_t{0});
  EXPECT_EQ(pt.Count(), 0u);
  EXPECT_EQ(pt.LeafCount(), 0u);
}

// 4 threads on ONE leaf. Thread t owns pages [15t, 15t + 15) of the leaf and runs
// Install / RemoveExact / RemoveRange on them against its own exact oracle; the last 4
// pages are shared, and the threads Install + RemoveExact on them, so installs race on
// one entry (the lost-CAS reservation drop). Each thread holds its pages only briefly,
// so the leaf keeps dying and being re-created under the other threads' installs — the
// DEAD handshake's race. At the end the present set must match the oracles exactly, and
// the leaf pool must account for every leaf: nodes the four pools took from the
// allocator minus what they trimmed equals what they hold plus the leaves still linked.
TEST(VmPageTableTest, LeafChurnHammerKeepsCountAndPoolConservation) {
  constexpr int kThreads = 4;
  constexpr int kOwned = 15;
  constexpr int kOps = 500000;
  const uint64_t leaf_base = kWindowBasePage + 7 * PageTable::kLeafSlots;
  const uint64_t shared_base = leaf_base + kThreads * kOwned;
  PageTable pt;
  std::atomic<int> start{0};
  std::atomic<int> mismatches{0};
  std::vector<int64_t> balance(kThreads, 0);
  std::vector<std::vector<uint64_t>> present(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(0x9a6e7ab1e + static_cast<uint64_t>(t));
      const uint64_t own = leaf_base + static_cast<uint64_t>(t) * kOwned;
      std::vector<uint64_t> ticket(kOwned, 0);  // oracle: 0 = absent
      start.fetch_add(1);
      while (start.load() < kThreads) {
        std::this_thread::yield();
      }
      auto install = [&](uint64_t i) {
        uint64_t tk = 0;
        const bool major = pt.Install(own + i, &tk);
        if (major != (ticket[i] == 0)) {
          mismatches.fetch_add(1);
        }
        if (major) {
          ticket[i] = tk;
        }
      };
      for (int op = 0; op < kOps; ++op) {
        // Hold one or two pages briefly, so all four threads are often empty at once
        // and the leaf dies between their installs.
        install(rng.NextBelow(kOwned));
        if (rng.NextChance(0.5)) {
          install(rng.NextBelow(kOwned));
        }
        if (rng.NextChance(0.25)) {
          const uint64_t s = shared_base + rng.NextBelow(kThreads);
          uint64_t tk = 0;
          // Only the winner of the entry may remove it, and it must still be there.
          if (pt.Install(s, &tk) && !pt.RemoveExact(s, tk)) {
            mismatches.fetch_add(1);
          }
        }
        if (rng.NextChance(0.5)) {
          for (uint64_t i = 0; i < kOwned; ++i) {
            if (ticket[i] != 0 && !pt.RemoveExact(own + i, ticket[i])) {
              mismatches.fetch_add(1);
            }
            ticket[i] = 0;
          }
        } else {
          pt.RemoveRange(own, own + kOwned);
          std::fill(ticket.begin(), ticket.end(), 0);
        }
      }
      install(static_cast<uint64_t>(t));  // leave one page per thread behind
      for (uint64_t i = 0; i < kOwned; ++i) {
        if (ticket[i] != 0) {
          present[static_cast<std::size_t>(t)].push_back(own + i);
        }
      }
      // This thread's pool only changes through its own operations, which are done.
      auto& pool = PageTable::LeafPool::Local();
      balance[static_cast<std::size_t>(t)] =
          static_cast<int64_t>(pool.ActiveSize() + pool.ReclaimedSize() +
                               pool.ParkedSize() + pool.TrimmedCount()) -
          static_cast<int64_t>(pool.FreshCount());
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  std::vector<uint64_t> expected;
  for (const auto& p : present) {
    expected.insert(expected.end(), p.begin(), p.end());
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(pt.AllPages(), expected);
  EXPECT_EQ(pt.Count(), expected.size());
  EXPECT_EQ(pt.LeafCount(), expected.empty() ? 0u : 1u);
  int64_t sum = 0;
  for (int64_t b : balance) {
    sum += b;
  }
  EXPECT_EQ(sum + static_cast<int64_t>(pt.LeafCount()), 0)
      << "a leaf was lost (negative) or returned to a pool twice (positive)";
}

}  // namespace
}  // namespace srl::vm
