// Lock-free radix present-page table — the simulation's stand-in for hardware page
// tables.
//
// The kernel's page-fault path, once it has validated the faulting address against the
// VMA metadata, installs a page-table entry. Here the table is a radix tree over the
// page index: three 512-way directory levels above 64-entry leaves (a 33-bit index,
// 32 TiB of address space, which covers every stripe window VmaIndex can carve). A leaf
// entry is one std::atomic<uint64_t> holding the install ticket of the page, 0 when the
// page is absent. No operation takes a lock:
//
//   * a minor fault (page already present) is three directory loads and one entry load,
//     and stores to no shared line;
//   * a major fault CASes its own entry (or publishes a fresh leaf with the entry
//     preset, one CAS on the directory slot);
//   * removals clear entries with RMWs and drop the leaf's live count once per leaf.
//
// Directories are created on demand by CAS and never freed while the table lives; they
// are bounded by the virtual address range ever installed into (4 KiB per 128 MiB).
// Leaves are reclaimed as soon as they empty, because virtual addresses are never
// reused and a churning workload would otherwise strand one leaf per mapping.
//
// Leaf lifetime. `Leaf::live` counts the leaf's non-zero entries plus in-flight install
// reservations; its kDead bit ends the leaf. An installer reserves (live + 1, refused
// once kDead is set) before it CASes an entry, so live never undercounts the non-zero
// entries. A remover clears an entry and then drops live; the drop that would reach 0
// CASes live straight to kDead instead, unlinks the leaf from its directory slot (a
// CAS from the leaf to null) and retires it into the calling thread's NodePool<Leaf>.
// An installer that meets a dead leaf helps unlink it and re-walks. Every operation
// runs inside an EpochGuard on EpochDomain::Global(), so a leaf a concurrent walk may
// still read is only reused or freed after that walk's section ends; a retired leaf
// keeps every entry 0, so reuse writes only the entry it installs.
//
// Tickets. Each successful install gets a ticket unique in the process (the calling
// thread's id in the high bits, a per-thread counter in the low bits). A per-leaf
// counter would repeat once a leaf dies and a fresh one takes its slot, and then a
// losing fault's RemoveExact could erase the winning fault's re-install.
//
// Ordering against munmap. The speculative fault installs, increments its VMA's
// present_hint, runs a SeqCstFence and only then validates the stripe seqcount.
// ApplyMunmapLocked bumps that seqcount, runs a SeqCstFence and then reads the hints
// and, through RemoveRange, the directory slots and entries. Between the two fences
// either the fault's validation sees the bump (it loses and undoes its own install by
// ticket), or every load of the sweep comes after the fault's install: the directory
// slot store of a freshly published leaf and the entry store alike. So a fault whose
// validation passed has its page erased by the sweep, and no page survives in an
// unmapped range.
#ifndef SRL_VM_PAGE_TABLE_H_
#define SRL_VM_PAGE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/epoch/epoch_domain.h"
#include "src/epoch/node_pool.h"

namespace srl::vm {

class PageTable {
 public:
  static constexpr unsigned kLeafBits = 6;
  static constexpr unsigned kDirBits = 9;
  static constexpr uint64_t kLeafSlots = uint64_t{1} << kLeafBits;
  // Pages the three directory levels can address: page indices are < kPages.
  static constexpr uint64_t kPages = uint64_t{1} << (kLeafBits + 3 * kDirBits);

  // A leaf: 64 consecutive pages. Public so tests can account for the leaf pool.
  struct Leaf {
    static constexpr uint64_t kDead = uint64_t{1} << 63;
    std::atomic<uint64_t> live{0};  // non-zero entries + install reservations | kDead
    Leaf* pool_next = nullptr;      // NodePool link while the leaf is free
    std::atomic<uint64_t> slot[kLeafSlots]{};  // install ticket, 0 = absent
  };
  using LeafPool = NodePool<Leaf>;

  PageTable() = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  ~PageTable() {
    for (auto& m : root_.slot) {
      Mid* mid = m.load(std::memory_order_relaxed);
      if (mid == nullptr) {
        continue;
      }
      for (auto& b : mid->slot) {
        Bottom* bottom = b.load(std::memory_order_relaxed);
        if (bottom == nullptr) {
          continue;
        }
        for (auto& l : bottom->slot) {
          delete l.load(std::memory_order_relaxed);
        }
        delete bottom;
      }
      delete mid;
    }
  }

  // Installs the page; returns true if it was not already present (a "major" fault).
  // On install, *ticket receives the process-unique install ticket (never 0) of THIS
  // installation of the page — a later RemoveExact with the same ticket removes the
  // page only if no one re-installed it in between. On a minor fault (page already
  // present) *ticket is set to 0. `page_index` must be below kPages.
  bool Install(uint64_t page_index, uint64_t* ticket = nullptr) {
    if (page_index >= kPages) {
      std::fprintf(stderr, "PageTable: page index %llu beyond the radix range\n",
                   static_cast<unsigned long long>(page_index));
      std::abort();
    }
    EpochGuard guard(EpochDomain::Global());
    const unsigned i = SlotOf(page_index);
    std::atomic<Leaf*>& ls = LeafSlotCreate(page_index);
    for (;;) {
      Leaf* leaf = ls.load(std::memory_order_acquire);
      if (leaf == nullptr) {
        // Publish a fresh leaf already holding the page: one CAS, and live starts at
        // the one entry it holds.
        const uint64_t t = NextTicket();
        Leaf* fresh = LeafPool::Local().Alloc();
        fresh->live.store(1, std::memory_order_relaxed);
        fresh->slot[i].store(t, std::memory_order_relaxed);
        if (ls.compare_exchange_strong(leaf, fresh, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
          SetTicket(ticket, t);
          return true;
        }
        // Lost the publish race; the leaf never became reachable.
        fresh->slot[i].store(0, std::memory_order_relaxed);
        LeafPool::Local().Recycle(fresh);
        continue;
      }
      if (leaf->slot[i].load(std::memory_order_acquire) != 0) {
        SetTicket(ticket, 0);
        return false;  // minor fault: nothing written
      }
      if (!Reserve(leaf)) {
        Unlink(ls, leaf);  // dead: help unlink, then re-walk
        continue;
      }
      const uint64_t t = NextTicket();
      uint64_t expected = 0;
      if (leaf->slot[i].compare_exchange_strong(expected, t, std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        SetTicket(ticket, t);
        return true;  // the reservation now counts the entry
      }
      Release(ls, leaf, 1);  // another install won the entry
      SetTicket(ticket, 0);
      return false;
    }
  }

  bool Present(uint64_t page_index) const {
    EpochGuard guard(EpochDomain::Global());
    std::atomic<Leaf*>* ls = LeafSlot(page_index);
    const Leaf* leaf = ls == nullptr ? nullptr : ls->load(std::memory_order_acquire);
    return leaf != nullptr &&
           leaf->slot[SlotOf(page_index)].load(std::memory_order_acquire) != 0;
  }

  // Drops one page; returns true if it was present. Blind removal: whatever install
  // currently backs the page is erased, including another thread's. Only the blind-
  // undo test hook uses this on the fault path; see RemoveExact.
  bool Remove(uint64_t page_index) {
    EpochGuard guard(EpochDomain::Global());
    std::atomic<Leaf*>* ls = LeafSlot(page_index);
    Leaf* leaf = ls == nullptr ? nullptr : ls->load(std::memory_order_acquire);
    if (leaf == nullptr) {
      return false;
    }
    std::atomic<uint64_t>& e = leaf->slot[SlotOf(page_index)];
    if (e.load(std::memory_order_acquire) == 0 ||
        e.exchange(0, std::memory_order_acq_rel) == 0) {
      return false;
    }
    Release(*ls, leaf, 1);
    return true;
  }

  // Drops the page only if it is still backed by the install that produced `ticket`.
  // The speculative fault path uses this to undo ITS OWN install after a failed
  // validation: the page it installed may already have been swept by a racing munmap
  // or MADV_DONTNEED and re-installed by a winning fault — a blind Remove would erase
  // the winner's page and corrupt its VMA's present-page accounting.
  bool RemoveExact(uint64_t page_index, uint64_t ticket) {
    EpochGuard guard(EpochDomain::Global());
    std::atomic<Leaf*>* ls = LeafSlot(page_index);
    Leaf* leaf = ls == nullptr ? nullptr : ls->load(std::memory_order_acquire);
    if (leaf == nullptr) {
      return false;
    }
    uint64_t expected = ticket;
    if (!leaf->slot[SlotOf(page_index)].compare_exchange_strong(
            expected, 0, std::memory_order_acq_rel, std::memory_order_acquire)) {
      return false;
    }
    Release(*ls, leaf, 1);
    return true;
  }

  // Present pages in [first_page, last_page) — the fault-vs-unmap batteries assert this
  // drains to zero for every unmapped range. Not a consistent snapshot under concurrent
  // mutation (same caveat as AllPages).
  std::size_t CountRange(uint64_t first_page, uint64_t last_page) const {
    EpochGuard guard(EpochDomain::Global());
    std::size_t n = 0;
    ForEachLeaf(first_page, last_page,
                [&](std::atomic<Leaf*>&, Leaf* leaf, unsigned lo, unsigned hi, uint64_t) {
                  for (unsigned i = lo; i < hi; ++i) {
                    n += leaf->slot[i].load(std::memory_order_acquire) != 0;
                  }
                });
    return n;
  }

  // Drops pages in [first_page, last_page). Walks only directories that exist, and
  // drops each leaf's live count once for all the entries it cleared there.
  void RemoveRange(uint64_t first_page, uint64_t last_page) {
    EpochGuard guard(EpochDomain::Global());
    ForEachLeaf(first_page, last_page, [&](std::atomic<Leaf*>& ls, Leaf* leaf,
                                           unsigned lo, unsigned hi, uint64_t) {
      uint64_t cleared = 0;
      for (unsigned i = lo; i < hi; ++i) {
        std::atomic<uint64_t>& e = leaf->slot[i];
        if (e.load(std::memory_order_acquire) != 0 &&
            e.exchange(0, std::memory_order_acq_rel) != 0) {
          ++cleared;
        }
      }
      if (cleared != 0) {
        Release(ls, leaf, cleared);
      }
    });
  }

  std::size_t Count() const { return CountRange(0, kPages); }

  // All present page indices (tests / invariant checks; not a consistent snapshot under
  // concurrent mutation).
  std::vector<uint64_t> AllPages() const {
    EpochGuard guard(EpochDomain::Global());
    std::vector<uint64_t> out;
    ForEachLeaf(0, kPages,
                [&](std::atomic<Leaf*>&, Leaf* leaf, unsigned lo, unsigned hi,
                    uint64_t first) {
                  for (unsigned i = lo; i < hi; ++i) {
                    if (leaf->slot[i].load(std::memory_order_acquire) != 0) {
                      out.push_back(first + i);
                    }
                  }
                });
    return out;
  }

  // Leaves currently linked into the tree (tests: leaf-pool conservation).
  std::size_t LeafCount() const {
    EpochGuard guard(EpochDomain::Global());
    std::size_t n = 0;
    ForEachLeaf(0, kPages,
                [&](std::atomic<Leaf*>&, Leaf*, unsigned, unsigned, uint64_t) { ++n; });
    return n;
  }

 private:
  static constexpr unsigned kBottomShift = kLeafBits;
  static constexpr unsigned kMidShift = kLeafBits + kDirBits;
  static constexpr unsigned kTopShift = kLeafBits + 2 * kDirBits;
  static constexpr uint64_t kFanout = uint64_t{1} << kDirBits;

  template <typename Child>
  struct Dir {
    std::atomic<Child*> slot[kFanout]{};
  };
  using Bottom = Dir<Leaf>;
  using Mid = Dir<Bottom>;
  using Top = Dir<Mid>;

  static unsigned SlotOf(uint64_t page) {
    return static_cast<unsigned>(page & (kLeafSlots - 1));
  }
  static unsigned DirIndex(uint64_t page, unsigned shift) {
    return static_cast<unsigned>((page >> shift) & (kFanout - 1));
  }

  static void SetTicket(uint64_t* out, uint64_t t) {
    if (out != nullptr) {
      *out = t;
    }
  }

  // Process-unique, never 0: thread id << 40 | per-thread counter (from 1).
  static uint64_t NextTicket() {
    static std::atomic<uint64_t> next_thread{0};
    thread_local uint64_t next =
        (next_thread.fetch_add(1, std::memory_order_relaxed) << 40) | 1;
    return next++;
  }

  // The child at `slot`, created by CAS when absent. Directories are never freed
  // while the table lives, so no epoch protection is needed for them.
  template <typename Child>
  static Child* ChildCreate(std::atomic<Child*>& slot) {
    Child* c = slot.load(std::memory_order_acquire);
    if (c != nullptr) {
      return c;
    }
    Child* fresh = new Child();
    if (slot.compare_exchange_strong(c, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return fresh;
    }
    delete fresh;
    return c;
  }

  std::atomic<Leaf*>& LeafSlotCreate(uint64_t page) {
    Mid* mid = ChildCreate(root_.slot[page >> kTopShift]);
    Bottom* bottom = ChildCreate(mid->slot[DirIndex(page, kMidShift)]);
    return bottom->slot[DirIndex(page, kBottomShift)];
  }

  // The directory slot holding `page`'s leaf, or null when a directory on the way is
  // absent (or the index is out of range).
  std::atomic<Leaf*>* LeafSlot(uint64_t page) const {
    if (page >= kPages) {
      return nullptr;
    }
    Mid* mid = root_.slot[page >> kTopShift].load(std::memory_order_acquire);
    if (mid == nullptr) {
      return nullptr;
    }
    Bottom* bottom = mid->slot[DirIndex(page, kMidShift)].load(std::memory_order_acquire);
    return bottom == nullptr ? nullptr : &bottom->slot[DirIndex(page, kBottomShift)];
  }

  // Calls fn(leaf_slot, leaf, lo, hi, leaf_first_page) for every linked leaf that
  // overlaps [first, last), with [lo, hi) the overlapping entry indices. Skips absent
  // directories whole. Callers hold an epoch section.
  template <typename Fn>
  void ForEachLeaf(uint64_t first, uint64_t last, Fn&& fn) const {
    last = std::min(last, kPages);
    uint64_t p = first;
    while (p < last) {
      Mid* mid = root_.slot[p >> kTopShift].load(std::memory_order_acquire);
      if (mid == nullptr) {
        p = ((p >> kTopShift) + 1) << kTopShift;
        continue;
      }
      Bottom* bottom = mid->slot[DirIndex(p, kMidShift)].load(std::memory_order_acquire);
      if (bottom == nullptr) {
        p = ((p >> kMidShift) + 1) << kMidShift;
        continue;
      }
      const uint64_t leaf_first = p & ~(kLeafSlots - 1);
      const uint64_t next = leaf_first + kLeafSlots;
      std::atomic<Leaf*>& ls = bottom->slot[DirIndex(p, kBottomShift)];
      Leaf* leaf = ls.load(std::memory_order_acquire);
      if (leaf != nullptr) {
        fn(ls, leaf, SlotOf(p), static_cast<unsigned>(std::min(next, last) - leaf_first),
           leaf_first);
      }
      p = next;
    }
  }

  // Takes an install reservation; false once the leaf is dead.
  static bool Reserve(Leaf* leaf) {
    uint64_t l = leaf->live.load(std::memory_order_relaxed);
    do {
      if ((l & Leaf::kDead) != 0) {
        return false;
      }
    } while (!leaf->live.compare_exchange_weak(l, l + 1, std::memory_order_acq_rel,
                                               std::memory_order_relaxed));
    return true;
  }

  // Drops `n` from live after clearing n entries (or abandoning a reservation). The
  // drop that would reach 0 kills the leaf instead: live goes straight to kDead, the
  // leaf is unlinked and retired. One CAS in the common case.
  static void Release(std::atomic<Leaf*>& ls, Leaf* leaf, uint64_t n) {
    uint64_t l = leaf->live.load(std::memory_order_relaxed);
    for (;;) {
      if (l == n) {
        if (leaf->live.compare_exchange_weak(l, Leaf::kDead, std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
          Unlink(ls, leaf);
          LeafPool::Local().Retire(leaf);
          return;
        }
      } else if (leaf->live.compare_exchange_weak(l, l - n, std::memory_order_acq_rel,
                                                  std::memory_order_relaxed)) {
        return;
      }
    }
  }

  // Unlinks a dead leaf from its slot unless someone already did. The slot cannot hold
  // a new incarnation of the same leaf: only the killer retires it, after this CAS or a
  // helper's, and the caller's epoch section keeps it from being reused meanwhile.
  static void Unlink(std::atomic<Leaf*>& ls, Leaf* leaf) {
    ls.compare_exchange_strong(leaf, nullptr, std::memory_order_acq_rel,
                               std::memory_order_relaxed);
  }

  Top root_;
};

}  // namespace srl::vm

#endif  // SRL_VM_PAGE_TABLE_H_
