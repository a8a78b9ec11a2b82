// Sharded present-page set — the simulation's stand-in for hardware page tables.
//
// The kernel's page-fault path, once it has validated the faulting address against the
// VMA metadata (under mmap_sem / the range lock), installs a page-table entry under
// finer-grained page-table locks. We reproduce that shape: a sharded hash set with
// per-shard spin locks, accessed only after the VMA-level check passed.
//
// Striped address spaces add a second axis: when the owning AddressSpace is striped
// (ConfigureStripes), the 64 shards are partitioned into per-stripe *groups* — a
// page's stripe bits pick its group, a Fibonacci hash spreads pages within the group.
// The payoff is on munmap: a wide RemoveRange confined to one stripe sweeps only that
// stripe's group of shards instead of all 64, and — more importantly under load —
// never takes a shard lock a fault in another stripe could be holding. Unconfigured
// (stripe count 1), the layout degenerates to exactly the old single-hash scheme.
#ifndef SRL_VM_PAGE_TABLE_H_
#define SRL_VM_PAGE_TABLE_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/sync/cacheline.h"
#include "src/sync/spin_lock.h"

namespace srl::vm {

class PageTable {
 public:
  static constexpr std::size_t kShards = 64;

  // Binds the shard layout to the address-space striping. `stripe_page_shift` is the
  // stripe shift in page units (VmaIndex::kStripeShift - page shift) and `base_page`
  // the first stripe window's base in page units — the same origin VmaIndex::IndexOf
  // subtracts, without which every 64 GiB window (base is not span-aligned) would
  // straddle two shard groups and adjacent stripes would share shard locks. `stripes`
  // must be a power of two. Call once, before any page is installed. Never calling it
  // leaves one group of 64 shards — the unstriped layout.
  void ConfigureStripes(uint64_t stripe_page_shift, uint64_t base_page,
                        unsigned stripes) {
    stripe_page_shift_ = stripe_page_shift;
    base_page_ = base_page;
    groups_ = stripes < kShards ? stripes : static_cast<unsigned>(kShards);
    per_group_ = static_cast<unsigned>(kShards) / groups_;
    group_hash_shift_ = 64;
    for (unsigned p = per_group_; p > 1; p >>= 1) {
      --group_hash_shift_;
    }
  }

  // Installs the page; returns true if it was not already present (a "major" fault).
  // On install, *ticket receives a shard-unique install ticket (never 0) identifying
  // THIS installation of the page — a later RemoveExact with the same ticket removes
  // the page only if no one re-installed it in between. On a minor fault (page already
  // present) *ticket is set to 0.
  bool Install(uint64_t page_index, uint64_t* ticket = nullptr) {
    Shard& s = ShardFor(page_index);
    std::lock_guard<SpinLock> g(s.lock);
    const auto [it, inserted] = s.pages.try_emplace(page_index, s.next_ticket);
    if (inserted) {
      if (ticket != nullptr) {
        *ticket = s.next_ticket;
      }
      ++s.next_ticket;
      return true;
    }
    if (ticket != nullptr) {
      *ticket = 0;
    }
    return false;
  }

  bool Present(uint64_t page_index) {
    Shard& s = ShardFor(page_index);
    std::lock_guard<SpinLock> g(s.lock);
    return s.pages.count(page_index) != 0;
  }

  // Drops one page; returns true if it was present. Blind removal: whatever install
  // currently backs the page is erased, including another thread's. Only the blind-
  // undo test hook uses this on the fault path; see RemoveExact.
  bool Remove(uint64_t page_index) {
    Shard& s = ShardFor(page_index);
    std::lock_guard<SpinLock> g(s.lock);
    return s.pages.erase(page_index) > 0;
  }

  // Drops the page only if it is still backed by the install that produced `ticket`.
  // The speculative fault path uses this to undo ITS OWN install after a failed
  // validation: the page it installed may already have been swept by a racing munmap
  // or MADV_DONTNEED and re-installed by a winning fault — a blind Remove would erase
  // the winner's page and corrupt its VMA's present-page accounting.
  bool RemoveExact(uint64_t page_index, uint64_t ticket) {
    Shard& s = ShardFor(page_index);
    std::lock_guard<SpinLock> g(s.lock);
    const auto it = s.pages.find(page_index);
    if (it == s.pages.end() || it->second != ticket) {
      return false;
    }
    s.pages.erase(it);
    return true;
  }

  // Present pages in [first_page, last_page) — the fault-vs-unmap batteries assert this
  // drains to zero for every unmapped range. Not a consistent snapshot under concurrent
  // mutation (same caveat as AllPages).
  std::size_t CountRange(uint64_t first_page, uint64_t last_page) const {
    std::size_t n = 0;
    if (last_page - first_page <= 4096) {
      for (uint64_t p = first_page; p < last_page; ++p) {
        const Shard& s = ShardFor(p);
        std::lock_guard<SpinLock> g(s.lock);
        n += s.pages.count(p);
      }
      return n;
    }
    for (const std::size_t i : ShardsCovering(first_page, last_page)) {
      std::lock_guard<SpinLock> g(shards_[i].value.lock);
      for (const auto& [p, ticket] : shards_[i].value.pages) {
        if (p >= first_page && p < last_page) {
          ++n;
        }
      }
    }
    return n;
  }

  // Drops pages in [first_page, last_page). A wide range sweeps only the shard groups
  // of the stripes the range covers — a stripe-confined munmap never touches (or
  // locks) another stripe's shards.
  void RemoveRange(uint64_t first_page, uint64_t last_page) {
    if (last_page - first_page <= 4096) {
      // Narrow ranges (the common arena-trim case): erase page by page.
      for (uint64_t p = first_page; p < last_page; ++p) {
        Shard& s = ShardFor(p);
        std::lock_guard<SpinLock> g(s.lock);
        s.pages.erase(p);
      }
      return;
    }
    for (const std::size_t i : ShardsCovering(first_page, last_page)) {
      std::lock_guard<SpinLock> g(shards_[i].value.lock);
      std::erase_if(shards_[i].value.pages, [&](const auto& entry) {
        return entry.first >= first_page && entry.first < last_page;
      });
    }
  }

  std::size_t Count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::lock_guard<SpinLock> g(shards_[i].value.lock);
      n += shards_[i].value.pages.size();
    }
    return n;
  }

  // All present page indices (tests / invariant checks; not a consistent snapshot under
  // concurrent mutation).
  std::vector<uint64_t> AllPages() const {
    std::vector<uint64_t> out;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::lock_guard<SpinLock> g(shards_[i].value.lock);
      for (const auto& [p, ticket] : shards_[i].value.pages) {
        out.push_back(p);
      }
    }
    return out;
  }

 private:
  struct Shard {
    mutable SpinLock lock;
    // page index -> install ticket (see Install/RemoveExact). Tickets start at 1 so 0
    // can mean "minor fault, no install of mine to undo".
    std::unordered_map<uint64_t, uint64_t> pages;
    uint64_t next_ticket = 1;
  };

  // Page index relative to the first stripe window (pages below it belong to group 0,
  // mirroring VmaIndex::IndexOf's clamp).
  uint64_t RelPage(uint64_t page_index) const {
    return page_index >= base_page_ ? page_index - base_page_ : 0;
  }

  unsigned GroupOf(uint64_t page_index) const {
    return static_cast<unsigned>(RelPage(page_index) >> stripe_page_shift_) &
           (groups_ - 1);
  }

  Shard& ShardFor(uint64_t page_index) const {
    // Stripe bits pick the group; a Fibonacci hash spreads consecutive pages across
    // the group's shards.
    const unsigned within =
        per_group_ == 1
            ? 0
            : static_cast<unsigned>((page_index * 0x9e3779b97f4a7c15ull) >>
                                    group_hash_shift_);
    return shards_[GroupOf(page_index) * per_group_ + within].value;
  }

  // Shard indices whose group intersects [first_page, last_page), deduplicated.
  std::vector<std::size_t> ShardsCovering(uint64_t first_page, uint64_t last_page) const {
    std::vector<std::size_t> out;
    const uint64_t s0 = RelPage(first_page) >> stripe_page_shift_;
    const uint64_t s1 = RelPage(last_page - 1) >> stripe_page_shift_;
    if (s1 - s0 + 1 >= groups_) {
      out.reserve(kShards);
      for (std::size_t i = 0; i < kShards; ++i) {
        out.push_back(i);
      }
      return out;
    }
    for (uint64_t s = s0; s <= s1; ++s) {
      const unsigned g = static_cast<unsigned>(s) & (groups_ - 1);
      for (unsigned j = 0; j < per_group_; ++j) {
        out.push_back(static_cast<std::size_t>(g) * per_group_ + j);
      }
    }
    return out;
  }

  mutable CacheAligned<Shard> shards_[kShards];
  // Shard-layout parameters; written once by ConfigureStripes before any use.
  uint64_t stripe_page_shift_ = 24;  // matches VmaIndex::kStripeShift - 12
  uint64_t base_page_ = 0;           // first window base, page units
  unsigned groups_ = 1;
  unsigned per_group_ = kShards;
  unsigned group_hash_shift_ = 58;  // 64 - log2(per_group_)
};

}  // namespace srl::vm

#endif  // SRL_VM_PAGE_TABLE_H_
