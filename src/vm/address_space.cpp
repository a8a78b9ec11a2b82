#include "src/vm/address_space.h"

#include <cassert>
#include <chrono>
#include <thread>

#include "src/epoch/epoch_domain.h"
#include "src/sync/fence.h"
#include "src/sync/topology.h"

namespace srl::vm {

namespace {

// present_hint value meaning "unknown, assume populated". Whenever page custody
// moves between VMA nodes (split tails, merge absorption, speculative-mprotect
// boundary moves), a racing fault may still attribute its install to the donor node
// — so a copied or summed hint on the receiver would not be a sound upper bound.
// Every custody transfer therefore saturates the receiver's hint; this keeps the
// empty-VMA sweep skip sound, and the next strict CheckInvariants resyncs the hint
// to the exact count.
constexpr uint64_t kHintSaturated = uint64_t{1} << 62;

void SaturateHint(Vma* v) {
  v->present_hint.store(kHintSaturated, std::memory_order_relaxed);
}

struct VariantConfig {
  VmLockKind kind;
  bool refine_fault;
  bool refine_mprotect;
  bool scoped_structural;
};

VariantConfig ConfigFor(VmVariant v) {
  switch (v) {
    case VmVariant::kStock:
      return {VmLockKind::kStock, false, false, false};
    case VmVariant::kTreeFull:
      return {VmLockKind::kTree, false, false, false};
    case VmVariant::kTreeRefined:
      return {VmLockKind::kTree, true, true, false};
    case VmVariant::kListFull:
      return {VmLockKind::kList, false, false, false};
    case VmVariant::kListRefined:
      return {VmLockKind::kList, true, true, false};
    case VmVariant::kListPf:
      return {VmLockKind::kList, true, false, false};
    case VmVariant::kListMprotect:
      return {VmLockKind::kList, false, true, false};
    case VmVariant::kTreeScoped:
      return {VmLockKind::kTree, true, true, true};
    case VmVariant::kListScoped:
      return {VmLockKind::kList, true, true, true};
    case VmVariant::kListLfFull:
      return {VmLockKind::kListLockFree, false, false, false};
    case VmVariant::kListLfScoped:
      return {VmLockKind::kListLockFree, true, true, true};
    case VmVariant::kSkiplistFull:
      return {VmLockKind::kSkiplistIndexed, false, false, false};
    case VmVariant::kSkiplistScoped:
      return {VmLockKind::kSkiplistIndexed, true, true, true};
  }
  return {VmLockKind::kStock, false, false, false};
}

unsigned ResolveStripes(VmVariant v, unsigned stripes) {
  if (stripes != 0) {
    return stripes;  // VmaIndex clamps and rounds up to a power of two
  }
  if (!ConfigFor(v).scoped_structural) {
    // Full-range structural ops serialize everything anyway; one stripe keeps the
    // control variants bit-for-bit identical to the unstriped design.
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

const char* VmVariantName(VmVariant v) {
  switch (v) {
    case VmVariant::kStock:
      return "stock";
    case VmVariant::kTreeFull:
      return "tree-full";
    case VmVariant::kTreeRefined:
      return "tree-refined";
    case VmVariant::kListFull:
      return "list-full";
    case VmVariant::kListRefined:
      return "list-refined";
    case VmVariant::kListPf:
      return "list-pf";
    case VmVariant::kListMprotect:
      return "list-mprotect";
    case VmVariant::kTreeScoped:
      return "tree-scoped";
    case VmVariant::kListScoped:
      return "list-scoped";
    case VmVariant::kListLfFull:
      return "list-lf-full";
    case VmVariant::kListLfScoped:
      return "list-lf-scoped";
    case VmVariant::kSkiplistFull:
      return "skiplist-full";
    case VmVariant::kSkiplistScoped:
      return "skiplist-scoped";
  }
  return "?";
}

// Every stripe window VmaIndex can carve lies inside the page table's radix range.
static_assert((VmaIndex::kStripeBase +
               (uint64_t{VmaIndex::kMaxStripes} << VmaIndex::kStripeShift)) /
                  AddressSpace::kPageSize <=
              PageTable::kPages);

AddressSpace::AddressSpace(VmVariant variant, unsigned stripes)
    : variant_(variant), index_(ResolveStripes(variant, stripes)),
      stats_(index_.StripeCount()) {
  const VariantConfig cfg = ConfigFor(variant);
  refine_fault_ = cfg.refine_fault;
  refine_mprotect_ = cfg.refine_mprotect;
  scoped_structural_ = cfg.scoped_structural;
  stripes_ = index_.StripeCount();
  lock_ = MakeVmLock(cfg.kind);
  cursors_ = std::make_unique<CacheAligned<std::atomic<uint64_t>>[]>(stripes_);
  for (unsigned i = 0; i < stripes_; ++i) {
    cursors_[i].value.store(VmaIndex::WindowBase(i), std::memory_order_relaxed);
  }
}

AddressSpace::~AddressSpace() = default;

unsigned AddressSpace::HomeStripe() const {
  // A thread's home stripe is the stripe of the CPU it first ran this code on, so
  // threads on the same core share a stripe instead of bouncing its cache lines to
  // wherever registration order scattered them. The CPU is sampled once per thread
  // (stripes must be stable per thread for the VMA-locality contract), so later
  // migration does not re-home the thread — same trade-off the kernel makes for
  // per-CPU-ish structures accessed without preemption protection.
  //
  // Single-core hosts (or platforms without sched_getcpu) keep the old deterministic
  // registration-order policy: every thread would otherwise collapse onto stripe 0,
  // and the round-robin spread is what the stripe tests and single-core benches rely
  // on. vm_stripe_test pins this fallback via Topology::TestOnlyForceSingleCore.
  static std::atomic<uint64_t> next_token{0};
  if (!Topology::Get().SingleCore()) {
    thread_local int cpu = Topology::CurrentCpu();
    if (cpu >= 0) {
      return static_cast<unsigned>(cpu) & (stripes_ - 1);
    }
  }
  thread_local uint64_t token = next_token.fetch_add(1, std::memory_order_relaxed);
  return static_cast<unsigned>(token & (stripes_ - 1));
}

Vma* AddressSpace::AllocVma(uint64_t start, uint64_t end, uint32_t prot) {
  Vma* vma = new Vma;
  vma->start.store(start, std::memory_order_relaxed);
  vma->end.store(end, std::memory_order_relaxed);
  vma->prot.store(prot, std::memory_order_relaxed);
  return vma;
}

uint64_t AddressSpace::CarveFromStripe(unsigned si, uint64_t size) {
  std::atomic<uint64_t>& cursor = cursors_[si].value;
  const uint64_t window_end = VmaIndex::WindowEnd(si);
  uint64_t cur = cursor.load(std::memory_order_relaxed);
  for (;;) {
    if (cur + size < cur || cur + size > window_end) {
      return 0;  // window exhausted: the VMA itself must fit wholly inside it
    }
    // One guard page between allocations keeps distinct mappings (e.g. per-thread
    // arenas) as distinct VMAs, as separate mmap calls produce in practice. An
    // exact-fit allocation may push the cursor past the window end, which simply
    // exhausts the stripe for later calls.
    if (cursor.compare_exchange_weak(cur, cur + size + kPageSize,
                                     std::memory_order_relaxed)) {
      return cur;
    }
  }
}

uint64_t AddressSpace::Mmap(uint64_t length, uint32_t prot) {
  return MmapInStripe(HomeStripe(), length, prot);
}

uint64_t AddressSpace::MmapInStripe(unsigned stripe, uint64_t length, uint32_t prot) {
  if (length == 0 || stripe >= stripes_) {
    return 0;
  }
  stats_.mmaps.Add();
  const uint64_t size = PageUp(length);
  uint64_t addr = 0;
  unsigned si = stripe;
  for (unsigned probe = 0; probe < stripes_; ++probe) {
    si = (stripe + probe) & (stripes_ - 1);
    addr = CarveFromStripe(si, size);
    if (addr != 0) {
      if (probe != 0) {
        stats_.stripe(si).mmap_overflow.Add();
      }
      break;
    }
  }
  if (addr == 0) {
    return 0;  // every window exhausted
  }
  // The cursor never reuses addresses, so the new VMA can neither overlap nor merge
  // with an existing one: write-locking just [addr, addr+size) covers every byte whose
  // mapping changes. No padding is needed — the guard page (or the window edge, for an
  // exact-fit carve) guarantees no neighbour boundary is touched.
  const Range r = scoped_structural_ ? Range{addr, addr + size} : Range::Full();
  void* h = lock_->LockWrite(r);
  VmaStripe& st = index_.Stripe(si);
  st.LockMutate();
  st.Insert(AllocVma(addr, addr + size, prot));
  st.UnlockMutate();
  lock_->UnlockWrite(h);
  if (scoped_structural_) {
    stats_.scoped_structural.Add();
    stats_.stripe(si).scoped_structural.Add();
  }
  return addr;
}

bool AddressSpace::ApplyMunmapLocked(uint64_t s, uint64_t e, unsigned lo, unsigned hi,
                                     bool* populated) {
  // Pairs with the fence in PageFaultOptimistic between its install/hint increment and
  // its seqcount validation. The caller's LockMutate bumped the stripe seqcount; this
  // fence orders that store before the hint loads below, so for any racing speculative
  // fault either (a) its validation sees the bump and it loses (undoing its install),
  // or (b) our hint load sees its increment and the sweep runs. Without the fence both
  // loads can read old values (store-buffer reordering): a winning fault would keep
  // its page while this op reads hint==0 — an unsound skip-empty.
  SeqCstFence();
  bool any = false;
  *populated = false;
  Vma* v = index_.Find(s, lo, hi);
  while (v != nullptr && v->Start() < e) {
    Vma* next = index_.Next(v, hi);
    const uint64_t vs = v->Start();
    const uint64_t ve = v->End();
    // The page sweep exists to erase pages of the clipped/erased region; a VMA whose
    // present_hint is zero provably never had one installed (the hint is an upper
    // bound), so an unmap touching only such VMAs skips the sweep. Sound against
    // in-flight speculative faults via the fence above; locked faults are ordered by
    // the mutation locks this op holds.
    if (v->present_hint.load(std::memory_order_relaxed) != 0) {
      *populated = true;
    }
    if (s <= vs && e >= ve) {
      // Fully covered: remove.
      index_.EraseAndRetire(v);
    } else if (s <= vs) {
      // Head clipped. Key grows but stays below the successor's start (and inside the
      // VMA's window: e < ve and the VMA never straddles a stripe edge). The hint stays
      // — still an upper bound for the smaller range.
      v->start.store(e, std::memory_order_relaxed);
    } else if (e >= ve) {
      // Tail clipped.
      v->end.store(s, std::memory_order_relaxed);
    } else {
      // Hole in the middle: shrink v to the head, insert a new VMA for the tail. The
      // tail takes custody of pages whose installs were counted against the parent —
      // and a locked fault on a tail page outside this op's padded lock range may
      // still be incrementing the parent's hint — so the receiver saturates (see
      // kHintSaturated) rather than copying a possibly-stale value.
      v->end.store(s, std::memory_order_relaxed);
      Vma* tail = AllocVma(e, ve, v->Prot());
      SaturateHint(tail);
      index_.Insert(tail);
    }
    any = true;
    v = next;
  }
  return any;
}

bool AddressSpace::Munmap(uint64_t addr, uint64_t length) {
  if (length == 0) {
    return false;
  }
  stats_.munmaps.Add();
  const uint64_t s = PageDown(addr);
  const uint64_t e = PageUp(addr + length);
  if (e <= s) {
    // addr+length wrapped past the top of the address space: the range denotes
    // nothing, and Range{s, e} would violate the locks' start < end contract.
    return false;
  }
  if (speculate_unmap_lookup_) {
    // Probe phase under a read acquisition: if the range maps nothing, the answer is
    // stable (see SetUnmapLookupSpeculation) and no write lock is ever taken.
    bool any_overlap;
    {
      void* rh = lock_->LockRead({s, e});
      EpochGuard guard(EpochDomain::Global());
      any_overlap = AnyMappingInRange(s, e);
      lock_->UnlockRead(rh);
    }
    if (!any_overlap) {
      stats_.unmap_lookup_fastpath.Add();
      return false;
    }
  }
  if (scoped_structural_) {
    // Every byte whose mapping changes lies in [s, e); the one-page pad covers the
    // boundary writes at s and e so they conflict with any speculative mprotect moving
    // the same boundary. Classify-then-fallback: a padded range that cannot be
    // represented (top-of-address-space wrap) or whose argument range crosses a stripe
    // edge degrades to the full-range path.
    unsigned si = 0;
    uint64_t ls = 0;
    uint64_t le = 0;
    switch (ClassifyStructuralRange(s, e, &si, &ls, &le)) {
      case RangeClass::kScoped: {
        void* h = lock_->LockWrite({ls, le});
        VmaStripe& st = index_.Stripe(si);
        st.LockMutate();
        bool populated = false;
        const bool any = ApplyMunmapLocked(s, e, si, si, &populated);
        st.UnlockMutate();
        // The sweep runs strictly after the seqcount bump: a fault that installs after
        // it fails validation and undoes its own install.
        if (populated) {
          pages_.RemoveRange(s / kPageSize, e / kPageSize);
        } else if (any) {
          stats_.sweeps_skipped_empty.Add();
        }
        lock_->UnlockWrite(h);
        stats_.scoped_structural.Add();
        stats_.stripe(si).scoped_structural.Add();
        st.MaybeFlushRetired();
        return any;
      }
      case RangeClass::kCrossStripe:
        stats_.cross_stripe_fallback.Add();
        break;
      case RangeClass::kWrapped:
        break;
    }
    stats_.scoped_fallback.Add();
    stats_.stripe(index_.IndexOf(s)).scoped_fallback.Add();
  }
  const unsigned lo = index_.IndexOf(s);
  const unsigned hi = index_.IndexOf(e - 1);
  void* h = lock_->LockFullWrite();
  index_.LockMutateRange(lo, hi);
  bool populated = false;
  const bool any = ApplyMunmapLocked(s, e, lo, hi, &populated);
  index_.UnlockMutateRange(lo, hi);
  if (populated) {
    pages_.RemoveRange(s / kPageSize, e / kPageSize);
  } else if (any) {
    stats_.sweeps_skipped_empty.Add();
  }
  lock_->UnlockWrite(h);
  index_.MaybeFlushRetired(lo, hi);
  return any;
}

void AddressSpace::DrainSweeps() {
  // Every sweep already ran inside its Munmap/MadviseDontNeed; what can still hold a
  // page in a dead range is a speculative fault between its install and its undo. The
  // epoch barrier waits out every fault in flight (each runs inside an epoch quantum),
  // so afterwards no such install survives.
  EpochDomain::ThreadRec* rec = CurrentThreadRec(EpochDomain::Global());
  EpochDomain::QuiesceQuantum(rec);
  EpochDomain::Global().Barrier(rec);
}

AddressSpace::RangeClass AddressSpace::ClassifyStructuralRange(uint64_t s, uint64_t e,
                                                               unsigned* si,
                                                               uint64_t* ls,
                                                               uint64_t* le) const {
  uint64_t lo = s >= kPageSize ? s - kPageSize : 0;
  uint64_t hi = e + kPageSize;
  if (hi <= e) {
    return RangeClass::kWrapped;  // pad overflowed the top of the address space
  }
  const unsigned stripe = index_.IndexOf(s);
  if (stripe != index_.IndexOf(e - 1)) {
    return RangeClass::kCrossStripe;  // the argument range itself spans stripes
  }
  // Clamp the pads at the stripe's window edges. Sound because nothing interacts
  // across an edge: no VMA straddles one, so a boundary at a window base/end has no
  // neighbour on the far side for a merge, clip, or speculative boundary move to
  // touch — the pad would conflict with operations that cannot exist. (The clamp only
  // applies when [s, e) itself is inside the window; ranges in the clamped margins
  // outside all windows keep their full pads.)
  const uint64_t wb = VmaIndex::WindowBase(stripe);
  const uint64_t we = VmaIndex::WindowEnd(stripe);
  if (wb <= s && lo < wb) {
    lo = wb;
  }
  if (we >= e && hi > we) {
    hi = we;
  }
  if (index_.IndexOf(lo) != index_.IndexOf(hi - 1)) {
    return RangeClass::kCrossStripe;  // pad still crosses (range in a clamped margin)
  }
  *si = stripe;
  *ls = lo;
  *le = hi;
  return RangeClass::kScoped;
}

bool AddressSpace::AnyMappingInRange(uint64_t s, uint64_t e) {
  const unsigned lo = index_.IndexOf(s);
  const unsigned hi = index_.IndexOf(e - 1);
  for (unsigned i = lo; i <= hi; ++i) {
    const VmaStripe& st = index_.Stripe(i);
    Vma* v = scoped_structural_ ? st.FindOptimistic(s, &stats_) : st.Find(s);
    if (v != nullptr && v->Start() < e) {
      return true;
    }
  }
  return false;
}

bool AddressSpace::ApplyMprotectLocked(uint64_t s, uint64_t e, uint32_t prot,
                                       unsigned lo, unsigned hi) {
  // Coverage check first — no partial effects on ENOMEM, matching the kernel's
  // behaviour for the common case.
  {
    uint64_t cur = s;
    Vma* v = index_.Find(s, lo, hi);
    while (cur < e) {
      if (v == nullptr || v->Start() > cur) {
        return false;
      }
      cur = v->End();
      v = index_.Next(v, hi);
    }
  }
  // Split so that [s, e) is tiled by whole VMAs, flipping protections as we go. Splits
  // always keep the existing node as the left piece (its tree key is unchanged) and
  // insert the right piece as a new node, so tree order is never transiently violated.
  Vma* v = index_.Find(s, lo, hi);
  while (v != nullptr && v->Start() < e) {
    if (v->Prot() == prot) {
      v = index_.Next(v, hi);
      continue;
    }
    if (v->Start() < s) {
      Vma* tail = AllocVma(s, v->End(), v->Prot());
      // Split pieces take custody of pages counted against the parent (whose hint a
      // racing out-of-range fault may still be incrementing): every custody transfer
      // saturates the receiver, and the next strict CheckInvariants resyncs to exact.
      SaturateHint(tail);
      v->end.store(s, std::memory_order_relaxed);
      index_.Insert(tail);
      v = tail;
      continue;  // reprocess the covered piece
    }
    if (v->End() > e) {
      Vma* tail = AllocVma(e, v->End(), v->Prot());
      SaturateHint(tail);
      v->end.store(e, std::memory_order_relaxed);
      index_.Insert(tail);
    }
    v->prot.store(prot, std::memory_order_relaxed);
    v = index_.Next(v, hi);
  }
  // Merge sweep over the affected neighbourhood (the kernel merges eagerly in
  // vma_merge; we restore the canonical form after the fact). Never across a stripe
  // edge: the merged VMA would straddle two windows, breaking the invariant that an
  // address's stripe locates its covering VMA.
  Vma* m = index_.Find(s == 0 ? 0 : s - 1, lo, hi);
  while (m != nullptr && m->Start() <= e) {
    Vma* next = index_.Next(m, hi);
    if (next != nullptr && m->End() == next->Start() && m->Prot() == next->Prot() &&
        index_.IndexOf(m->Start()) == index_.IndexOf(next->Start())) {
      // The merged VMA takes custody of the absorbed one's pages; a speculative fault
      // that validated just before this mutate section may have incremented the
      // absorbed VMA's hint without that (relaxed) increment being visible here, so
      // the receiver saturates like every other custody transfer.
      SaturateHint(m);
      m->end.store(next->End(), std::memory_order_relaxed);
      index_.EraseAndRetire(next);
      continue;  // try to absorb further
    }
    m = next;
  }
  return true;
}

bool AddressSpace::ScopedStructuralMprotect(uint64_t s, uint64_t e, uint32_t prot,
                                            bool* ok) {
  unsigned si = 0;
  uint64_t ls = 0;
  uint64_t le = 0;
  switch (ClassifyStructuralRange(s, e, &si, &ls, &le)) {
    case RangeClass::kScoped:
      break;
    case RangeClass::kCrossStripe:
      // The argument range spans a stripe edge: the single-stripe lock cannot cover
      // every boundary this op may move. Degrade to the full path, which fences all
      // affected stripes.
      stats_.cross_stripe_fallback.Add();
      return false;
    case RangeClass::kWrapped:
      return false;  // padded range wraps: not representable, take the full path
  }
  void* h = lock_->LockWrite({ls, le});
  VmaStripe& st = index_.Stripe(si);
  // Classify-then-fallback (the structural analogue of SpecCase): every boundary and
  // protection write of ApplyMprotectLocked lands in [s, e] — except the merge sweep,
  // which can absorb (erase) a VMA extending past the locked span. Only VMAs already
  // carrying the target protection are absorbable: in-range pieces get split/flipped
  // and stay inside [s, e], but a same-prot VMA overlapping [s, e] (including one
  // starting exactly at e) is never split and survives to the sweep whole. Erasing a
  // VMA whose bytes we did not lock would race readers of those bytes, so any such
  // candidate escapes to the full-range path. The scan itself mutates nothing and runs
  // under the stable stripe lock, stalling optimistic walkers only once the seqlock
  // write section opens for the actual mutation.
  st.LockStable();
  bool escapes = false;
  for (Vma* v = st.Find(s); v != nullptr && v->Start() <= e; v = VmaStripe::Next(v)) {
    if (v->Prot() == prot && v->End() > le) {
      escapes = true;
      break;
    }
  }
  if (escapes) {
    st.UnlockStable();
    lock_->UnlockWrite(h);
    return false;
  }
  st.UpgradeStableToMutate();
  *ok = ApplyMprotectLocked(s, e, prot, si, si);
  st.UnlockMutate();
  lock_->UnlockWrite(h);
  stats_.scoped_structural.Add();
  stats_.stripe(si).scoped_structural.Add();
  return true;
}

AddressSpace::SpecCase AddressSpace::ClassifySpeculative(Vma* vma, uint64_t s, uint64_t e,
                                                         uint32_t prot) {
  const uint64_t vs = vma->Start();
  const uint64_t ve = vma->End();
  if (s < vs || e > ve) {
    return SpecCase::kStructural;  // spans VMAs (or a gap) — full path sorts it out
  }
  if (vma->Prot() == prot) {
    return SpecCase::kNoop;
  }
  // Stripe-local neighbours: a VMA starting at its window base has no in-tree
  // predecessor, so boundary moves never cross a stripe edge by construction.
  Vma* prev = VmaStripe::Prev(vma);
  Vma* next = VmaStripe::Next(vma);
  const bool prev_mergeable =
      prev != nullptr && prev->End() == vs && prev->Prot() == prot;
  const bool next_mergeable =
      next != nullptr && next->Start() == ve && next->Prot() == prot;
  if (s == vs && e == ve) {
    // Whole-VMA flip: only metadata-unchanged if no neighbour would merge (a merge
    // removes a node from mm_rb — structural).
    return (prev_mergeable || next_mergeable) ? SpecCase::kStructural
                                              : SpecCase::kWholeFlip;
  }
  if (s == vs && prev_mergeable) {
    return SpecCase::kHeadMove;  // Figure 2: the head of vma joins prev
  }
  if (e == ve && next_mergeable) {
    return SpecCase::kTailMove;  // mirror image: the tail of vma joins next
  }
  return SpecCase::kStructural;  // interior change — needs a split
}

bool AddressSpace::Mprotect(uint64_t addr, uint64_t length, uint32_t prot) {
  if (length == 0) {
    return false;
  }
  stats_.mprotects.Add();
  const uint64_t s = PageDown(addr);
  const uint64_t e = PageUp(addr + length);
  if (e <= s) {
    return false;  // wrapped range: denotes nothing (and Range{s, e} would be invalid)
  }

  bool speculate = refine_mprotect_;
  for (;;) {
    if (!speculate) {
      if (scoped_structural_) {
        bool ok = false;
        if (ScopedStructuralMprotect(s, e, prot, &ok)) {
          index_.StripeFor(s).MaybeFlushRetired();
          return ok;
        }
        stats_.scoped_fallback.Add();
        stats_.stripe(index_.IndexOf(s)).scoped_fallback.Add();
      }
      const unsigned lo = index_.IndexOf(s);
      const unsigned hi = index_.IndexOf(e - 1);
      void* h = lock_->LockFullWrite();
      index_.LockMutateRange(lo, hi);
      const bool ok = ApplyMprotectLocked(s, e, prot, lo, hi);
      index_.UnlockMutateRange(lo, hi);
      lock_->UnlockWrite(h);
      index_.MaybeFlushRetired(lo, hi);
      return ok;
    }

    // Listing 4: read-lock the argument range for the lookup phase. The epoch guard
    // spans the whole attempt — the unlocked window between the read and write
    // acquisitions legally dereferences a stale vma pointer (line 15), and with
    // epoch-reclaimed VMAs that is only safe inside a critical section.
    {
      EpochGuard guard(EpochDomain::Global());
      void* rh = lock_->LockRead({s, e});
      Vma* vma = FindVmaForRead(s);
      if (vma == nullptr || vma->Start() > s) {
        lock_->UnlockRead(rh);
        return false;  // start address unmapped — ENOMEM
      }
      // The covering VMA's stripe is s's stripe (no VMA straddles a window edge);
      // its seqcount is the §5.2 speculation validator for this attempt.
      VmaStripe& st = index_.StripeFor(s);
      const uint64_t seq = st.ReadSeq();
      const uint64_t aligned_start = vma->Start() - kPageSize;
      const uint64_t aligned_end = vma->End() + kPageSize;
      lock_->UnlockRead(rh);

      // Re-acquire for write with the range widened to the VMA plus one page on each
      // side, so concurrent boundary moves on the neighbours are excluded (§5.2). The
      // stable stripe lock holds off out-of-range structural writers of this stripe
      // during classification without invalidating concurrent optimistic walks.
      void* wh = lock_->LockWrite({aligned_start, aligned_end});
      st.LockStable();
      if (!st.ValidateSeq(seq) || aligned_start != vma->Start() - kPageSize ||
          aligned_end != vma->End() + kPageSize) {
        st.UnlockStable();
        lock_->UnlockWrite(wh);
        stats_.spec_retries.Add();
        continue;  // mm_rb may have changed under us — retry from the top
      }

      // Metadata commits open the affected VMAs' per-VMA seqlock write sections (not
      // the stripe's structural seqcount — §5.2: a successful speculation must not
      // invalidate concurrent speculations or optimistic walks). The lock-free fault
      // path is the one reader that cannot rely on a page-range acquisition to exclude
      // these writes; its meta_seq snapshot turns a mid-commit read of (bounds, prot)
      // — and the transient gap a boundary move passes through — into a retry. Both
      // sections of a move open before either boundary store and close after both, so
      // a fault racing the move observes an odd/advanced seqlock on whichever VMA it
      // reads.
      bool fell_back = false;
      switch (ClassifySpeculative(vma, s, e, prot)) {
        case SpecCase::kNoop:
          break;
        case SpecCase::kWholeFlip:
          vma->meta_seq.BeginWrite();
          vma->prot.store(prot, std::memory_order_relaxed);
          vma->meta_seq.EndWrite();
          break;
        case SpecCase::kHeadMove: {
          // Shrink the receiver-side boundary last so the region transits through a
          // (locked, unreachable-to-locked-readers) gap rather than a transient
          // overlap.
          Vma* prev = VmaStripe::Prev(vma);
          // The receiver may gain pages whose installs were (or will be, by a fault
          // that read the old bounds) attributed to the donor, so its own hint stops
          // being a sound upper bound. Saturate it: never under-counts, never lets an
          // unmap of the receiver skip its sweep, and the next strict CheckInvariants
          // resyncs it to the exact count. The donor keeps its hint (a bound on a
          // superset range is a bound on the shrunk one).
          SaturateHint(prev);
          vma->meta_seq.BeginWrite();
          prev->meta_seq.BeginWrite();
          vma->start.store(e, std::memory_order_relaxed);
          prev->end.store(e, std::memory_order_relaxed);
          prev->meta_seq.EndWrite();
          vma->meta_seq.EndWrite();
          break;
        }
        case SpecCase::kTailMove: {
          Vma* next = VmaStripe::Next(vma);
          SaturateHint(next);  // receiver side — see kHeadMove
          vma->meta_seq.BeginWrite();
          next->meta_seq.BeginWrite();
          vma->end.store(s, std::memory_order_relaxed);
          next->start.store(s, std::memory_order_relaxed);
          next->meta_seq.EndWrite();
          vma->meta_seq.EndWrite();
          break;
        }
        case SpecCase::kStructural:
          stats_.spec_fallback.Add();
          speculate = false;
          fell_back = true;
          break;
      }
      st.UnlockStable();
      lock_->UnlockWrite(wh);
      if (fell_back) {
        continue;  // redo on the structural path
      }
    }
    stats_.spec_success.Add();
    return true;
  }
}

bool AddressSpace::PageFaultLocked(uint64_t addr, bool is_write, uint64_t page_addr) {
  Vma* vma = FindVmaForRead(addr);
  bool ok = vma != nullptr && vma->Start() <= addr;
  if (ok) {
    const uint32_t required = is_write ? kProtWrite : kProtRead;
    ok = (vma->Prot() & required) == required;
  }
  if (ok) {
    const uint64_t page = page_addr / kPageSize;
    if (pages_.Install(page)) {
      vma->present_hint.fetch_add(1, std::memory_order_relaxed);
      stats_.stripe(index_.IndexOf(page_addr)).major_faults.Add();
    }
  } else {
    stats_.fault_errors.Add();
  }
  return ok;
}

// The lock-free fault fast path (scoped variants only). No range acquisition at all:
//
//   snapshot  — one epoch-quantum guard (amortized: 2 RMWs per kOpsPerQuantum faults,
//               not per fault) keeps every VMA the walk touches dereferenceable; one
//               bounded optimistic walk of THE FAULTING ADDRESS'S STRIPE returns the
//               candidate VMA plus the even snapshot of that stripe's structural
//               seqcount the walk validated against. Other stripes' churn is invisible
//               to this snapshot — the point of striping.
//   read      — the covering VMA's (start, end, prot) under its per-VMA meta_seq
//               seqlock, which metadata-only speculative mprotects bump (they are
//               invisible to the structural seqcounts by design).
//   install   — conditional page install for a proven-covered access.
//   validate  — re-validate the stripe's seqcount and the VMA's live flag AFTER the
//               install. Install/validate in that order is the load-bearing decision:
//               a munmap of this stripe bumps the stripe seqcount (unlink) strictly
//               before it sweeps the page table, so a fault whose install lands after
//               the sweep observes the bump and undoes, while a fault whose validation
//               passes had its install ordered before the unlink — and therefore
//               before the sweep, which erases it. Either way no page survives in an
//               unmapped range. (A munmap of a DIFFERENT stripe cannot unmap this
//               address: VMAs never straddle stripe windows, so the covering mapping
//               and the faulting address share a stripe — the per-stripe restatement
//               of the PR 4 ordering argument.)
//   undo/retry/fallback — a failed validation removes the page this fault installed
//               (ticket-exact: never a page a winning fault re-installed after a sweep
//               erased ours) and retries; gaps and exhausted budgets degrade to the
//               trylock-first locked path, whose page-range read lock excludes every
//               writer of the faulting page and can adjudicate negatives exactly.
//
// Trust discipline: a *successful* return requires the post-install validation; a
// *SIGSEGV* return requires both the stripe's seqcount and the per-VMA seqlock to
// validate (a transient gap observed mid-boundary-move is neither — it falls back).
int AddressSpace::PageFaultOptimistic(uint64_t addr, bool is_write, uint64_t page_addr) {
  EpochQuantumGuard guard(EpochDomain::Global());
  const unsigned si = index_.IndexOf(addr);
  const VmaStripe& stripe = index_.Stripe(si);
  const VmStripeStats& sstats = stats_.stripe(si);
  for (int attempt = 0; attempt < kFaultSpecAttempts; ++attempt) {
    Vma* vma = nullptr;
    uint64_t iseq = 0;
    if (!stripe.TryFindOptimistic(addr, &vma, &iseq)) {
      stats_.find_retries.Add();
      stats_.fault_spec_retry.Add();
      sstats.find_retries.Add();
      sstats.fault_spec_retry.Add();
      continue;
    }
    if (vma == nullptr) {
      // Above every mapping of this stripe. The maximal End() only moves under a
      // structural mutation (boundary moves need a successor), which the validated
      // walk excludes — but the locked path adjudicates all negatives for uniformity.
      return -1;
    }
    const uint64_t vseq = vma->meta_seq.ReadBegin();
    const uint64_t vs = vma->Start();
    const uint64_t ve = vma->End();
    const uint32_t prot = vma->Prot();
    if (!vma->meta_seq.Validate(vseq)) {
      stats_.fault_spec_retry.Add();
      sstats.fault_spec_retry.Add();
      continue;  // torn metadata read: a boundary move / flip overlapped
    }
    if (vs > addr || ve <= addr) {
      // A gap. Possibly real (SIGSEGV), possibly the transient hole a completed
      // boundary move leaves between the walk and the field reads (the bytes now
      // belong to the *predecessor*). Only the locked path can tell them apart.
      return -1;
    }
    const uint32_t required = is_write ? kProtWrite : kProtRead;
    if ((prot & required) != required) {
      // Deny only against doubly-validated state: the per-VMA seqlock proved the
      // (bounds, prot) pair consistent; an unchanged stripe seqcount proves the VMA
      // was live and un-clipped for the whole read window.
      if (stripe.ValidateSeq(iseq) && !vma->Detached()) {
        sstats.fault_spec_ok.Add();
        stats_.fault_errors.Add();
        return 0;
      }
      stats_.fault_spec_retry.Add();
      sstats.fault_spec_retry.Add();
      continue;
    }

    if (test_validate_before_install_) {
      // TEST-ONLY broken ordering: validate, dawdle, then install. A munmap landing in
      // the window strands the install after the page sweep — the stale page the
      // fault-vs-unmap battery exists to catch.
      if (!stripe.ValidateSeq(iseq) || vma->Detached()) {
        stats_.fault_spec_retry.Add();
        sstats.fault_spec_retry.Add();
        continue;
      }
      for (uint32_t i = 0; i < test_spec_window_yields_; ++i) {
        std::this_thread::yield();
      }
      if (pages_.Install(page_addr / kPageSize)) {
        vma->present_hint.fetch_add(1, std::memory_order_relaxed);
        sstats.major_faults.Add();
      }
      sstats.fault_spec_ok.Add();
      return 1;
    }

    const uint64_t page = page_addr / kPageSize;
    uint64_t ticket = 0;
    const bool installed = pages_.Install(page, &ticket);
    if (installed) {
      // Count against the hint before validating, so a loser's (possible) decrement
      // always follows its own increment and the hint never dips below the true count.
      vma->present_hint.fetch_add(1, std::memory_order_relaxed);
      // Pairs with the fence in ApplyMunmapLocked: orders the hint increment above
      // before the seqcount load in ValidateSeq below. Either a racing munmap's hint
      // read sees the increment (its sweep erases this install), or this
      // validation sees its seqcount bump and the fault loses. Locked faults need no
      // fence — the range lock orders them against munmap wholesale.
      SeqCstFence();
    }
    for (uint32_t i = 0; i < test_spec_window_yields_; ++i) {
      std::this_thread::yield();
    }
    if (installed) {
      // Test-only deterministic park gate (TestOnlyParkNextSpecFault): hold this
      // fault inside the install→validate window until the test releases it.
      uint32_t pend = test_spec_park_pending_.load(std::memory_order_acquire);
      if (pend != 0 && test_spec_park_pending_.compare_exchange_strong(
                           pend, 0, std::memory_order_acq_rel)) {
        test_spec_parked_.store(true, std::memory_order_release);
        const auto backstop =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!test_spec_park_release_.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < backstop) {
          std::this_thread::yield();
        }
      }
    }
    if (!stripe.ValidateSeq(iseq) || vma->Detached()) {
      if (installed) {
        if (test_exact_undo_) {
          // Remove only our own install. A Munmap/MadviseDontNeed sweep may already
          // have erased it and let a winning fault re-install the page; RemoveExact
          // leaves the winner's install (a different ticket) alone, and the hint is
          // decremented only when we actually removed.
          if (pages_.RemoveExact(page, ticket)) {
            vma->present_hint.fetch_sub(1, std::memory_order_relaxed);
          }
        } else {
          // TEST-ONLY blind undo (TestOnlySetExactUndo(false)): can erase a winner's
          // re-install after a sweep erased ours — the stale-absence the fault-vs-unmap
          // oracle exists to catch.
          pages_.Remove(page);
          vma->present_hint.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      stats_.fault_spec_retry.Add();
      sstats.fault_spec_retry.Add();
      continue;
    }
    if (installed) {
      sstats.major_faults.Add();
    }
    sstats.fault_spec_ok.Add();
    return 1;
  }
  return -1;
}

bool AddressSpace::PageFault(uint64_t addr, bool is_write) {
  stats_.stripe(index_.IndexOf(addr)).faults.Add();
  const uint64_t page_addr = PageDown(addr);
  if (scoped_structural_) {
    const int verdict = PageFaultOptimistic(addr, is_write, page_addr);
    if (verdict >= 0) {
      return verdict != 0;
    }
    stats_.fault_spec_fallback.Add();
  }
  const Range r = refine_fault_ ? Range{page_addr, page_addr + kPageSize} : Range::Full();
  // Trylock-first, mirroring the kernel fault path (do_user_addr_fault does
  // mmap_read_trylock before it will ever sleep): the uncontended fault never blocks,
  // and the contended one falls back to the ordinary blocking acquisition.
  void* h = nullptr;
  if (lock_->TryLockRead(r, &h)) {
    stats_.fault_try_ok.Add();
  } else {
    stats_.fault_try_fallback.Add();
    h = lock_->LockRead(r);
  }
  bool ok;
  if (scoped_structural_) {
    // The page-range read lock no longer excludes out-of-range structural writers, so
    // the lookup walks optimistically and the epoch guard keeps any VMA the walk
    // touches (including concurrently retired ones) dereferenceable.
    EpochGuard guard(EpochDomain::Global());
    ok = PageFaultLocked(addr, is_write, page_addr);
  } else {
    ok = PageFaultLocked(addr, is_write, page_addr);
  }
  lock_->UnlockRead(h);
  return ok;
}

bool AddressSpace::MadviseDontNeed(uint64_t addr, uint64_t length) {
  if (length == 0) {
    return false;
  }
  const uint64_t s = PageDown(addr);
  const uint64_t e = PageUp(addr + length);
  if (e <= s) {
    return false;  // wrapped range
  }
  // MADV_DONTNEED runs under the read acquisition in the kernel: it only drops pages.
  // No present_hint is decremented: the hint is an upper bound and only a fault's own
  // exact undo may lower it.
  void* h = lock_->LockRead(refine_fault_ ? Range{s, e} : Range::Full());
  pages_.RemoveRange(s / kPageSize, e / kPageSize);
  lock_->UnlockRead(h);
  return true;
}

std::vector<VmaInfo> AddressSpace::SnapshotVmas() {
  std::vector<VmaInfo> out;
  // The full-range write acquisition conflicts with every scoped writer and reader, so
  // every stripe's tree is quiescent and plain cross-stripe iteration is safe.
  void* h = lock_->LockFullWrite();
  const unsigned last = stripes_ - 1;
  for (Vma* v = index_.First(0, last); v != nullptr; v = index_.Next(v, last)) {
    out.push_back({v->Start(), v->End(), v->Prot()});
  }
  lock_->UnlockWrite(h);
  return out;
}

bool AddressSpace::CheckInvariants(bool strict_present_counts) {
  void* h = lock_->LockFullWrite();
  bool ok = index_.ValidateStructure();
  uint64_t prev_end = 0;
  const unsigned last = stripes_ - 1;
  for (Vma* v = index_.First(0, last); ok && v != nullptr; v = index_.Next(v, last)) {
    const uint64_t vs = v->Start();
    const uint64_t ve = v->End();
    ok = vs < ve && vs % kPageSize == 0 && ve % kPageSize == 0 && vs >= prev_end &&
         // No VMA may straddle a stripe-window edge: stripe-local lookups depend on it.
         index_.IndexOf(vs) == index_.IndexOf(ve - 1);
    if (ok && strict_present_counts) {
      // The hint must bound the exact count from above (a hint below it would let an
      // unmap skip a sweep whose pages exist — the stale-page bug class); once proven,
      // resync it so hint-based decisions stay tight. Only sound for quiescent
      // callers: a concurrent fault's install lands in the count before its hint
      // increment is visible.
      const uint64_t actual = pages_.CountRange(vs / kPageSize, ve / kPageSize);
      if (v->present_hint.load(std::memory_order_relaxed) < actual) {
        ok = false;
      } else {
        v->present_hint.store(actual, std::memory_order_relaxed);
      }
    }
    prev_end = ve;
  }
  if (ok) {
    // No page may be present outside a mapped VMA.
    std::vector<uint64_t> suspects;
    for (uint64_t page : pages_.AllPages()) {
      const uint64_t a = page * kPageSize;
      Vma* v = index_.Find(a, 0, last);
      if (v == nullptr || v->Start() > a) {
        suspects.push_back(page);
      }
    }
    if (!suspects.empty()) {
      // Not a verdict yet: a speculative fault that is about to lose holds a
      // transient install in a just-unmapped range for its whole
      // install→validate→undo window, which preemption can stretch across this
      // entire scan — and our full write lock does not order lock-free faults.
      // Settle instead of flaking: drop the lock, drain (the barrier waits out every
      // such fault), and re-examine only the recorded suspects. A real leak survives
      // the drain and still fails.
      lock_->UnlockWrite(h);
      DrainSweeps();
      h = lock_->LockFullWrite();
      for (uint64_t page : suspects) {
        if (pages_.CountRange(page, page + 1) == 0) {
          continue;  // the loser undid it: transient, fine
        }
        const uint64_t a = page * kPageSize;
        Vma* v = index_.Find(a, 0, last);
        if (v == nullptr || v->Start() > a) {
          ok = false;
          break;
        }
      }
    }
  }
  lock_->UnlockWrite(h);
  return ok;
}

}  // namespace srl::vm
