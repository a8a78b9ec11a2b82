// Per-CPU event counters, the shape of the kernel's per-CPU vm_event_state.
//
// A shared std::atomic counter bumped on every event puts its cache line in every
// counting thread's write set. At millions of events a second the line's transfers,
// not the work being counted, set the throughput: the same shape as the internal spin
// lock the paper removes from the range tree. PerCpuCounters keeps a set of counters as
// one cache-line-aligned block per CPU slot, each block holding every counter of the
// set. An increment writes only the block of the CPU it runs on; a read sums the slots.
//
// Slot choice: Topology::CurrentCpu() masked to the slot count (bit_ceil of the CPU
// count, at most kMaxSlots), and slot 0 when the CPU is unknown. Increments stay relaxed
// atomic RMWs rather than plain load+store, so a thread that migrates between reading
// its CPU and incrementing, or two CPUs that mask onto one slot, still count exactly.
// A read is exact once the counting threads are quiescent; while they run, it sums each
// slot's value at some point during the read.
#ifndef SRL_SYNC_PERCPU_COUNTER_H_
#define SRL_SYNC_PERCPU_COUNTER_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/sync/cacheline.h"
#include "src/sync/topology.h"

namespace srl {

class PerCpuCounters {
 public:
  static constexpr unsigned kMaxSlots = 64;

  // One slot per CPU of this machine, up to kMaxSlots.
  static unsigned DefaultSlots() {
    return std::min(kMaxSlots, std::bit_ceil(std::max(1u, Topology::Get().CpuCount())));
  }

  // `counters` counters, all zero. `slots` is rounded up to a power of two and clamped
  // to [1, kMaxSlots]; tests pass a small count to force slot sharing.
  explicit PerCpuCounters(std::size_t counters = 0, unsigned slots = DefaultSlots())
      : counters_(counters),
        lines_per_slot_((counters + kPerLine - 1) / kPerLine),
        mask_(std::bit_ceil(std::clamp(slots, 1u, kMaxSlots)) - 1),
        lines_(std::make_unique<Line[]>(lines_per_slot_ * (mask_ + 1))) {}

  std::size_t Size() const { return counters_; }
  unsigned Slots() const { return mask_ + 1; }

  void Add(std::size_t i, uint64_t n = 1) {
    Word(SlotOfThisCpu(), i).fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Sum(std::size_t i, std::memory_order order = std::memory_order_relaxed) const {
    uint64_t sum = 0;
    for (unsigned s = 0; s <= mask_; ++s) {
      sum += Word(s, i).load(order);
    }
    return sum;
  }

 private:
  static constexpr std::size_t kPerLine = kCacheLineSize / sizeof(std::atomic<uint64_t>);
  struct alignas(kCacheLineSize) Line {
    std::atomic<uint64_t> word[kPerLine] = {};
  };

  unsigned SlotOfThisCpu() const {
    const int cpu = Topology::CurrentCpu();
    return cpu < 0 ? 0 : static_cast<unsigned>(cpu) & mask_;
  }

  std::atomic<uint64_t>& Word(unsigned slot, std::size_t i) const {
    return lines_[slot * lines_per_slot_ + i / kPerLine].word[i % kPerLine];
  }

  std::size_t counters_;
  std::size_t lines_per_slot_;
  unsigned mask_;
  std::unique_ptr<Line[]> lines_;
};

// One counter of a PerCpuCounters set, for structs that expose their counters as named
// members. load() keeps the read surface of the std::atomic it replaces and returns the
// summed total; Add() is const, like std::atomic_ref's RMWs, because the handle only
// points at the set.
class PerCpuCounter {
 public:
  PerCpuCounter(PerCpuCounters* set, std::size_t index) : set_(set), index_(index) {}

  void Add(uint64_t n = 1) const { set_->Add(index_, n); }
  uint64_t load(std::memory_order order = std::memory_order_relaxed) const {
    return set_->Sum(index_, order);
  }

 private:
  PerCpuCounters* set_;
  std::size_t index_;
};

}  // namespace srl

#endif  // SRL_SYNC_PERCPU_COUNTER_H_
