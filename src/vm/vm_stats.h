// Operation and speculation counters for the simulated VM subsystem.
//
// spec_success / spec_fallback reproduce the paper's ftrace observation that "the
// majority of the calls to mprotect (over 99%) succeed in the speculative path" for the
// GLIBC-arena workload.
//
// Every counter is a per-CPU event counter (src/sync/percpu_counter.h), the shape of the
// kernel's vm_event_state: each CPU slot owns one cache-line-aligned block holding all
// of this struct's counters, flat and per-stripe, so a fault, mmap or munmap writes
// only its own CPU's lines and a read sums the slots. A shared fetch_add per fault
// would serialize every faulting thread on one line, and the speculative fault, which
// takes no range lock at all, would stop scaling on its counters.
//
// Since the address space was sharded into stripes, the counters that localize to one
// stripe (faults, scoped structural ops, speculative fault outcomes, optimistic-walk
// retries, mmap cursor overflow) are also kept per stripe, so the isolation claim
// (churn in stripe A causes no speculative-fault retries in stripe B) is directly
// observable rather than inferred. The flat totals are bumped on the same events,
// except faults, major_faults and fault_spec_ok: those exist per stripe only, and
// Faults(), MajorFaults() and FaultSpecOk() sum the stripes.
#ifndef SRL_VM_VM_STATS_H_
#define SRL_VM_VM_STATS_H_

#include <cstdint>
#include <vector>

#include "src/sync/percpu_counter.h"

namespace srl::vm {

// Per-stripe slice of the counters below; see VmStats::stripe().
struct VmStripeStats {
  PerCpuCounter faults;             // faults whose address lands in this stripe
  PerCpuCounter major_faults;       // of those, pages actually installed
  PerCpuCounter scoped_structural;  // structural ops completed stripe-scoped
  PerCpuCounter scoped_fallback;    // ops starting in this stripe that degraded
  PerCpuCounter fault_spec_ok;      // lock-free faults resolved in this stripe
  PerCpuCounter fault_spec_retry;   // speculative attempts retried (same-stripe churn)
  PerCpuCounter find_retries;       // optimistic walks of this stripe's tree retried
  PerCpuCounter mmap_overflow;      // mmaps that overflowed INTO this stripe
};

class VmStats {
  // Declared first: each counter below takes the next index of the set, in declaration
  // order, and the constructor sizes the set once every index is handed out.
  PerCpuCounters counters_;
  uint32_t next_ = 0;
  PerCpuCounter Next() { return PerCpuCounter(&counters_, next_++); }

 public:
  explicit VmStats(unsigned stripes) {
    per_stripe_.reserve(stripes);
    for (unsigned i = 0; i < stripes; ++i) {
      // Braced initialization evaluates left to right: stripe i's eight counters take
      // consecutive indices.
      per_stripe_.push_back(
          VmStripeStats{Next(), Next(), Next(), Next(), Next(), Next(), Next(), Next()});
    }
    counters_ = PerCpuCounters(next_);
  }
  VmStats(const VmStats&) = delete;
  VmStats& operator=(const VmStats&) = delete;

  PerCpuCounter mmaps = Next();
  PerCpuCounter munmaps = Next();
  PerCpuCounter mprotects = Next();
  PerCpuCounter fault_errors = Next();        // unmapped address or protection violation
  PerCpuCounter fault_try_ok = Next();        // fault admitted by the trylock fast path
  PerCpuCounter fault_try_fallback = Next();  // trylock failed; blocked on the read lock
  // Lock-free speculative fault path (scoped variants): attempts that had to retry
  // (validation failure / torn metadata read), and faults that exhausted their attempts
  // (or observed a gap, which only the locked path may adjudicate) and degraded to the
  // trylock-first locked path. The per-fault success counters (faults, major_faults,
  // fault_spec_ok) are per-stripe only: see the aggregated accessors below.
  PerCpuCounter fault_spec_retry = Next();
  PerCpuCounter fault_spec_fallback = Next();
  PerCpuCounter spec_success = Next();   // mprotect completed on the speculative path
  PerCpuCounter spec_retries = Next();   // seq/boundary validation failed, retried
  PerCpuCounter spec_fallback = Next();  // structural change forced the structural path
  PerCpuCounter unmap_lookup_fastpath = Next();  // munmap resolved under a read lock
  // Range-scoped structural ops (kTreeScoped / kListScoped): structural mutations that
  // completed under a write lock covering only the affected range (padded one page),
  // vs. the classify-then-fallback cases that had to degrade to a full-range write.
  PerCpuCounter scoped_structural = Next();
  PerCpuCounter scoped_fallback = Next();
  // Of the scoped fallbacks, how many degraded because the padded range crossed a
  // stripe edge (as opposed to being unrepresentable at the top of the address space).
  PerCpuCounter cross_stripe_fallback = Next();
  // Optimistic mm_rb walks (VmaStripe::FindOptimistic) that overlapped a structural
  // mutation and retried.
  PerCpuCounter find_retries = Next();
  // Munmaps that skipped the page sweep outright because every dying VMA's
  // present-page hint proved it never faulted a page (see README "Page sweeps").
  PerCpuCounter sweeps_skipped_empty = Next();

  unsigned StripeCount() const { return static_cast<unsigned>(per_stripe_.size()); }
  const VmStripeStats& stripe(unsigned i) const { return per_stripe_[i]; }

  uint64_t Faults() const { return SumStripes(&VmStripeStats::faults); }
  uint64_t MajorFaults() const { return SumStripes(&VmStripeStats::major_faults); }
  uint64_t FaultSpecOk() const { return SumStripes(&VmStripeStats::fault_spec_ok); }

  // Fraction of page faults resolved entirely lock-free (scoped variants; 0 elsewhere).
  double FaultSpecRate() const {
    const uint64_t total = Faults();
    if (total == 0) {
      return 0.0;
    }
    return static_cast<double>(FaultSpecOk()) / static_cast<double>(total);
  }

  // Fraction of page faults admitted without blocking — what bench/abl_trylock sweeps.
  double FaultTrySuccessRate() const {
    const uint64_t ok = fault_try_ok.load();
    const uint64_t fb = fault_try_fallback.load();
    if (ok + fb == 0) {
      return 0.0;
    }
    return static_cast<double>(ok) / static_cast<double>(ok + fb);
  }

  double SpeculationSuccessRate() const {
    const uint64_t total = mprotects.load();
    if (total == 0) {
      return 0.0;
    }
    return static_cast<double>(spec_success.load()) / static_cast<double>(total);
  }

  // Fraction of structural operations that stayed range-scoped (scoped variants only;
  // 0 when no structural op ran).
  double ScopedStructuralRate() const {
    const uint64_t scoped = scoped_structural.load();
    const uint64_t full = scoped_fallback.load();
    if (scoped + full == 0) {
      return 0.0;
    }
    return static_cast<double>(scoped) / static_cast<double>(scoped + full);
  }

 private:
  uint64_t SumStripes(PerCpuCounter VmStripeStats::*m) const {
    uint64_t sum = 0;
    for (const VmStripeStats& s : per_stripe_) {
      sum += (s.*m).load();
    }
    return sum;
  }

  std::vector<VmStripeStats> per_stripe_;
};

}  // namespace srl::vm

#endif  // SRL_VM_VM_STATS_H_
