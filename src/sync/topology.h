// Machine-topology probe: how many CPUs there are and which one a thread runs on.
//
// Consumers:
//   * AddressSpace::HomeStripe() homes a thread on the stripe of the CPU it first ran
//     on (`CurrentCpu() & (stripes - 1)`), so threads on one core share a stripe
//     instead of being scattered by registration order.
//   * PerCpuCounters picks its slot from CurrentCpu() and sizes itself by CpuCount().
//   * AdmissionGate derives its default cap from CpuCount().
//   * Benches stamp CpuCount() and NodeCount() into their output.
//
// The probe is graceful about degenerate environments: with no sysfs node directories
// (non-Linux, containers with masked /sys) NodeCount() is 1, and on a single-core host
// — or when TestOnlyForceSingleCore() is set — SingleCore() reports true so callers can
// keep their deterministic fallback policies (AddressSpace falls back to
// registration-order round-robin, exercised by vm_stripe_test).
#ifndef SRL_SYNC_TOPOLOGY_H_
#define SRL_SYNC_TOPOLOGY_H_

#include <atomic>

namespace srl {

class Topology {
 public:
  // The probed topology of this machine (probe runs once, thread-safe).
  static const Topology& Get();

  // CPU the calling thread is currently running on, or -1 when the platform cannot
  // say (no sched_getcpu). Cheap (vDSO on Linux); callers may still want to cache it
  // per thread when they need stability rather than currency.
  static int CurrentCpu();

  // Test hook: makes SingleCore() report true regardless of the real core count, so
  // single-core fallback paths can be exercised deterministically on any machine.
  static void TestOnlyForceSingleCore(bool on);

  unsigned CpuCount() const { return cpu_count_; }
  // NUMA nodes: the consecutive /sys/devices/system/node/node<N> directories, or 1
  // when there are none.
  unsigned NodeCount() const { return node_count_; }

  // True on a one-CPU machine (or under TestOnlyForceSingleCore): locality-based
  // placement has nothing to work with, use order-based fallbacks.
  bool SingleCore() const {
    return cpu_count_ <= 1 || forced_single_core_.load(std::memory_order_relaxed);
  }

 private:
  Topology();  // real probe: hardware_concurrency + sysfs node directories

  static std::atomic<bool> forced_single_core_;

  unsigned cpu_count_ = 1;
  unsigned node_count_ = 1;
};

}  // namespace srl

#endif  // SRL_SYNC_TOPOLOGY_H_
