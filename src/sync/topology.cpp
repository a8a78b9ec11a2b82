#include "src/sync/topology.h"

#include <filesystem>
#include <string>
#include <system_error>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace srl {

std::atomic<bool> Topology::forced_single_core_{false};

Topology::Topology() {
  const unsigned hw = std::thread::hardware_concurrency();
  cpu_count_ = hw == 0 ? 1 : hw;
  // Node directories are consecutive; the first gap ends the count.
  unsigned nodes = 0;
  std::error_code ec;
  while (std::filesystem::is_directory(
      "/sys/devices/system/node/node" + std::to_string(nodes), ec)) {
    ++nodes;
  }
  node_count_ = nodes == 0 ? 1 : nodes;
}

const Topology& Topology::Get() {
  static const Topology topo;
  return topo;
}

int Topology::CurrentCpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

void Topology::TestOnlyForceSingleCore(bool on) {
  forced_single_core_.store(on, std::memory_order_relaxed);
}

}  // namespace srl
