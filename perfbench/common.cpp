#include "common.h"

#include <pthread.h>
#include <sched.h>

#include <fstream>

namespace perfbench {

bool WriteSpans(const std::string& path, const std::vector<ThreadTrace>& traces) {
  if (path.empty()) {
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::map<std::string, Totals> totals;
  uint64_t dropped = 0;
  for (const ThreadTrace& t : traces) {
    dropped += t.dropped_ops;
    // Spans of one op are stored contiguously, op span first; children never overlap
    // one another, so the op's self time is its duration minus theirs.
    for (std::size_t i = 0; i < t.spans.size();) {
      const Span& op = t.spans[i];
      uint64_t children_ns = 0;
      std::size_t j = i + 1;
      for (; j < t.spans.size() && t.spans[j].parent == 0; ++j) {
        const Span& c = t.spans[j];
        children_ns += c.end_ns - c.start_ns;
        Totals& ct = totals[c.name];
        ++ct.count;
        ct.total_ns += c.end_ns - c.start_ns;
        ct.self_ns += c.end_ns - c.start_ns;
      }
      Totals& ot = totals[op.name];
      ++ot.count;
      ot.total_ns += op.end_ns - op.start_ns;
      ot.self_ns += op.end_ns - op.start_ns - std::min(children_ns, op.end_ns - op.start_ns);
      for (std::size_t k = i; k < j; ++k) {
        const Span& s = t.spans[k];
        out << "{\"op\":" << s.op << ",\"span\":" << s.index << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}\n";
      }
      i = j;
    }
  }
  out << "{\"summary\":{\"dropped_ops\":" << dropped << ",\"spans\":{";
  bool first = true;
  for (const auto& [name, t] : totals) {
    out << (first ? "" : ",") << "\"" << name << "\":{\"count\":" << t.count
        << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns << "}";
    first = false;
  }
  out << "}}}\n";
  return static_cast<bool>(out);
}

namespace {

// The t-th CPU of the process's affinity mask, or -1 when it cannot be read.
int NthAllowedCpu(int t) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0 || CPU_COUNT(&set) == 0) {
    return -1;
  }
  int n = t % CPU_COUNT(&set);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set) && n-- == 0) {
      return cpu;
    }
  }
  return -1;
}

}  // namespace

SliceRun RunClients(
    double warmup_s, double measure_s, int windows,
    const std::function<void(int, const std::atomic<int>&, ClientSlot&)>& client,
    const std::function<void()>& at_measure) {
  std::atomic<int> phase{kWarmup};
  std::vector<ClientSlot> slots(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    const int cpu = NthAllowedCpu(t);
    threads.emplace_back([&, t, cpu] {
      // Pinned clients keep scheduler migrations out of the run-to-run spread; a
      // refused pin leaves the client unpinned.
      if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        pthread_setaffinity_np(pthread_self(), sizeof set, &set);
      }
      client(t, phase, slots[t]);
    });
  }
  auto total_ops = [&] {
    uint64_t sum = 0;
    for (const ClientSlot& s : slots) {
      sum += s.ops.load(std::memory_order_relaxed);
    }
    return sum;
  };
  using Clock = std::chrono::steady_clock;
  auto edge = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(warmup_s));
  std::this_thread::sleep_until(edge);
  at_measure();
  phase.store(1, std::memory_order_relaxed);
  uint64_t prev_ops = total_ops();
  uint64_t prev_ns = NowNs();
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(measure_s / windows));
  SliceRun run;
  for (int w = 0; w < windows; ++w) {
    edge += window;
    std::this_thread::sleep_until(edge);
    const uint64_t ops = total_ops();
    const uint64_t ns = NowNs();
    if (w + 1 < windows) {
      phase.store(w + 2, std::memory_order_relaxed);
    }
    run.rates.push_back(static_cast<double>(ops - prev_ops) * 1e9 /
                        static_cast<double>(std::max<uint64_t>(1, ns - prev_ns)));
    prev_ops = ops;
    prev_ns = ns;
  }
  phase.store(kStop, std::memory_order_relaxed);
  for (std::thread& th : threads) {
    th.join();
  }
  run.total_ops = total_ops();
  return run;
}

}  // namespace perfbench
