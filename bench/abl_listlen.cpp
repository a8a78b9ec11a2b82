// Ablation — list-length sensitivity (§3): the list lock's linear search "should not
// present an issue, as ... the number of stored elements (ranges) in the list is
// relatively small since it is proportional to the number of threads". This bench
// quantifies that assumption's breaking point: with K disjoint ranges pre-held, a probe
// acquisition positioned after all of them pays the full search cost — linear for the
// list locks, logarithmic for the tree and the skiplist-indexed lock.
//
// Single-threaded by design: the y-axis is the uncontended acquire/release path cost as
// a function of live-range count, not scalability. list-lf runs the VM backend's
// geometry (64 buckets, 64 KiB windows); with the 16-unit range stride here, thousands
// of held ranges share a handful of windows, so its search degenerates to linear too —
// the geometry-vs-precision trade the skiplist index removes.
//
// The held ranges are acquired in one of three orders (--orders): ascending (each
// one lands at the tail), descending (each one lands at the head) or a fixed random
// shuffle. The lists end up the same whatever the order; an index need not, and the
// skiplist's is built from what its acquisitions' searches saw, so the probe's cost
// can depend on the order.
//
// Flags: --held=0,16,64,256,1024,4096  --orders=asc,desc,random  --secs=0.25
//        --repeats=1  --csv  --json=BENCH_listlen.json
#include <algorithm>
#include <iostream>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "src/baselines/tree_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/skiplist_range_lock.h"
#include "src/harness/cli.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"

namespace srl {
namespace {

// Held ranges sit at [i*kStride, i*kStride + kStride/2); the probe starts past the
// last of them, which is the worst case for a sorted-by-start linear search.
constexpr uint64_t kStride = 16;

struct ListEx {
  static const char* Name() { return "list-ex"; }
  ListRangeLock lock;
  auto Acquire(const Range& r) { return lock.Lock(r); }
  template <typename H>
  void Release(H h) {
    lock.Unlock(h);
  }
};

struct ListLf {
  static const char* Name() { return "list-lf"; }
  ListLockFreeRangeLock lock{
      ListLockFreeRangeLock::Options{.buckets = 64, .window_shift = 16}};
  auto Acquire(const Range& r) { return lock.Lock(r); }
  template <typename H>
  void Release(H h) {
    lock.Unlock(h);
  }
};

struct LustreEx {
  static const char* Name() { return "lustre-ex"; }
  TreeRangeLock lock;
  auto Acquire(const Range& r) { return lock.AcquireWrite(r); }
  template <typename H>
  void Release(H h) {
    lock.Release(h);
  }
};

struct SkiplistIndexed {
  static const char* Name() { return "skiplist-indexed"; }
  SkiplistRangeLock lock;
  auto Acquire(const Range& r) { return lock.Lock(r); }
  template <typename H>
  void Release(H h) {
    lock.Unlock(h);
  }
};

// Fills `out` with the slot indices in the order the held ranges are acquired. False
// for an unknown order name.
bool AcquireOrder(const std::string& order, int held, std::vector<int>* out) {
  out->resize(static_cast<std::size_t>(held));
  std::iota(out->begin(), out->end(), 0);
  if (order == "desc") {
    std::reverse(out->begin(), out->end());
  } else if (order == "random") {
    std::mt19937_64 rng(0x11571e2);  // fixed: every lock sees the same shuffle
    std::shuffle(out->begin(), out->end(), rng);
  } else if (order != "asc") {
    return false;
  }
  return true;
}

template <typename LockT>
Summary RunOne(const std::vector<int>& order, double secs, int repeats) {
  const int held = static_cast<int>(order.size());
  return MeasureThroughputRepeated(
      1, secs, repeats, [&](int, std::atomic<bool>& stop) {
        LockT adapter;
        using Handle = decltype(adapter.Acquire(Range{0, 1}));
        std::vector<Handle> handles;
        handles.reserve(order.size());
        for (int slot : order) {
          const uint64_t base = static_cast<uint64_t>(slot) * kStride;
          handles.push_back(adapter.Acquire({base, base + kStride / 2}));
        }
        // Probe in the gap after the last held range: greater than every held start
        // (full linear scan for the list locks) yet inside the same window span, so
        // list-lf cannot sidestep the search via an empty neighbouring bucket.
        const uint64_t probe_start =
            held == 0 ? kStride / 2
                      : static_cast<uint64_t>(held) * kStride - kStride / 2;
        const Range probe{probe_start, probe_start + kStride / 2};
        uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          auto h = adapter.Acquire(probe);
          adapter.Release(h);
          ++ops;
        }
        for (auto h : handles) {
          adapter.Release(h);
        }
        return ops;
      });
}

bool RunPanel(const std::vector<int>& held_counts, const std::vector<std::string>& orders,
              double secs, int repeats, bool csv, BenchJson* json) {
  std::cout << "\n=== List-length ablation — probe acquire/release after K held "
               "ranges, ops/sec ===\n";
  Table table({"lock", "order", "held", "ops/sec", "rel-stddev%"});
  for (const std::string& order_name : orders) {
    for (int held : held_counts) {
      std::vector<int> order;
      if (!AcquireOrder(order_name, held, &order)) {
        std::cerr << "abl_listlen: unknown order '" << order_name
                  << "' (want asc, desc or random)\n";
        return false;
      }
      auto add = [&](const char* name, const Summary& s) {
        table.AddRow({name, order_name, std::to_string(held), Table::Num(s.mean, 0),
                      Table::Num(s.RelStddevPct(), 1)});
      };
      add(ListEx::Name(), RunOne<ListEx>(order, secs, repeats));
      add(ListLf::Name(), RunOne<ListLf>(order, secs, repeats));
      add(LustreEx::Name(), RunOne<LustreEx>(order, secs, repeats));
      add(SkiplistIndexed::Name(), RunOne<SkiplistIndexed>(order, secs, repeats));
    }
  }
  table.Print(std::cout, csv);
  json->AddTable({{"stride", std::to_string(kStride)}}, table);
  return true;
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "abl_listlen --held=0,16,64,256,1024,4096 --orders=asc,desc,random "
                 "--secs=0.25 --repeats=1 --csv --json=BENCH_listlen.json\n";
    return 0;
  }
  const std::vector<int> held = cli.GetIntList("--held", {0, 16, 64, 256, 1024, 4096});
  const std::vector<std::string> orders =
      cli.GetStringList("--orders", {"asc", "desc", "random"});
  const double secs = cli.GetDouble("--secs", 0.25);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  const bool csv = cli.GetBool("--csv");

  srl::BenchJson json("abl_listlen");
  if (!srl::RunPanel(held, orders, secs, repeats, csv, &json)) {
    return 2;
  }
  return json.Write(cli.JsonPath()) ? 0 : 1;
}
