// Ablation — range-scoped structural operations (this repo's extension past §5.2):
// disjoint-arena mmap/munmap churn with concurrent fault readers, across address-space
// stripe configurations.
//
// The paper refines page faults and metadata-only mprotects down to their argument
// range but leaves every structural operation holding a full-range write acquisition,
// so one mmap/munmap-heavy thread still collapses all concurrency. The scoped variants
// (kTreeScoped/kListScoped) write-lock only the affected range; striping then removes
// the remaining shared state (one tree lock, one structural seqcount, one mmap
// cursor). This bench isolates what each layer buys:
//
//   * `--stripes=1,4` sweeps stripe counts; at 1 the index is the PR 3/4 design.
//   * mode `disjoint` pins the fault readers' shared mapping to the LAST stripe and
//     spreads churners over the others, so per-stripe counters directly show the
//     isolation claim: churn in stripe A causes ~0 speculative-fault retries in
//     stripe B (under a global seqcount every munmap invalidated every fault).
//   * mode `same-stripe` is the adversarial control: every churner AND the readers'
//     mapping share stripe 0 — cross-thread same-stripe churn, the worst case the
//     home-stripe policy is meant to avoid. Only meaningful for stripes > 1.
//   * `--threads` counts churners and `--readers` fault threads; every pair of the two
//     lists is a row. `--threads=0` gives fault-only rows: the fault path's own scaling
//     with no structural op in flight.
//
// Reported per (variant, threads, readers, stripes, mode): churn cycles/sec, fault
// throughput (each with its rel-stddev over the repeats), the scoped-structural rate
// (VmStats), cross-stripe fallbacks, and the ranged vs full write-acquisition split
// (VmLock counters). A second table reports per-stripe speculative-fault and structural
// counters for every multi-stripe run.
//
// Flags: --variants=stock,tree-full,tree-scoped,list-full,list-refined,list-scoped,
//        list-lf-full,list-lf-scoped
//        --threads=0,1,2,4,8  --readers=1,2,4  --stripes=1,4
//        --modes=disjoint,same-stripe  --secs=0.25  --repeats=1  --pages=512
//        --scratch-pages=4  --csv  --json=BENCH_scoped_structural.json
#include <atomic>
#include <iostream>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/prng.h"
#include "src/harness/table.h"
#include "src/harness/throughput_runner.h"
#include "src/sync/topology.h"
#include "src/vm/address_space.h"

namespace srl {
namespace {

using vm::AddressSpace;
using vm::VmVariant;

struct StripeCounters {
  uint64_t spec_ok = 0;
  uint64_t spec_retry = 0;
  uint64_t scoped_ops = 0;
  uint64_t fallback = 0;
  uint64_t overflow = 0;
};

struct RunResult {
  Summary churn_per_sec;
  Summary faults_per_sec;
  double scoped_rate = 0.0;       // fraction of structural ops that stayed scoped
  double fault_spec_rate = 0.0;   // fraction of faults resolved lock-free
  uint64_t cross_fallback = 0;    // scoped ops degraded because the range spans stripes
  uint64_t ranged_writes = 0;     // write acquisitions on a proper sub-range
  uint64_t full_writes = 0;       // write acquisitions on Range::Full()
  unsigned reader_stripe = 0;
  std::vector<StripeCounters> per_stripe;
};

RunResult RunOne(VmVariant variant, int churners, int readers, double secs, int repeats,
                 uint64_t pages, uint64_t scratch_pages, unsigned stripes,
                 bool same_stripe) {
  AddressSpace as(variant, stripes);
  const unsigned n = as.Stripes();
  // Disjoint mode: readers own the last stripe, churners round-robin over the rest.
  // Same-stripe mode: everyone hammers stripe 0.
  const unsigned reader_stripe = (same_stripe || n == 1) ? 0 : n - 1;
  const unsigned churn_lanes = (same_stripe || n == 1) ? 1 : n - 1;
  const uint64_t base = as.MmapInStripe(reader_stripe, pages * AddressSpace::kPageSize,
                                        vm::kProtRead | vm::kProtWrite);
  std::atomic<uint64_t> fault_ops{0};
  // Worker tids [0, churners) churn; the rest fault. Only churn cycles count as ops,
  // so MeasureThroughput returns churn throughput; fault throughput per repeat is
  // derived from the atomic.
  std::vector<double> churn_samples;
  std::vector<double> fault_samples;
  for (int rep = 0; rep < repeats; ++rep) {
    const uint64_t faults_before = fault_ops.load(std::memory_order_relaxed);
    churn_samples.push_back(MeasureThroughput(
        churners + readers, secs, [&](int tid, std::atomic<bool>& stop) {
          uint64_t ops = 0;
          if (tid < churners) {
            const unsigned my_stripe = static_cast<unsigned>(tid) % churn_lanes;
            while (!stop.load(std::memory_order_relaxed)) {
              const uint64_t scratch = as.MmapInStripe(
                  my_stripe, scratch_pages * AddressSpace::kPageSize,
                  vm::kProtRead | vm::kProtWrite);
              as.PageFault(scratch, true);
              as.Munmap(scratch, scratch_pages * AddressSpace::kPageSize);
              ++ops;
            }
            return ops;
          }
          Xoshiro256 rng(0x5c0bed + static_cast<uint64_t>(tid));
          uint64_t faults = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            as.PageFault(base + rng.NextBelow(pages) * AddressSpace::kPageSize,
                         rng.NextChance(0.3));
            ++faults;
          }
          fault_ops.fetch_add(faults, std::memory_order_relaxed);
          return uint64_t{0};
        }));
    fault_samples.push_back(
        static_cast<double>(fault_ops.load(std::memory_order_relaxed) - faults_before) /
        secs);
  }
  RunResult r;
  r.churn_per_sec = Summarize(churn_samples);
  r.faults_per_sec = Summarize(fault_samples);
  r.scoped_rate = as.Stats().ScopedStructuralRate();
  r.fault_spec_rate = as.Stats().FaultSpecRate();
  r.cross_fallback = as.Stats().cross_stripe_fallback.load(std::memory_order_relaxed);
  r.ranged_writes = as.Lock().RangedWriteAcquisitions();
  r.full_writes = as.Lock().FullWriteAcquisitions();
  r.reader_stripe = reader_stripe;
  for (unsigned i = 0; i < n; ++i) {
    const vm::VmStripeStats& ss = as.Stats().stripe(i);
    r.per_stripe.push_back({ss.fault_spec_ok.load(), ss.fault_spec_retry.load(),
                            ss.scoped_structural.load(), ss.scoped_fallback.load(),
                            ss.mmap_overflow.load()});
  }
  return r;
}

}  // namespace
}  // namespace srl

int main(int argc, char** argv) {
  srl::Cli cli(argc, argv);
  if (cli.Has("--help")) {
    std::cout << "abl_scoped_structural --variants=stock,tree-full,tree-scoped,"
                 "list-full,list-refined,list-scoped,list-lf-full,list-lf-scoped "
                 "--threads=0,1,2,4,8 --readers=1,2,4 --stripes=1,4 "
                 "--modes=disjoint,same-stripe --secs=0.25 --repeats=1 "
                 "--pages=512 --scratch-pages=4 --csv "
                 "--json=BENCH_scoped_structural.json\n";
    return 0;
  }
  const std::vector<int> threads = cli.GetIntList("--threads", {0, 1, 2, 4, 8});
  const std::vector<int> reader_list = cli.GetIntList("--readers", {1, 2, 4});
  const std::vector<int> stripe_list = cli.GetIntList("--stripes", {1, 4});
  const std::vector<std::string> modes =
      cli.GetStringList("--modes", {"disjoint", "same-stripe"});
  const double secs = cli.GetDouble("--secs", 0.25);
  const int repeats = static_cast<int>(cli.GetInt("--repeats", 1));
  const uint64_t pages = static_cast<uint64_t>(cli.GetInt("--pages", 512));
  const uint64_t scratch_pages =
      static_cast<uint64_t>(cli.GetInt("--scratch-pages", 4));
  const bool csv = cli.GetBool("--csv");

  const std::vector<std::string> names = cli.GetStringList(
      "--variants", {"stock", "tree-full", "tree-scoped", "list-full", "list-refined",
                     "list-scoped", "list-lf-full", "list-lf-scoped"});

  std::cout << "\n=== range-scoped structural ops — disjoint-arena mmap/munmap churn "
               "with fault readers, across stripe configurations ===\n";
  srl::Table table({"variant", "threads", "readers", "stripes", "mode", "churn/sec",
                    "rel-stddev%", "faults/sec", "faults-rel-stddev%", "scoped%",
                    "spec-ok%", "cross-fb", "ranged-writes", "full-writes"});
  srl::Table stripe_table({"variant", "threads", "readers", "stripes", "mode", "stripe",
                           "role", "spec-ok", "spec-retry", "scoped-ops", "fallback",
                           "overflow"});
  for (const std::string& name : names) {
    bool ok = false;
    const srl::vm::VmVariant variant = srl::vm::VmVariantFromName(name, &ok);
    if (!ok) {
      std::cerr << "unknown variant: " << name << "\n";
      return 2;
    }
    for (int t : threads) {
      for (int readers : reader_list) {
        if (t + readers == 0) {
          continue;  // nothing to run
        }
        for (int stripes : stripe_list) {
          for (const std::string& mode : modes) {
            const bool same = mode == "same-stripe";
            if (same && stripes <= 1) {
              continue;  // identical to disjoint at one stripe
            }
            const srl::RunResult r =
                srl::RunOne(variant, t, readers, secs, repeats, pages, scratch_pages,
                            static_cast<unsigned>(stripes), same);
            table.AddRow({name, std::to_string(t), std::to_string(readers),
                          std::to_string(stripes), mode,
                          srl::Table::Num(r.churn_per_sec.mean, 0),
                          srl::Table::Num(r.churn_per_sec.RelStddevPct(), 1),
                          srl::Table::Num(r.faults_per_sec.mean, 0),
                          srl::Table::Num(r.faults_per_sec.RelStddevPct(), 1),
                          srl::Table::Num(r.scoped_rate * 100.0, 2),
                          srl::Table::Num(r.fault_spec_rate * 100.0, 2),
                          std::to_string(r.cross_fallback),
                          std::to_string(r.ranged_writes),
                          std::to_string(r.full_writes)});
            if (r.per_stripe.size() > 1) {
              for (std::size_t i = 0; i < r.per_stripe.size(); ++i) {
                const srl::StripeCounters& sc = r.per_stripe[i];
                const char* role = i == r.reader_stripe ? "fault" : "churn";
                stripe_table.AddRow(
                    {name, std::to_string(t), std::to_string(readers),
                     std::to_string(stripes), mode, std::to_string(i), role,
                     std::to_string(sc.spec_ok), std::to_string(sc.spec_retry),
                     std::to_string(sc.scoped_ops), std::to_string(sc.fallback),
                     std::to_string(sc.overflow)});
              }
            }
          }
        }
      }
    }
  }
  table.Print(std::cout, csv);
  std::cout << "\n--- per-stripe counters (multi-stripe runs; role `fault` is the "
               "readers' stripe — its spec-retry column is the isolation claim) ---\n";
  stripe_table.Print(std::cout, csv);

  srl::BenchJson json("abl_scoped_structural");
  json.AddTable({{"cpus", std::to_string(srl::Topology::Get().CpuCount())},
                 {"pages", std::to_string(pages)},
                 {"scratch_pages", std::to_string(scratch_pages)},
                 {"secs", srl::Table::Num(secs, 3)},
                 {"repeats", std::to_string(repeats)}},
                table);
  json.AddTable({{"table", "per-stripe"}, {"pages", std::to_string(pages)}},
                stripe_table);
  return json.Write(cli.JsonPath()) ? 0 : 1;
}
