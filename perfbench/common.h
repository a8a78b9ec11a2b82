// Shared machinery of the srl benchmark: options, backends, the measurement loop,
// latency samples, log-bucketed histograms, the bounded span buffer of the traced run,
// and the per-backend result every workload fills in.
//
// Two probes exist, and both live only in this directory (nothing in src/ is timed):
//   * the untraced run times one operation in every kSampleEvery with a clock pair
//     around the whole operation — the p50_us / p99_us samples. The probe is the same
//     code on both sides of any comparison.
//   * the traced run additionally times every call into a layer's public functions
//     (lock acquire / release, AddressSpace calls), folds each duration into a
//     LogHistogram, and keeps full spans for one operation in every kSpanEvery.
#ifndef SRL_PERFBENCH_COMMON_H_
#define SRL_PERFBENCH_COMMON_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/sync/admission.h"
#include "src/sync/cacheline.h"
#include "src/vm/address_space.h"

namespace perfbench {

inline constexpr int kClients = 4;           // closed-loop client threads
inline constexpr uint64_t kSampleEvery = 8;  // untraced latency probe: 1 op in 8
inline constexpr uint64_t kSpanEvery = 1024;  // traced run: full spans for 1 op in 1024
inline constexpr std::size_t kSpanCapacity = 8192;  // spans kept per thread per run

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;           // smoke-test sizes
  bool corrupt_record = false; // injected fault: kv-zipf flips one stored byte
  std::string trace_dir;       // where the traced run writes its spans ("" = nowhere)
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// --- Backends -------------------------------------------------------------------

enum class Backend { kTree, kList, kListLf, kSkiplist };
inline constexpr Backend kBackends[] = {Backend::kTree, Backend::kList, Backend::kListLf,
                                        Backend::kSkiplist};

inline const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kTree:
      return "tree";
    case Backend::kList:
      return "list";
    case Backend::kListLf:
      return "list-lf";
    case Backend::kSkiplist:
      return "skiplist";
  }
  return "?";
}

// Module that implements the backend's range lock: the tree lock is the lustre-style
// baseline, the other three are the paper's core locks.
inline const char* LockLayer(Backend b) {
  return b == Backend::kTree ? "baselines" : "core";
}

// Span file of the traced run for one workload and backend ("" = no file).
inline std::string SpanPath(const Options& opts, const char* workload, Backend b) {
  return opts.trace_dir.empty() ? ""
                                : opts.trace_dir + "/spans-" + workload + "-" +
                                      BackendName(b) + ".jsonl";
}

inline srl::vm::VmVariant ScopedVariant(Backend b) {
  switch (b) {
    case Backend::kTree:
      return srl::vm::VmVariant::kTreeScoped;
    case Backend::kList:
      return srl::vm::VmVariant::kListScoped;
    case Backend::kListLf:
      return srl::vm::VmVariant::kListLfScoped;
    case Backend::kSkiplist:
      return srl::vm::VmVariant::kSkiplistScoped;
  }
  return srl::vm::VmVariant::kListScoped;
}

// --- Statistics -----------------------------------------------------------------

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Quantile of raw samples, smoothed: the mean of the order statistics whose rank lies
// within n/1000 of q*n (at least one). Keeps sub-nanosecond resolution, so a quantile
// does not snap to the same integer nanosecond on every run. Sorts `v`.
inline double SmoothedQuantile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t centre = std::min(n - 1, static_cast<std::size_t>(q * n));
  const std::size_t half = n / 1000;
  const std::size_t lo = centre > half ? centre - half : 0;
  const std::size_t hi = std::min(n - 1, centre + half);
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(hi - lo + 1);
}

// Log-bucketed histogram (HdrHistogram-style: 16 linear sub-buckets per power of two,
// about 6% resolution) for the traced run's per-call durations, in nanoseconds.
class LogHistogram {
 public:
  void Add(uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
  }

  void Merge(const LogHistogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += o.counts_[i];
    }
    count_ += o.count_;
  }

  // Linear interpolation by rank inside the bucket holding the q-quantile.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double target = q * static_cast<double>(count_);
    uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      if (static_cast<double>(seen + counts_[i]) >= target) {
        const double lo = static_cast<double>(Lower(i));
        const double width = static_cast<double>(Lower(i + 1)) - lo;
        const double frac = (target - static_cast<double>(seen)) / counts_[i];
        return lo + width * std::clamp(frac, 0.0, 1.0);
      }
      seen += counts_[i];
    }
    return static_cast<double>(Lower(counts_.size() - 1));
  }

 private:
  static constexpr int kSubBits = 4;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

  // Values below kSub map to themselves; above, (exponent, top kSubBits mantissa bits).
  static std::size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<std::size_t>(v);
    }
    const int exp = std::bit_width(v) - 1;  // >= kSubBits
    const uint64_t mant = (v >> (exp - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>((exp - kSubBits + 1) * kSub + mant);
  }
  static uint64_t Lower(std::size_t i) {
    if (i < kSub) {
      return i;
    }
    const int exp = static_cast<int>(i / kSub) + kSubBits - 1;
    const uint64_t mant = i % kSub;
    return (kSub + mant) << (exp - kSubBits);
  }

  std::array<uint64_t, (64 - kSubBits + 1) * kSub> counts_{};
  uint64_t count_ = 0;
};

// --- Spans ----------------------------------------------------------------------

// One timed interval. The op span has index 0 and parent -1; each child carries the
// op id of its operation and parent 0.
struct Span {
  uint64_t op;
  int16_t index;
  int16_t parent;
  const char* name;  // string literal
  uint64_t start_ns;
  uint64_t end_ns;
};

// Layer calls the traced run times, each folded into its own histogram.
enum Hist : int {
  kAcquire,  // blocking range-lock acquisition
  kRelease,  // range-lock release
  kHold,     // acquisition return -> release call
  kFault,    // AddressSpace::PageFault
  kMmap,     // AddressSpace::Mmap*
  kMunmap,   // AddressSpace::Munmap
  kHistCount
};

// Per-thread trace state of the traced run: layer histograms, layer counters, and a
// bounded span buffer. Children of a sampled op are buffered until EndOp, which stores
// them with the op span when the buffer has room and drops the whole op otherwise.
struct ThreadTrace {
  std::array<LogHistogram, kHistCount> hist;
  uint64_t blocking_acquires = 0;
  uint64_t try_attempts = 0;
  uint64_t try_failures = 0;

  std::vector<Span> spans;
  uint64_t dropped_ops = 0;

  // False during warm-ups: ops then run with the same probes but leave no numbers.
  bool recording = false;

  // Op in flight.
  uint64_t op_id = 0;
  bool sampled = false;
  int16_t next_child = 1;
  std::vector<Span> pending;

  ThreadTrace() {
    spans.reserve(kSpanCapacity);
    pending.reserve(16);
  }

  void BeginOp(uint64_t id) {
    op_id = id;
    sampled = recording && id % kSpanEvery == 0;
    next_child = 1;
    pending.clear();
  }

  // Child span of the op in flight, kept when the op is sampled.
  void Child(const char* name, uint64_t t0, uint64_t t1) {
    if (sampled) {
      pending.push_back(Span{op_id, next_child++, 0, name, t0, t1});
    }
  }

  // Lock acquisitions by kind, for try_fail_frac and parks_per_kacq.
  void CountAcquire() {
    blocking_acquires += recording ? 1 : 0;
  }
  void CountTry(bool ok) {
    try_attempts += recording ? 1 : 0;
    try_failures += recording && !ok ? 1 : 0;
  }

  // Times one layer call into its histogram, and keeps it as a child span when the op
  // is sampled.
  void Call(Hist h, const char* name, uint64_t t0, uint64_t t1) {
    if (recording) {
      hist[h].Add(t1 - t0);
    }
    Child(name, t0, t1);
  }

  void EndOp(const char* name, uint64_t t0, uint64_t t1) {
    if (!sampled) {
      return;
    }
    if (spans.size() + pending.size() + 1 > kSpanCapacity) {
      ++dropped_ops;
      return;
    }
    spans.push_back(Span{op_id, 0, -1, name, t0, t1});
    spans.insert(spans.end(), pending.begin(), pending.end());
  }
};

// Merges the histograms of every thread.
inline std::array<LogHistogram, kHistCount> MergeHists(
    const std::vector<ThreadTrace>& traces) {
  std::array<LogHistogram, kHistCount> out;
  for (const ThreadTrace& t : traces) {
    for (int h = 0; h < kHistCount; ++h) {
      out[h].Merge(t.hist[h]);
    }
  }
  return out;
}

// Writes every span as one JSON line, followed by a summary line with each span
// name's count, total and self time (duration minus the child spans it covers).
// Does nothing when `path` is empty. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<ThreadTrace>& traces);

// --- Results ----------------------------------------------------------------------

// What one backend produced on one workload. `layer` maps the per-layer metric key
// (e.g. "lock.acquire_ns_p50") to its value; unset keys report 0 (layer not exercised).
struct BackendResult {
  double setup_s = 0;
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> layer;
};

// --- Measurement loop -------------------------------------------------------------

// Per-thread counters the measuring thread reads at window edges.
struct alignas(srl::kCacheLineSize) ClientSlot {
  std::atomic<uint64_t> ops{0};
};

// Run phase, published by the measuring thread: warm-up, then measured window w as
// w + 1, then stop.
inline constexpr int kWarmup = 0;
inline constexpr int kStop = -1;

struct SliceRun {
  std::vector<double> rates;  // aggregate completion rate of each window, ops/s
  uint64_t total_ops = 0;     // every op the clients completed, warm-up included
};

// Runs `client(tid, phase, slot)` on kClients threads, client t pinned to the t-th CPU
// the process may use: a warm-up, then `windows` equal windows over `measure_s`
// seconds, then stop. Clients bump slot.ops after each completed op. `at_measure`
// runs on the calling thread right before the first window.
SliceRun RunClients(
    double warmup_s, double measure_s, int windows,
    const std::function<void(int, const std::atomic<int>&, ClientSlot&)>& client,
    const std::function<void()>& at_measure);

// One client's closed loop: replays `ops` cyclically from `*pos` until the stop phase,
// running each through `execute(op) -> bool ok`, and returns the number of failed
// ops. Untraced, one op in kSampleEvery of the measured windows is timed into
// `(*samples)[window]` (at most `cap` per window). Traced, every op of the measured
// windows opens an op span named `op_name(op)` in `trace`.
template <bool kTraced, typename Op, typename Execute, typename OpName>
uint64_t Replay(int tid, const std::atomic<int>& phase, ClientSlot& slot,
                const std::vector<Op>& ops, uint64_t* pos, Execute&& execute,
                OpName&& op_name, std::vector<std::vector<uint32_t>>* samples,
                std::size_t cap, ThreadTrace* trace) {
  uint64_t failed = 0;
  for (uint64_t& i = *pos;; ++i) {
    const int ph = phase.load(std::memory_order_relaxed);
    if (ph == kStop) {
      break;
    }
    const Op& op = ops[i % ops.size()];
    std::vector<uint32_t>* window = nullptr;
    if (!kTraced && ph != kWarmup && i % kSampleEvery == 0 &&
        (*samples)[ph - 1].size() < cap) {
      window = &(*samples)[ph - 1];
    }
    uint64_t t0 = 0;
    if (kTraced || window != nullptr) {
      t0 = NowNs();
    }
    if constexpr (kTraced) {
      trace->recording = ph != kWarmup;
      trace->BeginOp((static_cast<uint64_t>(tid) << 40) | i);
    }
    if (!execute(op)) {
      ++failed;
    }
    if (kTraced || window != nullptr) {
      const uint64_t t1 = NowNs();
      if (window != nullptr) {
        window->push_back(static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
      }
      if constexpr (kTraced) {
        trace->EndOp(op_name(op), t0, t1);
      }
    }
    slot.ops.store(slot.ops.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  return failed;
}

// Slices per backend on the closed-loop client workloads, and measured windows per
// slice: kv-zipf and vm-churn keep kClientRounds * kWindows windows per backend.
inline constexpr int kClientRounds = 15;
inline constexpr int kWindows = 1;

// The closed-loop measurement of one backend on a client workload, accumulated over
// slices. Each slice runs kClients clients for a while (the first slice starts with a
// warm-up) and keeps, per window, the aggregate rate and the p50 / p99 of the sampled
// op latencies. The reported numbers are medians over all windows, so a burst of
// outside load that spoils a few windows does not move them. Admission-gate parks are
// counted over the measured windows only.
template <bool kTraced, typename Op>
class ClosedLoop {
 public:

  ClosedLoop(const std::vector<std::vector<Op>>& streams, bool tiny)
      : streams_(streams),
        cap_(tiny ? (1u << 10) : (1u << 18)),
        pos_(kClients, 0),
        failed_(kClients, 0),
        traces_(kTraced ? kClients : 0),
        samples_(kClients, std::vector<std::vector<uint32_t>>(kWindows)) {}

  // `execute(tid, op) -> bool ok` runs one op of client tid.
  template <typename Execute, typename OpName>
  void Slice(double seconds, Execute&& execute, OpName&& op_name,
             const std::function<void()>& at_measure) {
    const double warmup = first_ ? std::min(0.25, 0.5 * seconds) : 0.0;
    first_ = false;
    uint64_t parks_before = 0;
    // Sample buffers are reused across slices, so their pages are touched once, in
    // the first slice, and never again inside a measured window.
    auto& samples = samples_;
    for (auto& client : samples) {
      for (auto& w : client) {
        w.clear();
        w.reserve(kTraced ? 0 : cap_);
      }
    }
    const SliceRun run = RunClients(
        warmup, seconds - warmup, kWindows,
        [&](int tid, const std::atomic<int>& phase, ClientSlot& slot) {
          failed_[tid] += Replay<kTraced>(
              tid, phase, slot, streams_[tid], &pos_[tid],
              [&](const Op& op) { return execute(tid, op); }, op_name, &samples[tid], cap_,
              kTraced ? &traces_[tid] : nullptr);
        },
        [&] {
          at_measure();
          parks_before = srl::AdmissionGate::TotalParks();
        });
    parks_ += srl::AdmissionGate::TotalParks() - parks_before;
    rates_.insert(rates_.end(), run.rates.begin(), run.rates.end());
    total_ops_ += run.total_ops;
    for (int w = 0; !kTraced && w < kWindows; ++w) {
      std::vector<uint32_t> all;
      for (auto& client : samples) {
        all.insert(all.end(), client[w].begin(), client[w].end());
      }
      if (!all.empty()) {
        p50_us_.push_back(SmoothedQuantile(all, 0.50) / 1000.0);
        p99_us_.push_back(SmoothedQuantile(all, 0.99) / 1000.0);
      }
    }
  }

  // Fills the end-to-end fields of `res` and adds the op counts.
  void Report(BackendResult* res) const {
    res->ops_per_s = Median(rates_);
    res->p50_us = Median(p50_us_);
    res->p99_us = Median(p99_us_);
    res->attempted += total_ops_;
    for (uint64_t f : failed_) {
      res->failed += f;
    }
  }

  uint64_t Parks() const { return parks_; }
  const std::vector<ThreadTrace>& Traces() const { return traces_; }
  // Client tid's trace state, for clients that time their own layer calls.
  ThreadTrace* Trace(int tid) { return kTraced ? &traces_[tid] : nullptr; }

 private:
  const std::vector<std::vector<Op>>& streams_;
  const std::size_t cap_;
  bool first_ = true;
  std::vector<uint64_t> pos_;
  std::vector<uint64_t> failed_;
  std::vector<ThreadTrace> traces_;
  std::vector<std::vector<std::vector<uint32_t>>> samples_;  // [client][window]
  std::vector<double> rates_;
  std::vector<double> p50_us_;
  std::vector<double> p99_us_;
  uint64_t total_ops_ = 0;
  uint64_t parks_ = 0;
};

// --- Workloads --------------------------------------------------------------------

// One backend's live state on one workload: built (and its set-up timed) when opened,
// run in slices that the driver interleaves across backends, closed by Finish.
class Session {
 public:
  virtual ~Session() = default;
  virtual void Slice(double seconds) = 0;
  // Closing correctness checks and the backend's numbers; called once, last.
  virtual BackendResult Finish(std::vector<std::string>* errors) = 0;
};

// `prepare` generates the inputs the four backends share (op streams), outside every
// timed region and outside setup_s; `finish` runs the cross-backend checks.
struct Workload {
  const char* name;
  int rounds;  // slices per backend; the driver interleaves backends slice by slice
  std::function<void(const Options&)> prepare;
  std::function<std::unique_ptr<Session>(Backend, const Options&, bool traced)> open;
  std::function<void(std::vector<std::string>*)> finish;
};

Workload KvZipfWorkload();
Workload VmChurnWorkload();
Workload MetisWrmemWorkload();

// Set-up time as the median of `reps` timed calls of `build`; `teardown` runs untimed
// between them, so the state of the last build is what the workload then runs on.
template <typename Build, typename Teardown>
double MedianSetup(int reps, Build&& build, Teardown&& teardown) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) {
      teardown();
    }
    const uint64_t t0 = NowNs();
    build();
    times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return Median(times);
}

}  // namespace perfbench

#endif  // SRL_PERFBENCH_COMMON_H_
