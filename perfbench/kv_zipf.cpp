// kv-zipf: the macro_file_store traffic, replayed from pre-generated op streams.
//
// 2^20 checksummed 64 B records (a 64 MiB store, larger than the LLC, while the lock
// state stays small), Zipf(0.99) keys scattered over the file. Per client op:
//   60% point read, 20% point write, 10% 3-record transaction (first record blocking,
//   the rest try-locks, release-all-and-retry on a failed try), 10% 128-record scan,
//   and once in every 50k ops a Range::Full scan of every 64th record.
// The range lock sits on every op's blocking path and no VM code runs.
#include <cstring>
#include <memory>

#include "common.h"
#include "src/baselines/tree_range_lock.h"
#include "src/core/list_lockfree_range_lock.h"
#include "src/core/list_range_lock.h"
#include "src/core/skiplist_range_lock.h"
#include "src/harness/prng.h"

namespace perfbench {
namespace {

using srl::Range;
using srl::Xoshiro256;

constexpr uint64_t kRecordSize = 64;
constexpr uint64_t kScanRecords = 128;
constexpr uint64_t kTxnRecords = 3;
constexpr uint64_t kFullScanOneIn = 50000;
constexpr uint64_t kFullScanStride = 64;
constexpr double kZipfTheta = 0.99;

struct Record {
  uint64_t sequence;
  uint64_t payload[6];
  uint64_t checksum;  // sum of sequence and payload words
};
static_assert(sizeof(Record) == kRecordSize);

class FileStore {
 public:
  FileStore(uint64_t records, uint64_t seed) : bytes_(records * kRecordSize) {
    Xoshiro256 rng(seed);
    for (uint64_t i = 0; i < records; ++i) {
      WriteAt(i * kRecordSize, 0, rng);
    }
  }

  void WriteAt(uint64_t offset, uint64_t sequence, Xoshiro256& rng) {
    Record rec{};
    rec.sequence = sequence;
    rec.checksum = sequence;
    for (uint64_t& w : rec.payload) {
      w = rng.Next();
      rec.checksum += w;
    }
    std::memcpy(bytes_.data() + offset, &rec, sizeof rec);
  }

  bool ValidateAt(uint64_t offset) const {
    Record rec;
    std::memcpy(&rec, bytes_.data() + offset, sizeof rec);
    uint64_t sum = rec.sequence;
    for (uint64_t w : rec.payload) {
      sum += w;
    }
    return sum == rec.checksum;
  }

  // The injected fault of the smoke test: one payload byte changes behind the
  // checksum's back.
  void Corrupt(uint64_t offset) { bytes_[offset + 8] ^= 0x5a; }

 private:
  std::vector<uint8_t> bytes_;
};

// Zipf rank -> record: multiplying by an odd constant permutes the power-of-two record
// space, scattering the hot head of the distribution across the file.
uint64_t ScatterRank(uint64_t rank, uint64_t records) {
  return (rank * 0x9E3779B97F4A7C15ull) & (records - 1);
}

enum class KvKind : uint8_t { kRead, kWrite, kTxn, kScan, kFullScan };

struct KvOp {
  KvKind kind;
  uint32_t rec[kTxnRecords];  // txn: distinct and ascending; others use rec[0]
};

const char* OpName(KvKind k) {
  switch (k) {
    case KvKind::kRead:
      return "kv.read";
    case KvKind::kWrite:
      return "kv.write";
    case KvKind::kTxn:
      return "kv.txn";
    case KvKind::kScan:
      return "kv.scan";
    case KvKind::kFullScan:
      return "kv.full_scan";
  }
  return "kv.?";
}

// Inputs shared by the four backends of one run, generated before any timing.
struct KvInputs {
  uint64_t records = 0;
  uint64_t seed = 0;
  bool corrupt = false;
  uint64_t never_written = 0;  // a record no op stream writes (the corruption target)
  std::vector<std::vector<KvOp>> streams;  // one per client, replayed cyclically
};
KvInputs g_inputs;

void Prepare(const Options& opts) {
  KvInputs& in = g_inputs;
  in.records = opts.tiny ? (1u << 14) : (1u << 20);
  in.seed = opts.seed;
  in.corrupt = opts.corrupt_record;
  const std::size_t stream_len = opts.tiny ? (1u << 12) : (1u << 18);

  // Inverse-CDF Zipf table; sampling is a binary search, done here and never in the
  // timed loop.
  std::vector<double> cdf(in.records);
  double sum = 0;
  for (uint64_t i = 0; i < in.records; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta);
    cdf[i] = sum;
  }
  auto sample = [&](Xoshiro256& rng) -> uint32_t {
    const double u = rng.NextDouble() * sum;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const uint64_t rank = std::min<uint64_t>(it - cdf.begin(), in.records - 1);
    return static_cast<uint32_t>(ScatterRank(rank, in.records));
  };

  in.streams.assign(kClients, {});
  for (int t = 0; t < kClients; ++t) {
    Xoshiro256 rng(opts.seed * 0x9E3779B97F4A7C15ull + 0x6b765f7a + t);
    std::vector<KvOp>& ops = in.streams[t];
    ops.resize(stream_len);
    for (KvOp& op : ops) {
      op = KvOp{};
      if (rng.NextBelow(kFullScanOneIn) == 0) {
        op.kind = KvKind::kFullScan;
        continue;
      }
      const double roll = rng.NextDouble();
      op.rec[0] = sample(rng);
      if (roll < 0.6) {
        op.kind = KvKind::kRead;
      } else if (roll < 0.8) {
        op.kind = KvKind::kWrite;
      } else if (roll < 0.9) {
        op.kind = KvKind::kTxn;
        for (uint64_t k = 1; k < kTxnRecords; ++k) {
          do {
            op.rec[k] = sample(rng);
          } while (std::find(op.rec, op.rec + k, op.rec[k]) != op.rec + k);
        }
        std::sort(op.rec, op.rec + kTxnRecords);
      } else {
        op.kind = KvKind::kScan;
        op.rec[0] = static_cast<uint32_t>(
            std::min<uint64_t>(op.rec[0], in.records - kScanRecords));
      }
    }
  }

  // A record that stays untouched by writers, so an injected corruption survives
  // until the closing full-store check instead of being healed by a rewrite.
  std::vector<bool> written(in.records, false);
  for (const auto& ops : in.streams) {
    for (const KvOp& op : ops) {
      if (op.kind == KvKind::kWrite) {
        written[op.rec[0]] = true;
      } else if (op.kind == KvKind::kTxn) {
        for (uint32_t r : op.rec) {
          written[r] = true;
        }
      }
    }
  }
  in.never_written = static_cast<uint64_t>(
      std::find(written.begin(), written.end(), false) - written.begin());
}

// --- Backends: one exclusive byte-range lock each -------------------------------

struct TreeAdapter {
  using Handle = srl::TreeRangeLock::Handle;
  srl::TreeRangeLock lock;
  Handle Acquire(const Range& r) { return lock.AcquireWrite(r); }
  bool TryAcquire(const Range& r, Handle* out) { return lock.TryAcquireWrite(r, out); }
  void Release(Handle h) { lock.Release(h); }
};

struct ListAdapter {
  using Handle = srl::ListRangeLock::Handle;
  srl::ListRangeLock lock;
  Handle Acquire(const Range& r) { return lock.Lock(r); }
  bool TryAcquire(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  void Release(Handle h) { lock.Unlock(h); }
};

struct ListLfAdapter {
  using Handle = srl::ListLockFreeRangeLock::Handle;
  // The VM backend's geometry: 64 buckets x 64 KiB windows (1024 records a window).
  srl::ListLockFreeRangeLock lock{
      srl::ListLockFreeRangeLock::Options{.buckets = 64, .window_shift = 16}};
  Handle Acquire(const Range& r) { return lock.Lock(r); }
  bool TryAcquire(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  void Release(Handle h) { lock.Unlock(h); }
};

struct SkiplistAdapter {
  using Handle = srl::SkiplistRangeLock::Handle;
  srl::SkiplistRangeLock lock;
  Handle Acquire(const Range& r) { return lock.Lock(r); }
  bool TryAcquire(const Range& r, Handle* out) { return lock.TryLock(r, out); }
  void Release(Handle h) { lock.Unlock(h); }
};

// One client's replay of its op stream. With kTraced every lock call is timed into
// the thread's ThreadTrace; without it the only probe is the 1-in-kSampleEvery clock
// pair around the whole op.
template <typename Adapter, bool kTraced>
class KvClient {
 public:
  using Handle = typename Adapter::Handle;

  KvClient(Adapter& lock, FileStore& store, uint64_t records, uint64_t seed,
           ThreadTrace* trace)
      : lock_(lock), store_(store), records_(records), rng_(seed), trace_(trace) {}

  // Runs one op; returns false when a record failed its checksum.
  bool Execute(const KvOp& op) {
    bool ok = true;
    switch (op.kind) {
      case KvKind::kRead: {
        const uint64_t off = op.rec[0] * kRecordSize;
        const Handle h = Acquire({off, off + kRecordSize});
        ok = store_.ValidateAt(off);
        HoldEnds();
        Release(h);
        break;
      }
      case KvKind::kWrite: {
        const uint64_t off = op.rec[0] * kRecordSize;
        const Handle h = Acquire({off, off + kRecordSize});
        store_.WriteAt(off, ++seq_, rng_);
        HoldEnds();
        Release(h);
        break;
      }
      case KvKind::kTxn:
        ok = Transaction(op);
        break;
      case KvKind::kScan: {
        const uint64_t lo = op.rec[0] * kRecordSize;
        const uint64_t hi = lo + kScanRecords * kRecordSize;
        const Handle h = Acquire({lo, hi});
        for (uint64_t o = lo; o < hi; o += kRecordSize) {
          ok &= store_.ValidateAt(o);
        }
        HoldEnds();
        Release(h);
        break;
      }
      case KvKind::kFullScan: {
        // One Range::Full acquisition excludes every writer.
        const Handle h = Acquire(Range::Full());
        for (uint64_t i = 0; i < records_; i += kFullScanStride) {
          ok &= store_.ValidateAt(i * kRecordSize);
        }
        HoldEnds();
        Release(h);
        break;
      }
    }
    return ok;
  }

 private:
  // The first record blocks, the rest are try-locks, and a failed try drops everything
  // and retries: ordered blocking acquisition could deadlock behind a queued
  // Range::Full node sitting between two records.
  bool Transaction(const KvOp& op) {
    Handle handles[kTxnRecords];
    for (;;) {
      const uint64_t first = op.rec[0] * kRecordSize;
      handles[0] = Acquire({first, first + kRecordSize});
      std::size_t held = 1;
      for (; held < kTxnRecords; ++held) {
        const uint64_t off = op.rec[held] * kRecordSize;
        if (!TryAcquire({off, off + kRecordSize}, &handles[held])) {
          break;
        }
      }
      if (held == kTxnRecords) {
        break;
      }
      for (std::size_t i = 0; i < held; ++i) {
        Release(handles[i]);
      }
      std::this_thread::yield();
    }
    bool ok = true;
    for (uint64_t k = 0; k < kTxnRecords; ++k) {
      const uint64_t off = op.rec[k] * kRecordSize;
      ok &= store_.ValidateAt(off);
      store_.WriteAt(off, ++seq_, rng_);
    }
    HoldEnds();
    for (const Handle h : handles) {
      Release(h);
    }
    return ok;
  }

  Handle Acquire(const Range& r) {
    if constexpr (!kTraced) {
      return lock_.Acquire(r);
    } else {
      const uint64_t t0 = NowNs();
      const Handle h = lock_.Acquire(r);
      held_since_ = NowNs();
      trace_->Call(kAcquire, "lock.acquire", t0, held_since_);
      trace_->CountAcquire();
      return h;
    }
  }

  bool TryAcquire(const Range& r, Handle* out) {
    if constexpr (!kTraced) {
      return lock_.TryAcquire(r, out);
    } else {
      const uint64_t t0 = NowNs();
      const bool ok = lock_.TryAcquire(r, out);
      const uint64_t t1 = NowNs();
      trace_->Child("lock.try_acquire", t0, t1);
      trace_->CountTry(ok);
      if (ok) {
        held_since_ = t1;
      }
      return ok;
    }
  }

  // End of the critical section: acquisition return -> first release call.
  void HoldEnds() {
    if constexpr (kTraced) {
      trace_->Call(kHold, "hold", held_since_, NowNs());
    }
  }

  void Release(Handle h) {
    if constexpr (!kTraced) {
      lock_.Release(h);
    } else {
      const uint64_t t0 = NowNs();
      lock_.Release(h);
      trace_->Call(kRelease, "lock.release", t0, NowNs());
    }
  }

  Adapter& lock_;
  FileStore& store_;
  uint64_t records_;
  Xoshiro256 rng_;
  ThreadTrace* trace_;
  uint64_t seq_ = 0;
  uint64_t held_since_ = 0;
};

template <typename Adapter, bool kTraced>
class KvSession final : public Session {
 public:
  KvSession(Backend b, const Options& opts) : b_(b), loop_(g_inputs.streams, opts.tiny) {
    const KvInputs& in = g_inputs;
    setup_s_ = MedianSetup(
        opts.tiny ? 1 : 5,
        [&] {
          store_ = std::make_unique<FileStore>(in.records, in.seed);
          lock_ = std::make_unique<Adapter>();
        },
        [&] {
          store_.reset();
          lock_.reset();
        });
    if (in.corrupt) {
      store_->Corrupt(in.never_written * kRecordSize);
    }
    for (int t = 0; t < kClients; ++t) {
      clients_.push_back(std::make_unique<KvClient<Adapter, kTraced>>(
          *lock_, *store_, in.records,
          in.seed * 0x2545F4914F6CDD1Dull + static_cast<uint64_t>(t),
          loop_.Trace(t)));
    }
    trace_path_ = SpanPath(opts, "kv-zipf", b);
  }

  void Slice(double seconds) override {
    loop_.Slice(
        seconds, [&](int tid, const KvOp& op) { return clients_[tid]->Execute(op); },
        [](const KvOp& op) { return OpName(op.kind); }, [] {});
  }

  BackendResult Finish(std::vector<std::string>* errors) override {
    const std::string who = std::string("kv-zipf/") + BackendName(b_);
    BackendResult res;
    res.setup_s = setup_s_;
    loop_.Report(&res);
    if (res.failed != 0) {
      errors->push_back(who + ": " + std::to_string(res.failed) +
                        " ops read a record whose checksum did not match");
    }
    // Closing check: every record of the store still carries a valid checksum.
    uint64_t bad = 0;
    for (uint64_t i = 0; i < g_inputs.records; ++i) {
      bad += store_->ValidateAt(i * kRecordSize) ? 0 : 1;
    }
    ++res.attempted;
    if (bad != 0) {
      ++res.failed;
      errors->push_back(who + ": " + std::to_string(bad) +
                        " records fail their checksum after the run");
    }
    if constexpr (kTraced) {
      const auto& traces = loop_.Traces();
      const auto hist = MergeHists(traces);
      uint64_t acquisitions = 0;
      uint64_t tries = 0;
      uint64_t try_fails = 0;
      for (const ThreadTrace& t : traces) {
        acquisitions += t.blocking_acquires + (t.try_attempts - t.try_failures);
        tries += t.try_attempts;
        try_fails += t.try_failures;
      }
      res.layer["lock.acquire_ns_p50"] = hist[kAcquire].Quantile(0.50);
      res.layer["lock.acquire_ns_p99"] = hist[kAcquire].Quantile(0.99);
      res.layer["lock.release_ns_p50"] = hist[kRelease].Quantile(0.50);
      res.layer["lock.hold_ns_p50"] = hist[kHold].Quantile(0.50);
      res.layer["lock.try_fail_frac"] =
          tries == 0 ? 0.0 : static_cast<double>(try_fails) / static_cast<double>(tries);
      res.layer["sync.parks_per_kacq"] =
          acquisitions == 0 ? 0.0
                            : static_cast<double>(loop_.Parks()) * 1000.0 /
                                  static_cast<double>(acquisitions);
      if (!WriteSpans(trace_path_, traces)) {
        errors->push_back(who + ": cannot write the span file");
      }
    }
    return res;
  }

 private:
  Backend b_;
  double setup_s_ = 0;
  std::unique_ptr<FileStore> store_;
  std::unique_ptr<Adapter> lock_;
  ClosedLoop<kTraced, KvOp> loop_;
  std::vector<std::unique_ptr<KvClient<Adapter, kTraced>>> clients_;
  std::string trace_path_;
};

template <typename Adapter>
std::unique_ptr<Session> OpenAs(Backend b, const Options& opts, bool traced) {
  if (traced) {
    return std::make_unique<KvSession<Adapter, true>>(b, opts);
  }
  return std::make_unique<KvSession<Adapter, false>>(b, opts);
}

std::unique_ptr<Session> Open(Backend b, const Options& opts, bool traced) {
  switch (b) {
    case Backend::kTree:
      return OpenAs<TreeAdapter>(b, opts, traced);
    case Backend::kList:
      return OpenAs<ListAdapter>(b, opts, traced);
    case Backend::kListLf:
      return OpenAs<ListLfAdapter>(b, opts, traced);
    case Backend::kSkiplist:
      return OpenAs<SkiplistAdapter>(b, opts, traced);
  }
  return nullptr;
}

}  // namespace

Workload KvZipfWorkload() {
  return Workload{"kv-zipf", kClientRounds, Prepare, Open, [](std::vector<std::string>*) {}};
}

}  // namespace perfbench
