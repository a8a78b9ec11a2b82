// vm-churn: page faults on a shared mapping beside per-thread mmap/munmap churn, on a
// scoped address space with 4 stripes and deferred sweeps (the default).
//
// Each client replays one seeded stream of two op kinds:
//   * a fault on a shared 2 MiB mapping in stripe 0 (populated during set-up), 70%
//     reads and 30% writes;
//   * about once per 8 faults, a churn cycle in the client's home stripe (client t uses
//     stripe t, pinned with MmapInStripe so placement does not depend on which CPU a
//     thread first ran on): Mmap(16 KiB) -> write fault -> Munmap.
// The VM layer does most of the work; the range lock only takes short scoped writes.
#include <memory>
#include <unordered_set>

#include "common.h"
#include "src/epoch/epoch_domain.h"
#include "src/harness/prng.h"
#include "src/harness/wait_stats.h"

namespace perfbench {
namespace {

using srl::vm::AddressSpace;

constexpr unsigned kStripes = 4;
constexpr uint64_t kPage = AddressSpace::kPageSize;
constexpr uint64_t kSharedBytes = 2ull << 20;
constexpr uint64_t kScratchBytes = 16 * 1024;
constexpr uint64_t kChurnOneIn = 9;         // one cycle per 8 faults
constexpr double kWriteFaultShare = 0.3;
constexpr std::size_t kScratchTracked = 1024;  // distinct scratch bases checked per client
constexpr uint32_t kRw = srl::vm::kProtRead | srl::vm::kProtWrite;

enum class VmKind : uint8_t { kReadFault, kWriteFault, kChurn };

struct VmOp {
  VmKind kind;
  uint32_t offset;  // byte offset into the shared mapping or the scratch mapping
};

std::vector<std::vector<VmOp>> g_streams;  // one per client, replayed cyclically

void Prepare(const Options& opts) {
  const std::size_t stream_len = opts.tiny ? (1u << 10) : (1u << 16);
  g_streams.assign(kClients, {});
  for (int t = 0; t < kClients; ++t) {
    srl::Xoshiro256 rng(opts.seed * 0xD1B54A32D192ED03ull + 0x766d + t);
    for (std::size_t i = 0; i < stream_len; ++i) {
      VmOp op{};
      if (rng.NextBelow(kChurnOneIn) == 0) {
        op.kind = VmKind::kChurn;
        op.offset = static_cast<uint32_t>(rng.NextBelow(kScratchBytes));
      } else {
        op.kind = rng.NextChance(kWriteFaultShare) ? VmKind::kWriteFault
                                                   : VmKind::kReadFault;
        op.offset = static_cast<uint32_t>(rng.NextBelow(kSharedBytes));
      }
      g_streams[t].push_back(op);
    }
  }
}

template <bool kTraced>
class VmClient {
 public:
  VmClient(AddressSpace& as, uint64_t shared, unsigned stripe, ThreadTrace* trace)
      : as_(as), shared_(shared), stripe_(stripe), trace_(trace) {}

  // Runs one op; returns false when a VM call failed.
  bool Execute(const VmOp& op) {
    if (op.kind != VmKind::kChurn) {
      return Fault(shared_ + op.offset, op.kind == VmKind::kWriteFault);
    }
    uint64_t t0 = Now();
    const uint64_t base = as_.MmapInStripe(stripe_, kScratchBytes, kRw);
    Timed(kMmap, "as.Mmap", t0);
    if (base == 0) {
      return false;
    }
    if (scratch_.size() < kScratchTracked) {
      scratch_.insert(base);
    }
    bool ok = Fault(base + op.offset, /*is_write=*/true);
    t0 = Now();
    ok &= as_.Munmap(base, kScratchBytes);
    Timed(kMunmap, "as.Munmap", t0);
    return ok;
  }

  const std::unordered_set<uint64_t>& Scratch() const { return scratch_; }

 private:
  bool Fault(uint64_t addr, bool is_write) {
    const uint64_t t0 = Now();
    const bool ok = as_.PageFault(addr, is_write);
    Timed(kFault, "as.PageFault", t0);
    return ok;
  }

  static uint64_t Now() {
    if constexpr (kTraced) {
      return NowNs();
    } else {
      return 0;
    }
  }

  void Timed(Hist h, const char* name, uint64_t t0) {
    if constexpr (kTraced) {
      trace_->Call(h, name, t0, NowNs());
    }
  }

  AddressSpace& as_;
  uint64_t shared_;
  unsigned stripe_;
  ThreadTrace* trace_;
  std::unordered_set<uint64_t> scratch_;
};

template <bool kTraced>
class VmSession final : public Session {
 public:
  VmSession(Backend b, const Options& opts) : b_(b), loop_(g_streams, opts.tiny) {
    setup_s_ = MedianSetup(
        opts.tiny ? 1 : 15,
        [&] {
          as_ = std::make_unique<AddressSpace>(ScopedVariant(b), kStripes);
          shared_ = as_->MmapInStripe(0, kSharedBytes, kRw);
          for (uint64_t off = 0; shared_ != 0 && off < kSharedBytes; off += kPage) {
            populated_ &= as_->PageFault(shared_ + off, /*is_write=*/true);
          }
        },
        [&] { as_.reset(); });
    if (kTraced) {
      as_->Lock().SetWaitStats(&waits_);
    }
    for (int t = 0; t < kClients; ++t) {
      clients_.push_back(std::make_unique<VmClient<kTraced>>(
          *as_, shared_, static_cast<unsigned>(t) % kStripes, loop_.Trace(t)));
    }
    trace_path_ = SpanPath(opts, "vm-churn", b);
  }

  ~VmSession() override { as_->Lock().SetWaitStats(nullptr); }

  void Slice(double seconds) override {
    if (shared_ == 0 || !populated_) {
      return;
    }
    uint64_t forced_before = 0;
    loop_.Slice(
        seconds, [&](int tid, const VmOp& op) { return clients_[tid]->Execute(op); },
        [](const VmOp& op) { return op.kind == VmKind::kChurn ? "vm.churn" : "vm.fault"; },
        [&] {
          if (first_slice_) {
            waits_.Reset();  // lock waits cover the measured windows from here on
            first_slice_ = false;
          }
          forced_before = srl::EpochDomain::Global().ForcedQuiesces();
        });
    forced_ += srl::EpochDomain::Global().ForcedQuiesces() - forced_before;
  }

  BackendResult Finish(std::vector<std::string>* errors) override {
    const std::string who = std::string("vm-churn/") + BackendName(b_);
    BackendResult res;
    res.setup_s = setup_s_;
    ++res.attempted;
    if (shared_ == 0 || !populated_) {
      ++res.failed;
      errors->push_back(who + ": the shared mapping could not be created and populated");
      return res;
    }
    loop_.Report(&res);
    if (res.failed != 0) {
      errors->push_back(who + ": " + std::to_string(res.failed) + " ops saw a VM call fail");
    }

    // Closing checks: after the drain no page survives outside the shared mapping
    // (every scratch range is unmapped by now), and the address space is sound.
    const uint64_t pending = as_->PendingSweepPages();
    const uint64_t drain_t0 = NowNs();
    as_->DrainSweeps();
    const double drain_ms = static_cast<double>(NowNs() - drain_t0) * 1e-6;
    uint64_t stale = as_->PresentPages() - as_->PresentPagesInRange(shared_, kSharedBytes);
    for (const auto& client : clients_) {
      for (uint64_t base : client->Scratch()) {
        stale += as_->PresentPagesInRange(base, kScratchBytes);
      }
    }
    res.attempted += 2;
    if (stale != 0) {
      ++res.failed;
      errors->push_back(who + ": " + std::to_string(stale) +
                        " pages still present in unmapped scratch ranges after DrainSweeps");
    }
    if (!as_->CheckInvariants()) {
      ++res.failed;
      errors->push_back(who + ": AddressSpace::CheckInvariants failed after the run");
    }

    if constexpr (kTraced) {
      const auto hist = MergeHists(loop_.Traces());
      const srl::vm::VmStats& st = as_->Stats();
      const uint64_t faults = st.Faults();
      const uint64_t acquisitions = waits_.ReadCount() + waits_.WriteCount();
      res.layer["sync.parks_per_kacq"] =
          acquisitions == 0 ? 0.0
                            : static_cast<double>(loop_.Parks()) * 1000.0 /
                                  static_cast<double>(acquisitions);
      res.layer["vm.fault_ns_p50"] = hist[kFault].Quantile(0.50);
      res.layer["vm.fault_ns_p99"] = hist[kFault].Quantile(0.99);
      res.layer["vm.mmap_ns_p50"] = hist[kMmap].Quantile(0.50);
      res.layer["vm.munmap_ns_p50"] = hist[kMunmap].Quantile(0.50);
      res.layer["vm.munmap_ns_p99"] = hist[kMunmap].Quantile(0.99);
      res.layer["vm.fault_spec_frac"] = st.FaultSpecRate();
      res.layer["vm.fault_spec_retry_per_kfault"] =
          faults == 0 ? 0.0
                      : static_cast<double>(st.fault_spec_retry.load()) * 1000.0 /
                            static_cast<double>(faults);
      res.layer["vm.scoped_frac"] = st.ScopedStructuralRate();
      res.layer["vm.lock_wait_read_ns_mean"] = waits_.MeanReadNs();
      res.layer["vm.lock_wait_write_ns_mean"] = waits_.MeanWriteNs();
      res.layer["vm.mprotect_spec_frac"] = st.SpeculationSuccessRate();
      res.layer["epoch.drain_ms"] = drain_ms;
      res.layer["epoch.pending_sweep_pages"] = static_cast<double>(pending);
      res.layer["epoch.forced_quiesces"] = static_cast<double>(forced_);
      if (!WriteSpans(trace_path_, loop_.Traces())) {
        errors->push_back(who + ": cannot write the span file");
      }
    }
    return res;
  }

 private:
  Backend b_;
  double setup_s_ = 0;
  std::unique_ptr<AddressSpace> as_;
  uint64_t shared_ = 0;
  bool populated_ = true;
  srl::WaitStats waits_;
  ClosedLoop<kTraced, VmOp> loop_;
  std::vector<std::unique_ptr<VmClient<kTraced>>> clients_;
  bool first_slice_ = true;
  uint64_t forced_ = 0;
  std::string trace_path_;
};

std::unique_ptr<Session> Open(Backend b, const Options& opts, bool traced) {
  if (traced) {
    return std::make_unique<VmSession<true>>(b, opts);
  }
  return std::make_unique<VmSession<false>>(b, opts);
}

}  // namespace

Workload VmChurnWorkload() {
  return Workload{"vm-churn", kClientRounds, Prepare, Open, [](std::vector<std::string>*) {}};
}

}  // namespace perfbench
