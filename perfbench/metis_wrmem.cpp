// metis-wrmem: the paper's Metis wrmem job (§7.2) through metis::RunMetis, 4 workers,
// grow_chunk_pages = 4, a fixed total input. Arena boundary-move mprotects are the
// only traffic that takes the §5.2 speculative path, but compute dominates: this is
// the control workload, where lock and VM changes should leave the numbers alone and
// extra per-operation cost shows.
//
// One op is one whole job on a fresh address space. ops_per_s is words processed per
// second of job wall time (median over the backend's jobs); p50_us / p99_us are the
// median and the slowest job wall time, as a job count this small has no finer tail.
#include <memory>

#include "common.h"
#include "src/epoch/epoch_domain.h"
#include "src/harness/wait_stats.h"
#include "src/metis/metis_job.h"
#include "src/sync/admission.h"

namespace perfbench {
namespace {

using srl::vm::AddressSpace;

constexpr int kWorkers = 4;
constexpr uint64_t kTotalBytes = 768 * 1024;  // input per round, split across workers
constexpr int kRounds = 192;  // about 1.2 s a job on a 4-core host
// Backends take turns one job at a time; six rounds of four ~1.2 s jobs fill a 30 s run.
constexpr int kJobRounds = 6;

struct JobDigest {
  std::string who;
  uint64_t job;  // job index within the session: jobs with one index share one input
  uint64_t checksum;
  uint64_t distinct_words;
  uint64_t total_words;
};

std::vector<JobDigest> g_digests;  // every ok job of the run, for the cross-backend check

void Prepare(const Options&) { g_digests.clear(); }

// Job j of every backend generates its input from the same seed, derived from the
// run's --seed. The text generator's vocabulary follows its seed, and words/s moves
// with the vocabulary by tens of percent, so each run spreads its jobs over several
// inputs instead of resting on one.
uint64_t JobSeed(uint64_t seed, uint64_t job) {
  return seed * 0x9E3779B97F4A7C15ull + job + 1;
}

srl::metis::MetisConfig Config(const Options& opts) {
  srl::metis::MetisConfig cfg;
  cfg.app = srl::metis::MetisApp::kWrmem;
  cfg.threads = kWorkers;
  cfg.chunk_bytes = (opts.tiny ? 64 * 1024 : kTotalBytes) / kWorkers;
  cfg.rounds = opts.tiny ? 2 : kRounds;
  cfg.grow_chunk_pages = 4;
  return cfg;
}

class MetisSession final : public Session {
 public:
  MetisSession(Backend b, const Options& opts, bool traced)
      : b_(b), cfg_(Config(opts)), seed_(opts.seed), tiny_(opts.tiny), traced_(traced),
        traces_(1) {
    traces_[0].recording = true;
    trace_path_ = SpanPath(opts, "metis-wrmem", b);
  }

  // Jobs run back to back while the next one is expected to end within the slice
  // (always at least one).
  void Slice(double seconds) override {
    const uint64_t start = NowNs();
    const auto budget_ns = static_cast<uint64_t>(seconds * 1e9);
    uint64_t last_ns = 0;
    while (last_ns == 0 || NowNs() - start + last_ns <= budget_ns) {
      const uint64_t t0 = NowNs();
      RunJob();
      last_ns = NowNs() - t0;
    }
  }

  BackendResult Finish(std::vector<std::string>* errors) override {
    errors->insert(errors->end(), errors_.begin(), errors_.end());
    BackendResult res;
    res.attempted = attempted_;
    res.failed = failed_;
    res.setup_s = Median(setups_);
    res.ops_per_s = Median(rates_);
    res.p50_us = Median(job_s_) * 1e6;
    res.p99_us = job_s_.empty() ? 0.0 : *std::max_element(job_s_.begin(), job_s_.end()) * 1e6;
    if (traced_) {
      const uint64_t acquisitions = waits_.ReadCount() + waits_.WriteCount();
      res.layer["sync.parks_per_kacq"] =
          acquisitions == 0 ? 0.0
                            : static_cast<double>(parks_) * 1000.0 /
                                  static_cast<double>(acquisitions);
      res.layer["vm.fault_spec_frac"] = Median(spec_frac_);
      res.layer["vm.fault_spec_retry_per_kfault"] = Median(retry_per_kfault_);
      res.layer["vm.scoped_frac"] = Median(scoped_frac_);
      res.layer["vm.lock_wait_read_ns_mean"] = waits_.MeanReadNs();
      res.layer["vm.lock_wait_write_ns_mean"] = waits_.MeanWriteNs();
      res.layer["vm.mprotect_spec_frac"] = Median(mprotect_frac_);
      res.layer["epoch.drain_ms"] = Median(drain_ms_);
      res.layer["epoch.pending_sweep_pages"] = Median(pending_);
      res.layer["epoch.forced_quiesces"] = static_cast<double>(forced_);
      if (!WriteSpans(trace_path_, traces_)) {
        errors->push_back(std::string("metis-wrmem/") + BackendName(b_) +
                          ": cannot write the span file");
      }
    }
    return res;
  }

 private:
  void RunJob() {
    const std::string who = std::string("metis-wrmem/") + BackendName(b_);
    std::unique_ptr<AddressSpace> as;
    setups_.push_back(MedianSetup(
        tiny_ ? 1 : 3, [&] { as = std::make_unique<AddressSpace>(ScopedVariant(b_)); },
        [&] { as.reset(); }));
    if (traced_) {
      as->Lock().SetWaitStats(&waits_);
    }
    const uint64_t parks_before = srl::AdmissionGate::TotalParks();
    const uint64_t forced_before = srl::EpochDomain::Global().ForcedQuiesces();
    const uint64_t t0 = NowNs();
    if (traced_) {
      traces_[0].BeginOp(jobs_ * kSpanEvery);  // every job gets its span
    }
    srl::metis::MetisConfig cfg = cfg_;
    cfg.seed = JobSeed(seed_, jobs_);
    const srl::metis::MetisResult r = srl::metis::RunMetis(*as, cfg);
    const uint64_t t1 = NowNs();
    ++jobs_;
    if (traced_) {
      traces_[0].EndOp("metis.RunMetis", t0, t1);
    }
    parks_ += srl::AdmissionGate::TotalParks() - parks_before;
    forced_ += srl::EpochDomain::Global().ForcedQuiesces() - forced_before;
    as->Lock().SetWaitStats(nullptr);

    ++attempted_;
    if (!r.ok || r.seconds <= 0) {
      ++failed_;
      errors_.push_back(who + ": RunMetis reported a failed VM operation");
      return;
    }
    g_digests.push_back(JobDigest{who, jobs_ - 1, r.checksum, r.distinct_words, r.total_words});
    job_s_.push_back(r.seconds);
    rates_.push_back(static_cast<double>(r.total_words) / r.seconds);

    const srl::vm::VmStats& st = as->Stats();
    spec_frac_.push_back(st.FaultSpecRate());
    retry_per_kfault_.push_back(
        st.Faults() == 0 ? 0.0
                         : static_cast<double>(st.fault_spec_retry.load()) * 1000.0 /
                               static_cast<double>(st.Faults()));
    scoped_frac_.push_back(st.ScopedStructuralRate());
    mprotect_frac_.push_back(st.SpeculationSuccessRate());

    // Closing checks: the workers' arenas are unmapped when the job returns, so after
    // the drain no page may remain present anywhere.
    pending_.push_back(static_cast<double>(as->PendingSweepPages()));
    const uint64_t d0 = NowNs();
    as->DrainSweeps();
    drain_ms_.push_back(static_cast<double>(NowNs() - d0) * 1e-6);
    attempted_ += 2;
    if (as->PresentPages() != 0) {
      ++failed_;
      errors_.push_back(who + ": " + std::to_string(as->PresentPages()) +
                        " pages still present after the arenas were unmapped and drained");
    }
    if (!as->CheckInvariants()) {
      ++failed_;
      errors_.push_back(who + ": AddressSpace::CheckInvariants failed after the job");
    }
  }

  Backend b_;
  srl::metis::MetisConfig cfg_;
  uint64_t seed_;
  bool tiny_;
  bool traced_;
  std::vector<ThreadTrace> traces_;
  std::string trace_path_;
  srl::WaitStats waits_;
  uint64_t jobs_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t parks_ = 0;
  uint64_t forced_ = 0;
  std::vector<std::string> errors_;
  std::vector<double> setups_, job_s_, rates_;
  std::vector<double> spec_frac_, retry_per_kfault_, scoped_frac_, mprotect_frac_;
  std::vector<double> pending_, drain_ms_;
};

std::unique_ptr<Session> Open(Backend b, const Options& opts, bool traced) {
  return std::make_unique<MetisSession>(b, opts, traced);
}

// Same seed, same input: every backend's job j must agree on the result.
void Finish(std::vector<std::string>* errors) {
  for (const JobDigest& d : g_digests) {
    const JobDigest& ref = *std::find_if(g_digests.begin(), g_digests.end(),
                                         [&](const JobDigest& e) { return e.job == d.job; });
    if (d.checksum != ref.checksum || d.distinct_words != ref.distinct_words ||
        d.total_words != ref.total_words) {
      errors->push_back("metis-wrmem: " + d.who + " computed checksum " +
                        std::to_string(d.checksum) + " / " +
                        std::to_string(d.distinct_words) + " distinct words, but " +
                        ref.who + " computed " + std::to_string(ref.checksum) + " / " +
                        std::to_string(ref.distinct_words));
    }
  }
}

}  // namespace

Workload MetisWrmemWorkload() {
  return Workload{"metis-wrmem", kJobRounds, Prepare, Open, Finish};
}

}  // namespace perfbench
