// srl_perfbench — the repository's benchmark. One workload per invocation, the four
// range-lock backends one after another, each on a fresh lock or address space:
//
//   srl_perfbench --workload kv-zipf|vm-churn|metis-wrmem --seed N --seconds S
//                 --trace 0|1 [--tiny 1] [--inject-fault corrupt-record]
//                 [--trace-dir DIR] [--git-sha SHA]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (each backend
// runs an untraced and a traced half; the gap between them is trace.overhead_frac).
// The first stdout line is the host/config stamp, the last one the result object;
// the exit code is 1 when any correctness check failed. See README.md.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.h"
#include "src/epoch/epoch_domain.h"
#include "src/epoch/retire_list.h"
#include "src/sync/admission.h"
#include "src/sync/topology.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* layer;  // "lock" stands for the backend's lock module (core / baselines)
  const char* stem;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"lock", "acquire_ns_p50", "ns"},
    {"lock", "acquire_ns_p99", "ns"},
    {"lock", "release_ns_p50", "ns"},
    {"lock", "hold_ns_p50", "ns"},
    {"lock", "try_fail_frac", "fraction"},
    {"sync", "parks_per_kacq", "parks/kacq"},
    {"vm", "fault_ns_p50", "ns"},
    {"vm", "fault_ns_p99", "ns"},
    {"vm", "mmap_ns_p50", "ns"},
    {"vm", "munmap_ns_p50", "ns"},
    {"vm", "munmap_ns_p99", "ns"},
    {"vm", "fault_spec_frac", "fraction"},
    {"vm", "fault_spec_retry_per_kfault", "retries/kfault"},
    {"vm", "scoped_frac", "fraction"},
    {"vm", "lock_wait_read_ns_mean", "ns"},
    {"vm", "lock_wait_write_ns_mean", "ns"},
    {"vm", "mprotect_spec_frac", "fraction"},
    {"epoch", "drain_ms", "ms"},
    {"epoch", "pending_sweep_pages", "pages"},
    {"epoch", "forced_quiesces", "count"},
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// Host and config stamp. The admission cap, the retire-list flush threshold and the
// epoch watchdog are derived from the core count at run time, so they change the
// program itself from host to host: a cross-host diff must be read as such.
std::string Stamp(const Options& opts, const std::string& git_sha) {
  std::ostringstream s;
  s << "{\"stamp\":{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"cpu_model\":" << JsonString(CpuModel())
    << ",\"numa_nodes\":" << srl::Topology::Get().NodeCount()
    << ",\"compiler\":" << JsonString(std::string("gcc ") + __VERSION__)
    << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
    << ",\"git_sha\":" << JsonString(git_sha) << ",\"workload\":" << JsonString(opts.workload)
    << ",\"seed\":" << opts.seed << ",\"seconds\":" << JsonNumber(opts.seconds)
    << ",\"trace\":" << (opts.trace ? 1 : 0) << ",\"tiny\":" << (opts.tiny ? 1 : 0)
    << ",\"clients\":" << kClients << ",\"latency_sample_every\":" << kSampleEvery
    << ",\"span_every\":" << kSpanEvery
    << ",\"admission_cap\":" << srl::AdmissionGate().Cap()
    << ",\"retire_flush_threshold\":" << srl::RetireList::FlushThreshold()
    << ",\"force_quiesce_after_ms\":"
    << JsonNumber(static_cast<double>(srl::EpochDomain::DefaultForceQuiesceAfter().count()) *
                  1e-6)
    << "}}";
  return s.str();
}

double Elapsed(uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) * 1e-9; }

// Jiffies the hypervisor gave to other guests ("steal") and all jiffies, summed over
// CPUs; {0, 0} when /proc/stat cannot be read.
std::pair<uint64_t, uint64_t> StealAndTotalJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t v = 0;
    in >> v;
    total += v;
    steal = field == 7 ? v : steal;
  }
  return {steal, total};
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    out_ << (out_.tellp() == 0 ? "" : ",") << JsonString(name) << ":{\"value\":"
         << JsonNumber(value) << ",\"unit\":" << JsonString(unit) << "}";
  }
  std::string Json() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
};

int Usage(const char* why) {
  std::cerr << "srl_perfbench: " << why
            << "\nusage: srl_perfbench --workload kv-zipf|vm-churn|metis-wrmem --seed N "
               "--seconds S --trace 0|1 [--tiny 1] [--inject-fault corrupt-record] "
               "[--trace-dir DIR] [--git-sha SHA]\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      return Usage(("unexpected argument " + a).c_str());
    }
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return Usage(("missing value for " + a).c_str());
    }
  }
  static const char* const kKnown[] = {"workload", "seed",         "seconds",   "trace",
                                       "tiny",     "inject-fault", "trace-dir", "git-sha"};
  for (const auto& [k, v] : args) {
    if (std::find_if(std::begin(kKnown), std::end(kKnown),
                     [&](const char* n) { return k == n; }) == std::end(kKnown)) {
      return Usage(("unknown flag --" + k).c_str());
    }
  }

  Options opts;
  opts.workload = args["workload"];
  try {
    opts.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    opts.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
  } catch (const std::exception&) {
    return Usage("--seed and --seconds take numbers");
  }
  opts.trace = args["trace"] == "1";
  opts.tiny = args["tiny"] == "1";
  opts.trace_dir = args["trace-dir"];
  if (args.count("inject-fault") != 0) {
    if (args["inject-fault"] != "corrupt-record") {
      return Usage("the only injectable fault is corrupt-record");
    }
    opts.corrupt_record = true;
  }
  if (!(opts.seconds > 0 && opts.seconds <= 600)) {
    return Usage("--seconds must lie in (0, 600]");
  }

  const Workload workloads[] = {KvZipfWorkload(), VmChurnWorkload(), MetisWrmemWorkload()};
  const auto found = std::find_if(std::begin(workloads), std::end(workloads),
                                  [&](const Workload& w) { return opts.workload == w.name; });
  if (found == std::end(workloads)) {
    return Usage("unknown --workload");
  }
  const Workload& workload = *found;
  if (opts.corrupt_record && opts.workload != "kv-zipf") {
    return Usage("corrupt-record applies to kv-zipf only");
  }

  std::cout << Stamp(opts, args.count("git-sha") ? args["git-sha"] : "unknown") << "\n"
            << std::flush;

  // Op streams and other shared inputs: generated here, outside every timed region
  // and outside setup_s.
  workload.prepare(opts);

  // Backends run in interleaved slices, so each one's windows spread over the whole
  // run and drifting outside load is shared alike. The traced run instead alternates
  // each backend's untraced and traced sessions, half the rounds each, one backend at
  // a time.
  const int rounds = workload.rounds;
  const double slice = opts.seconds / std::size(kBackends) / rounds;
  const auto [steal0, total0] = StealAndTotalJiffies();
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  if (!opts.trace) {
    std::vector<std::unique_ptr<Session>> sessions;
    for (Backend b : kBackends) {
      sessions.push_back(workload.open(b, opts, false));
    }
    // A slow host stretches Metis jobs past their slices: stop opening rounds once the
    // run's time is spent, so every backend still gets the same number of rounds.
    const uint64_t start = NowNs();
    for (int r = 0; r < rounds && (r == 0 || Elapsed(start) < opts.seconds); ++r) {
      for (auto& s : sessions) {
        s->Slice(slice);
      }
    }
    double setup_s = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const std::string bn = BackendName(kBackends[i]);
      const BackendResult r = sessions[i]->Finish(&errors);
      sessions[i].reset();
      attempted += r.attempted;
      failed += r.failed;
      setup_s += r.setup_s;
      metrics.Add("ops_per_s." + bn, r.ops_per_s, "ops/s");
      metrics.Add("p50_us." + bn, r.p50_us, "us");
      metrics.Add("p99_us." + bn, r.p99_us, "us");
      std::cerr << opts.workload << " " << bn << ": " << r.ops_per_s << " ops/s, p50 "
                << r.p50_us << " us, p99 " << r.p99_us << " us, setup " << r.setup_s
                << " s\n";
    }
    metrics.Add("setup_s", setup_s, "s");
  } else {
    double overhead_sum = 0;
    for (Backend b : kBackends) {
      const std::string bn = BackendName(b);
      std::unique_ptr<Session> plain_session = workload.open(b, opts, false);
      std::unique_ptr<Session> traced_session = workload.open(b, opts, true);
      const uint64_t start = NowNs();
      const double budget = opts.seconds / std::size(kBackends);
      for (int r = 0; r < std::max(1, rounds / 2) && (r == 0 || Elapsed(start) < budget); ++r) {
        plain_session->Slice(slice);
        traced_session->Slice(slice);
      }
      const BackendResult plain = plain_session->Finish(&errors);
      const BackendResult traced = traced_session->Finish(&errors);
      attempted += plain.attempted + traced.attempted;
      failed += plain.failed + traced.failed;
      const double overhead =
          plain.ops_per_s > 0 ? 1.0 - traced.ops_per_s / plain.ops_per_s : 0.0;
      overhead_sum += overhead;
      for (const LayerMetric& m : kLayerMetrics) {
        const std::string key = std::string(m.layer) + "." + m.stem;
        const auto it = traced.layer.find(key);
        const std::string layer =
            std::string(m.layer) == "lock" ? LockLayer(b) : std::string(m.layer);
        metrics.Add(layer + "." + m.stem + "." + bn,
                    it == traced.layer.end() ? 0.0 : it->second, m.unit);
      }
      std::cerr << opts.workload << " " << bn << ": untraced " << plain.ops_per_s
                << " ops/s, traced " << traced.ops_per_s << " ops/s\n";
    }
    metrics.Add("trace.overhead_frac", overhead_sum / std::size(kBackends), "fraction");
  }

  const std::size_t errors_before_finish = errors.size();
  workload.finish(&errors);
  ++attempted;
  if (errors.size() != errors_before_finish) {
    ++failed;
  }
  if (!opts.trace) {
    metrics.Add("ok_frac",
                1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
                "fraction");
  }
  // Share of CPU time the hypervisor gave away during the run: a noisy neighbour shows
  // here, which qualifies every number of the run.
  const auto [steal1, total1] = StealAndTotalJiffies();
  if (total1 > total0) {
    std::cerr << "host steal during the run: "
              << 100.0 * static_cast<double>(steal1 - steal0) /
                     static_cast<double>(total1 - total0)
              << "%\n";
  }
  for (const std::string& e : errors) {
    std::cerr << "CORRECTNESS: " << e << "\n";
  }
  const bool correct = errors.empty() && failed == 0;
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << metrics.Json() << "}\n"
            << std::flush;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
