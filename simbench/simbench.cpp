// simbench: measures one workload of the simulator benchmark in-process.
//
//   simbench --workload pq_hqdl|lu|cg --seed N --seconds S --trace 0|1
//   simbench --workload mem_probe
//
// Runs the workload's fixed amount of work over and over (a "rep": build
// the cluster, simulate, verify, tear down) until S seconds have passed,
// and prints one JSON object with every rep's host timings, page faults
// and, for traced reps, the per-layer split of the simulate phase, plus
// the exact fingerprint (virtual time, every protocol counter, outputs)
// that all reps must share. Rep 0 is a warm-up. With --trace 1 the
// remaining reps alternate untraced and traced. simbench/run.py turns
// this into the benchmark's metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace simbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  if (argc % 2 != 1) throw std::invalid_argument("options take one value");
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else throw std::invalid_argument("unknown option " + k);
  }
  return a;
}

constexpr int kNodes = 32;
constexpr int kThreadsPerNode = 15;

/// The three workloads at their benchmark sizes, each sized for reps of
/// about 0.3-1 s on a 4-vCPU host.
std::unique_ptr<Workload> make_workload(const Args& a, std::string& params) {
  if (a.workload == "lu") {
    argoapps::LuParams p;
    p.n = 768;
    p.block = 32;
    p.seed = a.seed;
    params = "n=768 block=32 pipeline=16";
    return std::make_unique<LuWorkload>(
        paper_config(kNodes, kThreadsPerNode, 16u << 20, 16), p);
  }
  if (a.workload == "cg") {
    argoapps::CgParams p;
    p.n = 32768;
    p.iterations = 12;
    const std::size_t rot = a.seed % 17;
    params = "n=32768 iterations=12 rhs_rotation=" + std::to_string(rot) +
             " pipeline=1";
    return std::make_unique<CgWorkload>(
        paper_config(kNodes, kThreadsPerNode, 8u << 20, 1), p, rot);
  }
  if (a.workload == "pq_hqdl") {
    PqParams p;
    p.shipped.seed = a.seed;
    params = "ops_per_thread=" + std::to_string(p.ops_per_thread) +
             " prefill=" + std::to_string(p.shipped.prefill) + " pipeline=1";
    return std::make_unique<PqWorkload>(
        paper_config(kNodes, kThreadsPerNode, kNodes * (4u << 20), 1), p);
  }
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

/// A fixed integer loop: its time tells a slow host from a slow program.
std::int64_t calibration_ns() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < 2'000'000; ++i) {
    x = x * 6364136223846793005ull + i;
    asm volatile("" : "+r"(x));
  }
  return now_ns() - t0;
}

/// Nanoseconds per load of a dependent pointer chase through 32 MiB, a
/// working set that spills the last-level cache: the median of three
/// chases. Unlike the integer loop it slows down when other tenants
/// contend for the shared cache and DRAM. run.py runs it in its own
/// process (--workload mem_probe), before and after a measurement, so its
/// buffer stays out of peak_rss_mb.
double mem_probe_ns() {
  constexpr std::size_t kSlots = (32u << 20) / sizeof(std::uint32_t);
  constexpr std::size_t kLoads = 1'000'000;
  std::vector<std::uint32_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i)
    next[i] = static_cast<std::uint32_t>(i);
  argosim::Rng rng(1);
  for (std::size_t i = kSlots - 1; i > 0; --i)  // Sattolo: one cycle
    std::swap(next[i], next[rng.next_below(i)]);
  std::uint32_t at = 0;
  std::array<double, 3> ns{};
  for (double& v : ns) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kLoads; ++i) at = next[at];
    v = static_cast<double>(now_ns() - t0) / static_cast<double>(kLoads);
  }
  asm volatile("" : : "r"(at));
  std::sort(ns.begin(), ns.end());
  return ns[1];
}

struct Usage {
  long minflt = 0;
  std::int64_t stime_ns = 0;
  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.minflt = ru.ru_minflt;
    u.stime_ns = static_cast<std::int64_t>(ru.ru_stime.tv_sec) * 1'000'000'000 +
                 static_cast<std::int64_t>(ru.ru_stime.tv_usec) * 1000;
    return u;
  }
};

/// Host-pool diagnostics that depend on what earlier reps in the process
/// left in the engine's process-wide pools, not on the simulation.
bool host_pool_counter(const std::string& name) {
  return name == "sim.stacks_reused" || name == "sim.effect_pool_hits" ||
         name == "sim.effect_pool_misses" || name == "sim.record_pool_hits" ||
         name == "sim.record_pool_misses";
}

struct Rep {
  bool traced = false;
  std::int64_t construct_ns = 0, init_ns = 0, reset_ns = 0, setup_ns = 0;
  std::int64_t sim_ns = 0, verify_ns = 0, teardown_ns = 0;
  std::int64_t calib_before_ns = 0, calib_after_ns = 0;
  std::int64_t sim_stime_ns = 0;
  long faults[4] = {};  // setup, sim, verify, teardown
  std::array<std::int64_t, kLayers> layer_ns{};
  bool ok = true;
  std::string error;
  std::map<std::string, std::uint64_t> fingerprint;
  std::string engine;
};

Rep run_rep(Workload& w, bool traced, Probe& probe) {
  Rep r;
  r.traced = traced;
  const Usage u0 = Usage::now();
  const std::int64_t t0 = now_ns();
  auto cl = std::make_unique<Cluster>(w.config());
  const std::int64_t t1 = now_ns();
  const SetupTimes st = w.init(*cl);
  const std::int64_t t2 = now_ns();
  r.construct_ns = t1 - t0;
  r.init_ns = st.init_ns;
  r.reset_ns = st.reset_ns;
  r.setup_ns = t2 - t0;
  const Usage u1 = Usage::now();

  r.calib_before_ns = calibration_ns();
  const Usage u2 = Usage::now();
  const std::int64_t s0 = now_ns();
  if (traced) probe.start(cl->nthreads(), s0);
  const Time virtual_ns = w.simulate(*cl, probe);
  const std::int64_t s1 = now_ns();
  if (traced) {
    probe.stop(s1);
    r.layer_ns = probe.self_ns();
  }
  const Usage u3 = Usage::now();
  r.sim_ns = s1 - s0;
  r.sim_stime_ns = u3.stime_ns - u2.stime_ns;
  r.calib_after_ns = calibration_ns();

  const Usage u4 = Usage::now();
  const std::int64_t v0 = now_ns();
  Check c = w.check(*cl);
  r.ok = c.ok;
  r.error = c.error;
  r.fingerprint = std::move(c.outputs);
  r.fingerprint["virtual_ns"] = static_cast<std::uint64_t>(virtual_ns);
  const argo::ClusterStats stats = cl->stats();
  for (const auto& s : stats.counters)
    if (!host_pool_counter(s.name)) r.fingerprint[s.name] = s.value;
  for (const auto& h : stats.hists) {
    r.fingerprint[h.name + ".samples"] = h.hist.samples;
    r.fingerprint[h.name + ".total_ns"] = h.hist.total_ns;
  }
  for (const auto& [name, v] : w.counts()) r.fingerprint[name] = v;
  r.engine = cl->engine().sharded()
                 ? "sharded x" + std::to_string(cl->engine().worker_count())
                 : "legacy";
  const std::int64_t v1 = now_ns();
  r.verify_ns = v1 - v0;

  const Usage u5 = Usage::now();
  w.release();
  cl.reset();
  r.teardown_ns = now_ns() - v1;
  const Usage u6 = Usage::now();
  r.faults[0] = u1.minflt - u0.minflt;
  r.faults[1] = u3.minflt - u2.minflt;
  r.faults[2] = u5.minflt - u4.minflt;
  r.faults[3] = u6.minflt - u5.minflt;
  return r;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

void print_json(const Args& a, const std::string& params,
                const std::vector<Rep>& reps) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, ",
              quoted(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
  std::printf("\"nodes\": %d, \"tpn\": %d, \"params\": %s, ", kNodes,
              kThreadsPerNode, quoted(params).c_str());
  std::printf("\"engine\": %s, \"context_backend\": %s, \"host_cpus\": %ld, ",
              quoted(reps.front().engine).c_str(),
              quoted(argosim::Engine::context_backend()).c_str(),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("\"peak_rss_mb\": %.6f, ", static_cast<double>(ru.ru_maxrss) / 1024.0);
  std::printf("\"fingerprint\": {");
  const char* sep = "";
  for (const auto& [name, v] : reps.front().fingerprint) {
    std::printf("%s%s: %llu", sep, quoted(name).c_str(),
                static_cast<unsigned long long>(v));
    sep = ", ";
  }
  std::printf("}, \"reps\": [");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    std::printf(
        "%s{\"traced\": %d, \"ok\": %d, \"error\": %s, \"construct_ns\": %lld, "
        "\"init_ns\": %lld, \"reset_ns\": %lld, \"setup_ns\": %lld, "
        "\"sim_ns\": %lld, \"verify_ns\": %lld, \"teardown_ns\": %lld, "
        "\"calib_before_ns\": %lld, \"calib_after_ns\": %lld, "
        "\"sim_stime_ns\": %lld, \"faults\": [%ld, %ld, %ld, %ld], "
        "\"layers_ns\": {",
        i == 0 ? "" : ", ", r.traced ? 1 : 0, r.ok ? 1 : 0,
        quoted(r.error).c_str(), static_cast<long long>(r.construct_ns),
        static_cast<long long>(r.init_ns), static_cast<long long>(r.reset_ns),
        static_cast<long long>(r.setup_ns), static_cast<long long>(r.sim_ns),
        static_cast<long long>(r.verify_ns),
        static_cast<long long>(r.teardown_ns),
        static_cast<long long>(r.calib_before_ns),
        static_cast<long long>(r.calib_after_ns),
        static_cast<long long>(r.sim_stime_ns), r.faults[0], r.faults[1],
        r.faults[2], r.faults[3]);
    if (r.traced)
      for (int l = 0; l < kLayers; ++l)
        std::printf("%s%s: %lld", l == 0 ? "" : ", ",
                    quoted(kLayerNames[l]).c_str(),
                    static_cast<long long>(r.layer_ns[static_cast<std::size_t>(l)]));
    std::printf("}}");
  }
  std::printf("]}\n");
}

/// The first fingerprint entry where `r` differs from `ref`, or "".
std::string fingerprint_diff(const Rep& ref, const Rep& r) {
  for (const auto& [name, v] : ref.fingerprint) {
    auto it = r.fingerprint.find(name);
    if (it == r.fingerprint.end() || it->second != v)
      return name + ": " + std::to_string(v) + " vs " +
             (it == r.fingerprint.end() ? std::string("missing")
                                        : std::to_string(it->second));
  }
  if (r.fingerprint.size() != ref.fingerprint.size())
    return "fingerprint sizes differ";
  return "";
}

int run(const Args& a) {
  if (a.workload == "mem_probe") {
    std::printf("{\"mem_probe_ns\": %.4f}\n", mem_probe_ns());
    return 0;
  }
  std::string params;
  std::unique_ptr<Workload> w = make_workload(a, params);
  Probe probe;
  std::vector<Rep> reps;
  // Warm-up, then at least two measured reps (two of each kind if traced).
  const std::size_t min_reps = a.trace ? 5 : 3;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  for (std::size_t i = 0; i < min_reps || now_ns() < deadline; ++i) {
    const bool traced = a.trace && i > 0 && i % 2 == 0;
    Rep r = run_rep(*w, traced, probe);
    if (!reps.empty() && r.ok) {
      const std::string d = fingerprint_diff(reps.front(), r);
      if (!d.empty()) {
        r.ok = false;
        r.error = "not deterministic: " + d;
      }
    }
    if (r.traced) {
      std::int64_t sum = 0;
      for (std::int64_t v : r.layer_ns) sum += v;
      if (sum != r.sim_ns && r.ok) {
        r.ok = false;
        r.error = "layer self times do not add up to sim time";
      }
    }
    reps.push_back(std::move(r));
  }
  print_json(a, params, reps);
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  try {
    return simbench::run(simbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 2;
  }
}
