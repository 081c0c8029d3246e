// Engine microbenchmarks: the scheduler hot paths measured in isolation,
// in *wall-clock* time (everything else in bench/ reports virtual time).
// Four probes, one per axis of the host-performance work:
//
//   fiber_switch  ping-pong context switches between simulated threads —
//                 the fcontext vs ucontext cost, divided out per switch
//                 using the engine's own sim.context_switches counter
//   runq_hold     the classic calendar-queue "hold" model: a steady-state
//                 queue where every op pops the minimum and re-pushes it a
//                 random horizon ahead; swept across horizon spreads to
//                 cover dense (same-day) and sparse (day-scan) regimes
//   posted_rtt    post_read + wait round trips through the interconnect's
//                 posted send queue — the pooled-record / SmallFn path
//   poll_step     local-spin polls (Engine::poll) of N fibers on words
//                 nobody writes, next to one fiber ticking through delay():
//                 the cost per issue or probe step, scheduler-side under
//                 the fast paths and a literal delay loop under the slow
//
// Every row stamps the active backends ("fcontext"/"ucontext" and
// "calendar"/"heap"), so a fast run and an ARGO_SLOW_PATHS=1 run of this
// binary differ only in those stamps and the wall-clock columns — which is
// exactly the comparison scripts/check.sh and CI make.
#include <chrono>
#include <cstdint>
#include <cstdlib>

#include "argo/net.hpp"
#include "argo/sim.hpp"
#include "bench/report.hpp"

namespace {

using argosim::Engine;
using argosim::EventQueue;
using argosim::Time;
using benchutil::BenchOpts;
using benchutil::JsonReport;
using benchutil::Table;

double wall_ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Row prefix shared by the probes: the figure id, the probe name,
/// and the two backend stamps that distinguish fast from slow runs.
JsonReport::Row& mb_row(JsonReport& json, const char* probe,
                        const BenchOpts& opts, int nodes, bool calendar) {
  return benchutil::bench_row(json, "microbench", "bench", probe, opts, nodes)
      .str("context_backend", Engine::context_backend())
      .str("runq_backend", calendar ? "calendar" : "heap");
}

// --- fiber_switch -----------------------------------------------------------

/// F fibers, each yielding `iters` times via delay(1). Every delay parks
/// the caller and resumes another runnable fiber, so the engine's switch
/// counter divides the wall time into a cost per context switch.
void bench_fiber_switch(JsonReport& json, const BenchOpts& opts,
                        bool calendar) {
  const int fibers = 4;
  const int iters = opts.quick ? 5000 : 50000;
  Engine eng;
  for (int f = 0; f < fibers; ++f)
    eng.spawn(Table::fmt("ping%d", f), [iters] {
      for (int i = 0; i < iters; ++i) argosim::delay(1);
    });
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const double wall = wall_ns_since(t0);
  const std::uint64_t switches = eng.context_switches();
  const double per = switches != 0 ? wall / static_cast<double>(switches) : 0.0;
  Table t({"fibers", "yields/fiber", "switches", "wall_ms", "ns/switch"});
  t.row({Table::fmt("%d", fibers), Table::fmt("%d", iters),
         Table::fmt("%llu", static_cast<unsigned long long>(switches)),
         Table::fmt("%.2f", wall / 1e6), Table::fmt("%.1f", per)});
  t.print();
  mb_row(json, "fiber_switch", opts, 0, calendar)
      .num("fibers", fibers)
      .num("iters", iters)
      .num("switches", switches)
      .num("wall_ms", wall / 1e6)
      .num("ns_per_switch", per);
}

// --- runq_hold --------------------------------------------------------------

struct HoldEntry {
  Time when = 0;
  std::uint64_t seq = 0;
  bool operator>(const HoldEntry& o) const {
    if (when != o.when) return when > o.when;
    return seq > o.seq;
  }
};

/// Steady-state hold: `qsize` entries live, each op pops the minimum and
/// re-pushes it a random horizon ahead. Narrow spreads keep every push in
/// the current calendar day (sorted-rung insert); wide spreads scatter
/// pushes across buckets and exercise the day-scan. The heap reference
/// (ARGO_SLOW_PATHS=1) sees the same op sequence.
void bench_runq_hold(JsonReport& json, const BenchOpts& opts, bool calendar) {
  const std::size_t qsize = 4096;
  const int iters = opts.quick ? 20000 : 200000;
  const std::uint64_t spreads[] = {256, 64 * 1024, 16 * 1024 * 1024};
  Table t({"spread_ns", "qsize", "ops", "wall_ms", "ns/op", "resizes"});
  for (std::uint64_t spread : spreads) {
    EventQueue<HoldEntry> q;
    argosim::Rng rng(0x9e3779b97f4a7c15ull ^ spread);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < qsize; ++i)
      q.push({rng.next_below(spread), seq++});
    Time last = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      HoldEntry e = q.top();
      q.pop();
      if (e.when < last) std::abort();  // ordering violated: not a benchmark
      last = e.when;
      e.when += rng.next_below(spread) + 1;
      e.seq = seq++;
      q.push(std::move(e));
    }
    const double wall = wall_ns_since(t0);
    const double per = wall / static_cast<double>(iters);
    t.row({Table::fmt("%llu", static_cast<unsigned long long>(spread)),
           Table::fmt("%zu", qsize), Table::fmt("%d", iters),
           Table::fmt("%.2f", wall / 1e6), Table::fmt("%.1f", per),
           Table::fmt("%llu", static_cast<unsigned long long>(q.resizes()))});
    mb_row(json, "runq_hold", opts, 0, calendar)
        .num("spread_ns", spread)
        .num("qsize", static_cast<std::uint64_t>(qsize))
        .num("ops", iters)
        .num("wall_ms", wall / 1e6)
        .num("ns_per_op", per)
        .num("resizes", q.resizes());
  }
  t.print();
}

// --- posted_rtt -------------------------------------------------------------

/// post_read + wait round trips on a two-node interconnect. At pipeline
/// depth 1 the post *is* the blocking verb; at depth > 1 each trip runs
/// the full posted path: record acquisition (pool), effect closures
/// (SmallFn), the send-queue retire effect, and the completion wake.
void bench_posted_rtt(JsonReport& json, const BenchOpts& opts, bool calendar) {
  const int iters = opts.quick ? 2000 : 20000;
  argonet::NetConfig cfg;
  cfg.pipeline = opts.pipeline;
  Engine eng;
  argonet::Interconnect net(2, cfg);
  std::uint64_t remote = 0x5ca1ab1e;
  std::uint64_t local = 0;
  double wall = 0.0;
  eng.spawn("rtt", [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      argonet::PostedHandle h = net.post_read(0, 1, &remote, &local, 8);
      net.wait(h);
    }
    wall = wall_ns_since(t0);
  });
  eng.run();
  const double per = wall / static_cast<double>(iters);
  Table t({"pipeline", "round_trips", "wall_ms", "ns/rtt", "posted_ops"});
  t.row({Table::fmt("%d", opts.pipeline), Table::fmt("%d", iters),
         Table::fmt("%.2f", wall / 1e6), Table::fmt("%.1f", per),
         Table::fmt("%llu",
                    static_cast<unsigned long long>(net.stats(0).posted_ops))});
  t.print();
  mb_row(json, "posted_rtt", opts, 2, calendar)
      .num("round_trips", iters)
      .num("wall_ms", wall / 1e6)
      .num("ns_per_rtt", per)
      .num("posted_ops", net.stats(0).posted_ops);
}

// --- poll_step --------------------------------------------------------------

/// `pollers` daemon fibers spin on never-written words at the local-read
/// cadence of the Fig. 12 grant-flag wait (read 50 ns, backoff 100 ns)
/// while one fiber ticks every microsecond; the run ends with the ticker
/// and the engine unwinds the pollers. Steps (issues plus probes) are
/// counted by the callbacks, so fast and slow runs divide by the same
/// number.
void bench_poll_step(JsonReport& json, const BenchOpts& opts, bool calendar) {
  const int pollers = 31;
  const int ticks = opts.quick ? 500 : 5000;
  std::uint64_t steps = 0;
  double wall = 0.0;
  {
    Engine eng;
    const std::uint64_t word = 0;
    for (int p = 0; p < pollers; ++p)
      eng.spawn(Table::fmt("poll%d", p), [&eng, &steps, &word] {
        eng.poll(50, 100, [&steps] { ++steps; }, [&steps, &word] {
          ++steps;
          return word != 0;
        });
      }, /*daemon=*/true);
    eng.spawn("ticker", [ticks] {
      for (int i = 0; i < ticks; ++i) argosim::delay(1000);
    });
    const auto t0 = std::chrono::steady_clock::now();
    eng.run();
    wall = wall_ns_since(t0);
  }
  const double per = steps != 0 ? wall / static_cast<double>(steps) : 0.0;
  Table t({"pollers", "steps", "wall_ms", "ns/step"});
  t.row({Table::fmt("%d", pollers),
         Table::fmt("%llu", static_cast<unsigned long long>(steps)),
         Table::fmt("%.2f", wall / 1e6), Table::fmt("%.1f", per)});
  t.print();
  mb_row(json, "poll_step", opts, 0, calendar)
      .num("pollers", pollers)
      .num("steps", steps)
      .num("wall_ms", wall / 1e6)
      .num("ns_per_step", per);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace benchutil;
  const BenchOpts opts = BenchOpts::parse(argc, argv);
  const bool calendar = !argosim::slow_paths();
  header("Engine microbench",
         "scheduler hot paths in wall-clock time (fiber switch, run-queue "
         "hold, posted round-trip, poll step)");
  note(Table::fmt("context backend: %s, run queue: %s",
                  Engine::context_backend(), calendar ? "calendar" : "heap")
           .c_str());
  if (opts.pipeline > 1)
    note(Table::fmt("pipeline depth %d (posted verbs)", opts.pipeline).c_str());

  JsonReport json;
  bench_fiber_switch(json, opts, calendar);
  bench_runq_hold(json, opts, calendar);
  bench_posted_rtt(json, opts, calendar);
  bench_poll_step(json, opts, calendar);
  json.write(opts.json_path);
  return 0;
}
