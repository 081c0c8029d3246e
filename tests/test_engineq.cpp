// Calendar run-queue property suite and fast-vs-slow identity reruns.
//
// Two layers of the same contract. First, CalQueue must be *extensionally
// equal* to the seed's binary heap: for any op sequence, pops come out in
// exactly (when, seq) order — randomized mixed workloads, tie-break
// groups, purge/lazy-deletion and pathological horizon spreads all check
// against a std::priority_queue reference. Second, whole programs must not
// be able to tell the fast engine paths from the slow ones: LU / MM / EP
// rerun under ARGO_SLOW_PATHS=1 (heap run queue, ucontext switching, no
// record pooling) must produce bit-identical virtual times, statistics and
// traces to the fast configuration (calendar, fcontext where supported,
// pooled effects) at every engine worker count, with and without chaos
// fault injection, at posted-pipeline depths 1 and 16. Third, Engine::poll
// (scheduler-side poll steps) must be indistinguishable from the literal
// issue/delay/probe/delay loop it replaces, down to kills and exceptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "apps/ep.hpp"
#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "core/cluster.hpp"
#include "net/faults.hpp"
#include "sim/calqueue.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/slowpath.hpp"
#include "sim/time.hpp"

namespace {

using argosim::CalQueue;
using argosim::EventQueue;
using argosim::Rng;
using argosim::Time;

// Restores the process-wide slow-path toggle on scope exit so a failing
// test cannot leak ARGO_SLOW_PATHS semantics into later tests.
struct SlowGuard {
  bool prev = argosim::slow_paths();
  ~SlowGuard() { argosim::set_slow_paths(prev); }
};

// ---------------------------------------------------------------------------
// CalQueue vs the heap reference
// ---------------------------------------------------------------------------

// The engine's key shape: a timestamp plus a deterministic tie-break.
struct Ev {
  Time when = 0;
  std::uint64_t seq = 0;
  bool operator>(const Ev& o) const {
    if (when != o.when) return when > o.when;
    return seq > o.seq;
  }
};

using HeapRef = std::priority_queue<Ev, std::vector<Ev>, std::greater<>>;

void expect_same_drain(CalQueue<Ev>& cal, HeapRef& ref) {
  ASSERT_EQ(cal.size(), ref.size());
  while (!ref.empty()) {
    const Ev want = ref.top();
    ref.pop();
    const Ev got = cal.top();
    cal.pop();
    ASSERT_EQ(got.when, want.when);
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(cal.empty());
}

TEST(CalQueueVsHeap, RandomizedMixedOpsMatchExactly) {
  // Mixed push/pop streams at several horizon spreads, keeping the
  // engine's invariant that pushes never land before the popped frontier.
  for (const std::uint64_t spread :
       {std::uint64_t{8}, std::uint64_t{1} << 12, std::uint64_t{1} << 24}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      CalQueue<Ev> cal;
      HeapRef ref;
      Rng rng(seed * 77 + spread);
      Time frontier = 0;
      std::uint64_t seq = 0;
      for (int op = 0; op < 20000; ++op) {
        if (ref.empty() || rng.next_below(10) < 6) {
          const Ev e{frontier + rng.next_below(spread), seq++};
          cal.push(e);
          ref.push(e);
        } else {
          const Ev want = ref.top();
          ref.pop();
          const Ev got = cal.top();
          cal.pop();
          ASSERT_EQ(got.when, want.when) << "spread " << spread;
          ASSERT_EQ(got.seq, want.seq) << "spread " << spread;
          frontier = want.when;
        }
      }
      expect_same_drain(cal, ref);
    }
  }
}

TEST(CalQueueVsHeap, TieBreaksPopInSeqOrder) {
  // Several groups at identical timestamps, inserted in scrambled seq
  // order: pops must come out time-major, seq-minor — the engine's
  // determinism hinges on exactly this order.
  CalQueue<Ev> cal;
  HeapRef ref;
  Rng rng(99);
  std::vector<Ev> all;
  for (Time t : {Time{100}, Time{100}, Time{7}, Time{4096}})
    for (std::uint64_t s = 0; s < 64; ++s)
      all.push_back({t, rng.next_u64()});  // random seqs, duplicated times
  // Scramble insertion order deterministically.
  for (std::size_t i = all.size(); i > 1; --i)
    std::swap(all[i - 1], all[rng.next_below(i)]);
  for (const Ev& e : all) {
    cal.push(e);
    ref.push(e);
  }
  expect_same_drain(cal, ref);
}

TEST(CalQueueVsHeap, PurgeMatchesReferenceErase) {
  // Lazy deletion: fill both, advance the drain cursor a little, purge a
  // predicate slice, and check the survivors drain identically and the
  // removed counts agree. Mirrors the engine's stale-wake compaction.
  CalQueue<Ev> cal;
  std::vector<Ev> live;
  Rng rng(5);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5000; ++i) {
    const Ev e{rng.next_below(1 << 20), seq++};
    cal.push(e);
    live.push_back(e);
  }
  // Pop a prefix so the rung cursor is mid-day when purge runs.
  HeapRef order(live.begin(), live.end());
  for (int i = 0; i < 137; ++i) {
    const Ev want = order.top();
    order.pop();
    ASSERT_EQ(cal.top().seq, want.seq);
    cal.pop();
    live.erase(std::find_if(live.begin(), live.end(), [&](const Ev& e) {
      return e.seq == want.seq;
    }));
  }
  const auto stale = [](const Ev& e) { return e.seq % 3 == 0; };
  const std::size_t want_removed =
      static_cast<std::size_t>(std::count_if(live.begin(), live.end(), stale));
  EXPECT_EQ(cal.purge(stale), want_removed);
  live.erase(std::remove_if(live.begin(), live.end(), stale), live.end());
  HeapRef ref(live.begin(), live.end());
  expect_same_drain(cal, ref);
}

TEST(CalQueueVsHeap, ExtremeHorizonSpreadsAndResizes) {
  // Pathological time distributions: day-sized clusters interleaved with
  // jumps of 2^40 ns and timestamps out at 2^62, growing then draining so
  // the bucket array walks through both rebuild directions. The pop order
  // must stay exact throughout and the calendar must actually have
  // re-tuned (resizes observable via the sim.calendar_resizes counter).
  CalQueue<Ev> cal;
  HeapRef ref;
  Rng rng(1234);
  std::uint64_t seq = 0;
  Time base = 0;
  for (int wave = 0; wave < 8; ++wave) {
    for (int i = 0; i < 4000; ++i) {
      Time w = base + rng.next_below(512);
      if (rng.next_below(100) == 0) w = (Time{1} << 62) + rng.next_below(512);
      const Ev e{w, seq++};
      cal.push(e);
      ref.push(e);
    }
    // Drain most of the wave, then jump the clock far ahead.
    for (int i = 0; i < 3800; ++i) {
      const Ev want = ref.top();
      ref.pop();
      ASSERT_EQ(cal.top().when, want.when);
      ASSERT_EQ(cal.top().seq, want.seq);
      cal.pop();
    }
    base += Time{1} << 40;
  }
  EXPECT_GT(cal.resizes(), 0u);
  expect_same_drain(cal, ref);
}

TEST(EventQueueFacade, BackendFollowsSlowPathToggleAndCompactAgrees) {
  SlowGuard guard;
  // Same contents through both backends: identical compaction counts and
  // identical drain order.
  for (const bool slow : {false, true}) {
    argosim::set_slow_paths(slow);
    EventQueue<Ev> q;
    EXPECT_EQ(q.calendar(), !slow);
    HeapRef ref;
    Rng rng(slow ? 11u : 12u);
    for (std::uint64_t s = 0; s < 3000; ++s) {
      const Ev e{rng.next_below(1 << 16), s};
      q.push(e);
      if (e.seq % 7 != 0) ref.push(e);
    }
    EXPECT_EQ(q.compact([](const Ev& e) { return e.seq % 7 == 0; }),
              3000u / 7u + 1u);
    ASSERT_EQ(q.size(), ref.size());
    while (!ref.empty()) {
      ASSERT_EQ(q.top().seq, ref.top().seq);
      q.pop();
      ref.pop();
    }
  }
}

// ---------------------------------------------------------------------------
// Fast-vs-slow program identity: LU / MM / EP
// ---------------------------------------------------------------------------

using argo::Cluster;
using argo::ClusterConfig;
using argoapps::EpParams;
using argoapps::LuParams;
using argoapps::MmParams;

// Everything the identity contract covers, in comparable form.
struct AppFp {
  Time elapsed = 0;
  double checksum = 0;
  std::vector<std::string> counters;
  std::vector<std::string> trace;
};

void append_observables(AppFp& f, Cluster& cl) {
  // sim.* counters are host-side scheduler diagnostics, intentionally
  // different between fast and slow paths — outside the contract.
  for (const auto& c : cl.stats().counters)
    if (c.name.rfind("sim.", 0) != 0)
      f.counters.push_back(c.name + "=" + std::to_string(c.value));
  for (const auto& e : cl.tracer().snapshot())
    f.trace.push_back(std::to_string(e.seq) + ":" + std::to_string(e.t) + ":" +
                      std::to_string(e.page) + ":" + std::to_string(e.arg) +
                      ":" + std::to_string(e.thread) + ":" +
                      std::to_string(e.node) + ":" + std::to_string(e.kind) +
                      ":" + std::to_string(e.state));
}

void expect_identical(const AppFp& slow, const AppFp& fast,
                      const std::string& label) {
  EXPECT_EQ(slow.elapsed, fast.elapsed) << label << ": virtual time diverged";
  EXPECT_EQ(slow.checksum, fast.checksum) << label << ": result diverged";
  EXPECT_EQ(slow.counters, fast.counters) << label << ": counters diverged";
  EXPECT_EQ(slow.trace, fast.trace) << label << ": trace diverged";
}

ClusterConfig identity_cfg(int workers, int pipeline) {
  ClusterConfig c;
  c.nodes = 4;
  c.threads_per_node = 2;
  c.global_mem_bytes = 128 * argomem::kPageSize;
  c.cache.cache_lines = 8192;
  c.cache.write_buffer_pages = 1024;
  c.net.pipeline = pipeline;
  c.trace.enabled = true;
  c.engine_threads = workers;
  return c;
}

// Rerun `run` with the slow (seed) paths as the oracle, then fast, at
// every engine configuration: legacy (0), the sequential sharded
// reference (1), and parallel workers 2 and 8.
template <class RunFn>
void fast_slow_identity(const std::string& label, RunFn run) {
  for (const int workers : {0, 1, 2, 8}) {
    SlowGuard guard;
    argosim::set_slow_paths(true);
    const AppFp slow = run(workers);
    argosim::set_slow_paths(false);
    const AppFp fast = run(workers);
    expect_identical(slow, fast,
                     label + " workers=" + std::to_string(workers));
  }
}

TEST(FastSlowIdentity, LuAtPipelineDepths1And16) {
  LuParams p;
  p.n = 64;
  p.block = 16;
  for (const int pipeline : {1, 16}) {
    fast_slow_identity(
        "lu pipeline=" + std::to_string(pipeline), [&](int workers) {
          Cluster cl(identity_cfg(workers, pipeline));
          const auto r = argoapps::lu_run_argo(cl, p);
          AppFp f;
          f.elapsed = r.elapsed;
          f.checksum = r.checksum;
          append_observables(f, cl);
          return f;
        });
  }
}

TEST(FastSlowIdentity, MmAtPipelineDepths1And16) {
  MmParams p;
  p.n = 64;
  for (const int pipeline : {1, 16}) {
    fast_slow_identity(
        "mm pipeline=" + std::to_string(pipeline), [&](int workers) {
          Cluster cl(identity_cfg(workers, pipeline));
          const auto r = argoapps::mm_run_argo(cl, p);
          AppFp f;
          f.elapsed = r.elapsed;
          f.checksum = r.checksum;
          append_observables(f, cl);
          return f;
        });
  }
}

TEST(FastSlowIdentity, EpUnderChaosSeeds) {
  EpParams p;
  p.log2_pairs = 12;
  p.chunks = 32;
  for (const std::uint64_t chaos_seed : {3u, 17u}) {
    fast_slow_identity(
        "ep chaos_seed=" + std::to_string(chaos_seed), [&](int workers) {
          ClusterConfig cfg = identity_cfg(workers, 16);
          cfg.faults.enabled = true;
          cfg.faults.seed = chaos_seed;
          cfg.faults.rdma_fail_prob = 0.02;
          cfg.faults.jitter_prob = 0.2;
          cfg.faults.jitter_max = 800;
          cfg.faults.msg_drop_prob = 0.05;
          cfg.faults.msg_dup_prob = 0.02;
          Cluster cl(cfg);
          const auto r = argoapps::ep_run_argo(cl, p);
          AppFp f;
          f.elapsed = r.elapsed;
          f.checksum = r.tally.sx + r.tally.sy +
                       static_cast<double>(r.tally.accepted);
          append_observables(f, cl);
          return f;
        });
  }
}

// ---------------------------------------------------------------------------
// Engine::poll vs the literal loop
// ---------------------------------------------------------------------------

using argosim::Engine;
using argosim::SimThread;

// One observable event of a poll program: a read issued ('i'), a probe
// and the value it saw ('p'), a satisfied wait ('d') or a write ('w').
struct PollEv {
  Time t;
  std::uint64_t fiber;
  std::uint64_t value;
  char kind;
  bool operator==(const PollEv&) const = default;
};

enum class PollMode {
  Slow,       // ARGO_SLOW_PATHS: the oracle
  Literal,    // fast paths, the loop written out with delay()
  Primitive,  // fast paths, Engine::poll
};

struct PollRun {
  std::vector<std::vector<PollEv>> logs;  // one per shard
  Time end = 0;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t fast_forwards = 0;
  std::uint64_t switches = 0;
  std::uint64_t poll_steps = 0;
};

// Spawn on `shard` (sharded engine) or plainly (legacy engine).
SimThread* spawn_in(Engine& eng, std::uint32_t shard, std::string name,
                    std::function<void()> body) {
  if (eng.sharded())
    return eng.spawn_on(shard, std::move(name), std::move(body));
  return eng.spawn(std::move(name), std::move(body));
}

// Writers bump three words per shard to 1..kPollWrites at random delays;
// pollers wait for random rising thresholds on random words with random
// read costs and backoffs. Half the delays sit on a 10 ns grid that most
// pollers' read + backoff cadence shares, so writes land exactly on poll
// instants. workers < 0 selects the legacy engine; otherwise two shards
// (lookahead 40 ns) advanced by `workers` host threads.
constexpr std::uint64_t kPollWrites = 24;

PollRun run_poll_program(std::uint64_t seed, int workers, PollMode mode) {
  SlowGuard guard;
  argosim::set_slow_paths(mode == PollMode::Slow);
  Engine eng;
  const std::uint32_t shards = workers < 0 ? 1 : 2;
  if (workers >= 0)
    eng.enable_sharding(shards, /*l=*/40, static_cast<std::uint32_t>(workers));
  PollRun r;
  r.logs.resize(shards);
  std::vector<std::array<std::uint64_t, 3>> words(shards, {0, 0, 0});
  Rng rng(seed);
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto& log = r.logs[s];
    auto& w = words[s];
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t wseed = rng.next_u64();
      spawn_in(eng, s, "writer", [&log, &w, k, wseed] {
        Rng wr(wseed);
        const auto id = Engine::current_thread()->id();
        for (std::uint64_t v = 1; v <= kPollWrites; ++v) {
          argosim::delay(wr.next_below(2) != 0 ? 10 * wr.next_below(4)
                                               : wr.next_below(25));
          w[static_cast<std::size_t>(k)] = v;
          log.push_back({argosim::now(), id, v, 'w'});
        }
      });
    }
    for (int p = 0; p < 4; ++p) {
      const std::uint64_t pseed = rng.next_u64();
      spawn_in(eng, s, "poller", [&eng, &log, &w, pseed, mode] {
        Rng pr(pseed);
        const Time read_cost = 1 + pr.next_below(6);
        const Time backoff =
            pr.next_below(2) != 0 ? 10 - read_cost : pr.next_below(12);
        const auto id = Engine::current_thread()->id();
        std::uint64_t need = 0;
        while (need < kPollWrites) {
          need = std::min(kPollWrites, need + 1 + pr.next_below(3));
          const std::uint64_t& word = w[pr.next_below(3)];
          auto issue = [&] { log.push_back({argosim::now(), id, 0, 'i'}); };
          auto probe = [&] {
            log.push_back({argosim::now(), id, word, 'p'});
            return word >= need;
          };
          if (mode == PollMode::Literal) {
            for (;;) {
              issue();
              argosim::delay(read_cost);
              if (probe()) break;
              argosim::delay(backoff);
            }
          } else {
            eng.poll(read_cost, backoff, issue, probe);
          }
          log.push_back({argosim::now(), id, need, 'd'});
          argosim::delay(pr.next_below(30));
        }
      });
    }
  }
  eng.run();
  r.end = eng.now();
  r.pushes = eng.runq_pushes();
  r.pops = eng.runq_pops();
  r.fast_forwards = eng.delay_fast_forwards();
  r.switches = eng.context_switches();
  r.poll_steps = eng.poll_steps();
  return r;
}

TEST(EnginePoll, RandomizedStepsMatchTheLiteralLoop) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const int workers : {-1, 1, 2}) {
      const std::string label = "seed " + std::to_string(seed) +
                                " workers " + std::to_string(workers);
      const PollRun slow = run_poll_program(seed, workers, PollMode::Slow);
      const PollRun lit = run_poll_program(seed, workers, PollMode::Literal);
      const PollRun prim = run_poll_program(seed, workers, PollMode::Primitive);
      ASSERT_GT(slow.logs[0].size(), 100u) << label;
      EXPECT_EQ(slow.logs, prim.logs) << label;
      EXPECT_EQ(slow.end, prim.end) << label;
      EXPECT_EQ(lit.logs, prim.logs) << label;
      // Against the fast literal loop: the very same run-queue entries and
      // in-place fast-forwards, only without the per-step fiber switches.
      EXPECT_EQ(lit.pushes, prim.pushes) << label;
      EXPECT_EQ(lit.pops, prim.pops) << label;
      EXPECT_EQ(lit.fast_forwards, prim.fast_forwards) << label;
      EXPECT_LT(prim.switches, lit.switches) << label;
      EXPECT_GT(prim.poll_steps, 0u) << label;
      EXPECT_EQ(lit.poll_steps, 0u) << label;
      EXPECT_EQ(slow.poll_steps, 0u) << label;
    }
  }
}

// A fiber killed while it polls unwinds at the kill instant — whether the
// kill lands between steps or exactly on a probe — and the rest of the
// simulation carries on; a probe that throws on the scheduler stack
// surfaces in the polling fiber at the same instant as in the literal loop.
TEST(EnginePoll, KilledPollerUnwindsAtTheKillInstant) {
  struct Obs {
    Time unwound = 0;
    int probes = 0;
    Time end = 0;
    bool operator==(const Obs&) const = default;
  };
  // read 3 + backoff 7: probes land at 3, 13, 23, ...
  auto run = [](int workers, bool slow, Time kill_at) {
    SlowGuard guard;
    argosim::set_slow_paths(slow);
    Engine eng;
    if (workers >= 0)
      eng.enable_sharding(1, /*l=*/40, static_cast<std::uint32_t>(workers));
    Obs o;
    const std::uint64_t word = 0;  // never written: only the kill ends it
    SimThread* poller = spawn_in(eng, 0, "poller", [&] {
      struct OnUnwind {
        Time* at;
        ~OnUnwind() { *at = argosim::now(); }
      } on_unwind{&o.unwound};
      eng.poll(3, 7, [] {}, [&] {
        ++o.probes;
        return word != 0;
      });
      ADD_FAILURE() << "poll returned without its probe accepting";
    });
    spawn_in(eng, 0, "killer", [&eng, poller, kill_at] {
      argosim::delay(kill_at);
      eng.kill(poller);
      argosim::delay(50);
    });
    eng.run();
    o.end = eng.now();
    return o;
  };
  for (const int workers : {-1, 1}) {
    for (const Time kill_at : {Time{2}, Time{13}, Time{58}, Time{1000}}) {
      const Obs slow = run(workers, true, kill_at);
      const Obs fast = run(workers, false, kill_at);
      EXPECT_EQ(slow, fast) << "workers " << workers << " kill " << kill_at;
      EXPECT_EQ(fast.unwound, kill_at);
      EXPECT_EQ(fast.end, kill_at + 50);
    }
  }

  auto run_throwing = [](bool slow) {
    SlowGuard guard;
    argosim::set_slow_paths(slow);
    Engine eng;
    Time caught = 0;
    int probes = 0;
    eng.spawn("other", [] {
      for (int i = 0; i < 40; ++i) argosim::delay(4);
    });
    eng.spawn("poller", [&] {
      try {
        eng.poll(3, 7, [] {}, [&]() -> bool {
          if (++probes == 5) throw std::runtime_error("probe failed");
          return false;
        });
      } catch (const std::runtime_error&) {
        caught = argosim::now();
      }
      argosim::delay(1);
    });
    eng.run();
    return std::make_tuple(caught, probes, eng.now(), eng.poll_steps());
  };
  const auto [slow_at, slow_probes, slow_end, slow_steps] = run_throwing(true);
  const auto [fast_at, fast_probes, fast_end, fast_steps] = run_throwing(false);
  EXPECT_EQ(slow_at, fast_at);
  EXPECT_EQ(fast_at, Time{43});  // fifth probe: 3 + 4 * 10
  EXPECT_EQ(slow_probes, fast_probes);
  EXPECT_EQ(slow_end, fast_end);
  EXPECT_EQ(slow_steps, 0u);
  EXPECT_GT(fast_steps, 0u);  // the throw happened on the scheduler stack
}

// Same-time ties between a poll step and the other events it can meet. The
// literal loop settles each by queue order: a delay lands behind a step
// already pending at its instant, a step lands behind an entry queued
// before it, and an effect runs before every fiber wake at its instant.
// The poller P (read 3, backoff 7) issues at 0, 10, 20, ... and probes at
// 3, 13, 23, ...; the other fiber writes P's word exactly on a probe
// instant, so P's finish time shows which side of the tie ran first.
enum class Tie { DelayOnPendingStep, StepOnQueuedEntry, EffectAtStepInstant };

struct TieRun {
  std::vector<PollEv> log;
  Time done = 0;  // instant P's poll returned
  std::uint64_t poll_steps = 0;
};

TieRun run_tie(Tie tie, int workers, bool slow) {
  SlowGuard guard;
  argosim::set_slow_paths(slow);
  Engine eng;
  if (workers >= 0)
    eng.enable_sharding(2, /*l=*/40, static_cast<std::uint32_t>(workers));
  TieRun r;
  std::uint64_t word = 0;
  auto write = [&r, &word](std::uint64_t id) {
    word = 1;
    r.log.push_back({argosim::now(), id, 1, 'w'});
  };
  switch (tie) {
    case Tie::DelayOnPendingStep:
      // At 11 the step at 13 is already pending; delay(2) lands on it.
      spawn_in(eng, 0, "writer", [&write] {
        argosim::delay(11);
        argosim::delay(2);
        write(Engine::current_thread()->id());
      });
      break;
    case Tie::StepOnQueuedEntry:
      // The writer queues for 33 at time 0; P's issue step at 30 lands its
      // probe on that entry. The ticker (7, 14, ..., never on P's grid)
      // parks P early, so the step at 30 runs on the scheduler stack.
      spawn_in(eng, 0, "writer", [&write] {
        argosim::delay(33);
        write(Engine::current_thread()->id());
      });
      spawn_in(eng, 0, "ticker", [] {
        for (int i = 0; i < 5; ++i) argosim::delay(7);
      });
      break;
    case Tie::EffectAtStepInstant:
      // Posted from shard 1 into the window after P's issue step at 40.
      spawn_in(eng, 1, "poster", [&eng, &write] {
        argosim::delay(3);
        eng.post_effect(0, 43, /*klass=*/0, 0, 0, [&write] { write(99); });
      });
      break;
  }
  spawn_in(eng, 0, "poller", [&] {
    const auto id = Engine::current_thread()->id();
    eng.poll(3, 7, [&] { r.log.push_back({argosim::now(), id, 0, 'i'}); },
             [&] {
               r.log.push_back({argosim::now(), id, word, 'p'});
               return word != 0;
             });
    r.done = argosim::now();
  });
  eng.run();
  r.poll_steps = eng.poll_steps();
  return r;
}

TEST(EnginePoll, DelayLandingOnAPendingStepQueuesBehindIt) {
  for (const int workers : {-1, 1, 2}) {
    const TieRun slow = run_tie(Tie::DelayOnPendingStep, workers, true);
    const TieRun fast = run_tie(Tie::DelayOnPendingStep, workers, false);
    EXPECT_EQ(slow.log, fast.log) << "workers " << workers;
    EXPECT_EQ(fast.done, Time{23}) << "workers " << workers;  // probe 13 saw 0
    EXPECT_GT(fast.poll_steps, 0u) << "workers " << workers;
  }
}

TEST(EnginePoll, StepLandingOnAQueuedEntryRunsAfterIt) {
  for (const int workers : {-1, 1, 2}) {
    const TieRun slow = run_tie(Tie::StepOnQueuedEntry, workers, true);
    const TieRun fast = run_tie(Tie::StepOnQueuedEntry, workers, false);
    EXPECT_EQ(slow.log, fast.log) << "workers " << workers;
    EXPECT_EQ(fast.done, Time{33}) << "workers " << workers;  // write first
    EXPECT_GT(fast.poll_steps, 0u) << "workers " << workers;
  }
}

TEST(EnginePoll, EffectAtAStepInstantRunsFirst) {
  for (const int workers : {1, 2}) {
    const TieRun slow = run_tie(Tie::EffectAtStepInstant, workers, true);
    const TieRun fast = run_tie(Tie::EffectAtStepInstant, workers, false);
    EXPECT_EQ(slow.log, fast.log) << "workers " << workers;
    EXPECT_EQ(fast.done, Time{43}) << "workers " << workers;  // effect first
    EXPECT_GT(fast.poll_steps, 0u) << "workers " << workers;
  }
}

// A daemon still parked in poll() when run() returns is unwound by
// shutdown() or the destructor: its RAII guard runs and no fiber is left.
TEST(EnginePoll, ShutdownUnwindsADaemonParkedInPoll) {
  for (const int workers : {-1, 1, 2}) {
    for (const bool slow : {true, false}) {
      for (const bool explicit_shutdown : {true, false}) {
        SlowGuard guard;
        argosim::set_slow_paths(slow);
        bool unwound = false;
        std::uint64_t probes = 0;
        {
          Engine eng;
          if (workers >= 0)
            eng.enable_sharding(2, /*l=*/40,
                                static_cast<std::uint32_t>(workers));
          eng.spawn_on(workers >= 0 ? 1 : 0, "daemon", [&] {
            struct OnUnwind {
              bool* flag;
              ~OnUnwind() { *flag = true; }
            } on_unwind{&unwound};
            const std::uint64_t word = 0;  // never written
            eng.poll(3, 7, [] {}, [&] {
              ++probes;
              return word != 0;
            });
          }, /*daemon=*/true);
          spawn_in(eng, 0, "main", [] { argosim::delay(500); });
          eng.run();
          EXPECT_FALSE(unwound);
          EXPECT_EQ(eng.live_count(), 1u);
          if (explicit_shutdown) {
            eng.shutdown();
            EXPECT_TRUE(unwound);
            EXPECT_EQ(eng.live_count(), 0u);
          }
        }
        const std::string label = "workers " + std::to_string(workers) +
                                  (slow ? " slow" : " fast") +
                                  (explicit_shutdown ? " shutdown" : " dtor");
        EXPECT_TRUE(unwound) << label;
        EXPECT_GT(probes, 10u) << label;
      }
    }
  }
}

}  // namespace
