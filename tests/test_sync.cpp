// Tests for Vela synchronization: node-local locks (mutex/ticket/MCS/
// cohort/QD) and distributed locks (RDMA MCS, HQDL, DSM cohort, flags).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/membership.hpp"
#include "obs/export.hpp"
#include "sim/slowpath.hpp"
#include "sync/dsm_locks.hpp"
#include "sync/local_locks.hpp"
#include "sync/qd_lock.hpp"

namespace argosync {
namespace {

using argo::Cluster;
using argo::ClusterConfig;
using argo::Thread;
using argomem::kPageSize;
using argosim::Engine;
using argosim::Time;

// ---------------------------------------------------------------------------
// Node-local locks (one simulated machine): exercised on a bare Engine.
// ---------------------------------------------------------------------------

struct LocalHarness {
  Engine eng;
  argonet::NodeTopology topo;
};

// Every lock must provide mutual exclusion and execute every section once.
void check_mutual_exclusion(CriticalSectionExecutor& lock) {
  LocalHarness h;
  int counter = 0;
  int inside = 0;
  bool overlapped = false;
  const int threads = 8, iters = 50;
  for (int i = 0; i < threads; ++i) {
    const int core = i % h.topo.cores;
    h.eng.spawn("t" + std::to_string(i), [&, core] {
      for (int k = 0; k < iters; ++k) {
        lock.execute(core,
                     [&](int) {
                       if (inside != 0) overlapped = true;
                       ++inside;
                       ++counter;
                       argosim::delay(50);  // critical-section work
                       --inside;
                     },
                     /*wait=*/true);
        argosim::delay(20);  // local work
      }
    });
  }
  h.eng.run();
  EXPECT_FALSE(overlapped) << lock.name();
  EXPECT_EQ(counter, threads * iters) << lock.name();
}

TEST(LocalLocks, MutexMutualExclusion) {
  argonet::NodeTopology topo;
  MutexLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, TicketMutualExclusion) {
  argonet::NodeTopology topo;
  TicketLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, McsMutualExclusion) {
  argonet::NodeTopology topo;
  McsLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, CohortMutualExclusion) {
  argonet::NodeTopology topo;
  CohortLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, QdMutualExclusion) {
  argonet::NodeTopology topo;
  QdLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, TicketIsFifo) {
  LocalHarness h;
  argonet::NodeTopology topo;
  TicketLock l(&topo);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i)
    h.eng.spawn("t" + std::to_string(i), [&, i] {
      argosim::delay(static_cast<Time>(i * 10));  // arrive in index order
      l.lock(i);
      order.push_back(i);
      argosim::delay(500);
      l.unlock(i);
    });
  h.eng.run();
  std::vector<int> expect{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(order, expect);
}

TEST(LocalLocks, McsIsFifo) {
  LocalHarness h;
  argonet::NodeTopology topo;
  McsLock l(&topo);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i)
    h.eng.spawn("t" + std::to_string(i), [&, i] {
      argosim::delay(static_cast<Time>(i * 10));
      l.lock(i);
      order.push_back(i);
      argosim::delay(500);
      l.unlock(i);
    });
  h.eng.run();
  std::vector<int> expect{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(order, expect);
}

TEST(LocalLocks, QdDetachedDelegationExecutesEventually) {
  LocalHarness h;
  argonet::NodeTopology topo;
  QdLock l(&topo);
  int executed = 0;
  // One slow helper plus detached delegators that return immediately.
  h.eng.spawn("helper", [&] {
    l.execute(0, [&](int) {
      ++executed;
      argosim::delay(5000);  // long section: others delegate meanwhile
    }, true);
  });
  for (int i = 1; i <= 6; ++i)
    h.eng.spawn("d" + std::to_string(i), [&, i] {
      argosim::delay(100);
      Time before = argosim::now();
      l.execute(i % 16, [&](int) { ++executed; }, /*wait=*/false);
      // Detached delegation must not wait for the helper's 5 us section.
      EXPECT_LT(argosim::now() - before, 3000u);
    });
  h.eng.run();
  EXPECT_EQ(executed, 7);
  EXPECT_GE(l.delegated(), 1u);
}

TEST(LocalLocks, QdWaitBlocksUntilExecution) {
  LocalHarness h;
  argonet::NodeTopology topo;
  QdLock l(&topo);
  bool side_effect = false;
  h.eng.spawn("helper", [&] {
    l.execute(0, [&](int) { argosim::delay(2000); }, true);
  });
  h.eng.spawn("waiter", [&] {
    argosim::delay(100);
    l.execute(1, [&](int) { side_effect = true; }, /*wait=*/true);
    EXPECT_TRUE(side_effect);  // visible immediately after execute returns
  });
  h.eng.run();
  EXPECT_TRUE(side_effect);
}

TEST(LocalLocks, QdBatchesOnOneCore) {
  // Under contention the helper should execute many sections per lock
  // acquisition (that is the whole point of delegation).
  LocalHarness h;
  argonet::NodeTopology topo;
  QdLock l(&topo);
  const int threads = 8, iters = 40;
  for (int i = 0; i < threads; ++i)
    h.eng.spawn("t" + std::to_string(i), [&, i] {
      for (int k = 0; k < iters; ++k) {
        l.execute(i % 16, [&](int) { argosim::delay(100); }, true);
        argosim::delay(30);
      }
    });
  h.eng.run();
  EXPECT_GT(l.delegated(), static_cast<std::uint64_t>(threads * iters / 2));
  EXPECT_LT(l.batches(), static_cast<std::uint64_t>(threads * iters / 2));
}

TEST(LocalLocks, QdOutperformsMutexUnderContention) {
  // Throughput sanity for Figure 11's ordering: same workload, same
  // virtual clock; QD must finish sooner than the sleeping mutex.
  auto run_with = [](CriticalSectionExecutor& lock) {
    LocalHarness h;
    const int threads = 8, iters = 100;
    for (int i = 0; i < threads; ++i) {
      const int core = i % h.topo.cores;
      h.eng.spawn("t", [&, core] {
        for (int k = 0; k < iters; ++k) {
          lock.execute(core, [](int) { argosim::delay(150); }, true);
          argosim::delay(50);
        }
      });
    }
    h.eng.run();
    return h.eng.now();
  };
  argonet::NodeTopology topo;
  MutexLock mutex(&topo);
  QdLock qd(&topo);
  const Time t_mutex = run_with(mutex);
  const Time t_qd = run_with(qd);
  EXPECT_LT(t_qd, t_mutex);
}

// ---------------------------------------------------------------------------
// Distributed locks
// ---------------------------------------------------------------------------

ClusterConfig dsm_cfg(int nodes, int tpn) {
  ClusterConfig c;
  c.nodes = nodes;
  c.threads_per_node = tpn;
  c.global_mem_bytes = static_cast<std::size_t>(nodes) * 32 * kPageSize;
  return c;
}

TEST(GlobalMcs, MutualExclusionAcrossNodes) {
  Cluster cl(dsm_cfg(4, 1));
  GlobalMcsLock lock(cl);
  int inside = 0, count = 0;
  bool overlapped = false;
  cl.run([&](Thread& t) {
    for (int k = 0; k < 20; ++k) {
      lock.acquire(t);
      if (inside != 0) overlapped = true;
      ++inside;
      ++count;
      t.compute(500);
      --inside;
      lock.release(t);
      t.compute(100);
    }
  });
  EXPECT_FALSE(overlapped);
  EXPECT_EQ(count, 80);
}

TEST(Hqdl, CountsProtectedIncrementsCorrectly) {
  Cluster cl(dsm_cfg(4, 4));
  HqdLock lock(cl);
  // The protected counter lives in global memory and is accessed through
  // the normal DSM path (load/store) — exactly what critical sections do.
  auto ctr = cl.alloc<std::uint64_t>(1);
  const int iters = 25;
  cl.run([&](Thread& t) {
    for (int k = 0; k < iters; ++k) {
      lock.execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, /*wait=*/true);
      t.compute(200);
    }
  });
  // Final value must be exact: read it at home after the run.
  EXPECT_EQ(*cl.host_ptr(ctr), static_cast<std::uint64_t>(16 * iters));
  const auto st = lock.total_stats();
  EXPECT_EQ(st.executed, static_cast<std::uint64_t>(16 * iters));
  EXPECT_GT(st.delegated, 0u);
  EXPECT_LT(st.batches, st.executed);  // batching happened
}

TEST(Hqdl, DetachedDelegation) {
  Cluster cl(dsm_cfg(2, 4));
  HqdLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  cl.run([&](Thread& t) {
    for (int k = 0; k < 10; ++k)
      lock.execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, /*wait=*/false);
    t.barrier();  // all sections must have drained by the barrier epoch end
  });
  EXPECT_EQ(*cl.host_ptr(ctr), 80u);
}

TEST(Hqdl, FencesOncePerBatchNotPerSection) {
  Cluster cl(dsm_cfg(2, 8));
  HqdLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  cl.run([&](Thread& t) {
    for (int k = 0; k < 10; ++k)
      lock.execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, true);
  });
  const auto cs = cl.coherence_stats();
  const auto ls = lock.total_stats();
  EXPECT_EQ(ls.executed, 160u);
  // One SI and one SD per batch (plus none elsewhere in this program).
  EXPECT_EQ(cs.si_fences, ls.batches);
  EXPECT_EQ(cs.sd_fences, ls.batches);
  EXPECT_LT(ls.batches, 160u);
}

TEST(DsmCohort, CorrectAndFencesPerSection) {
  Cluster cl(dsm_cfg(2, 4));
  DsmCohortLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  const int iters = 10;
  cl.run([&](Thread& t) {
    for (int k = 0; k < iters; ++k) {
      lock.execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      });
      t.compute(100);
    }
  });
  EXPECT_EQ(*cl.host_ptr(ctr), 80u);
  const auto cs = cl.coherence_stats();
  EXPECT_EQ(cs.si_fences, 80u);  // per section, unlike HQDL
  EXPECT_EQ(cs.sd_fences, 80u);
  EXPECT_LT(lock.global_acquisitions(), 80u);  // cohort batching of the lock
}

TEST(DsmMutex, Correctness) {
  Cluster cl(dsm_cfg(3, 2));
  DsmMutex lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  cl.run([&](Thread& t) {
    for (int k = 0; k < 15; ++k) {
      lock.lock(t);
      t.store(ctr, t.load(ctr) + 1);
      lock.unlock(t);
    }
  });
  EXPECT_EQ(*cl.host_ptr(ctr), 90u);
}

TEST(DsmFlag, SignalPublishesData) {
  Cluster cl(dsm_cfg(2, 1));
  DsmFlag flag(cl);
  auto data = cl.alloc<std::uint64_t>(64);
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      for (int i = 0; i < 64; ++i)
        t.store(data + i, static_cast<std::uint64_t>(i * i));
      flag.set(t);
    } else {
      flag.wait(t);
      for (int i = 0; i < 64; ++i)
        EXPECT_EQ(t.load(data + i), static_cast<std::uint64_t>(i * i));
    }
  });
}

TEST(Hqdl, BeatsDsmCohortUnderContention) {
  // Figure 12's ordering: same microworkload, HQDL finishes sooner.
  auto run_with = [](bool use_hqdl) {
    Cluster cl(dsm_cfg(4, 4));
    HqdLock hqdl(cl);
    DsmCohortLock cohort(cl);
    auto ctr = cl.alloc<std::uint64_t>(1);
    return cl.run([&](Thread& t) {
      for (int k = 0; k < 20; ++k) {
        auto cs = [&](Thread& exec) { exec.store(ctr, exec.load(ctr) + 1); };
        if (use_hqdl)
          hqdl.execute(t, cs, true);
        else
          cohort.execute(t, cs);
        t.compute(500);
      }
    });
  };
  const Time t_hqdl = run_with(true);
  const Time t_cohort = run_with(false);
  EXPECT_LT(t_hqdl, t_cohort);
}


TEST(GlobalMcs, TimedAcquireSucceedsAndTimesOut) {
  Cluster cl(dsm_cfg(2, 1));
  GlobalMcsLock lock(cl);
  bool n0_got = false, n1_got = true;
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      n0_got = lock.try_acquire_for(t, 1000);  // free: immediate success
      t.compute(500000);                       // hold it well past the other
      if (n0_got) lock.release(t);
    } else {
      t.compute(5000);  // let node 0 win the lock first
      n1_got = lock.try_acquire_for(t, 20000);
    }
  });
  EXPECT_TRUE(n0_got);
  EXPECT_FALSE(n1_got);  // gave up while node 0 still held it
}

TEST(GlobalMcs, TimedAcquireInteroperatesWithRelease) {
  // A lock obtained through the timed path must release normally and be
  // re-acquirable through the blocking path, repeatedly.
  Cluster cl(dsm_cfg(2, 1));
  GlobalMcsLock lock(cl);
  int acquisitions = 0;
  cl.run([&](Thread& t) {
    for (int k = 0; k < 10; ++k) {
      if (lock.try_acquire_for(t, 1u << 22)) {
        ++acquisitions;
        t.compute(300);
        lock.release(t);
      }
      t.compute(200);
    }
  });
  EXPECT_EQ(acquisitions, 20);
}

TEST(Hqdl, TryExecuteRunsOrFailsCleanly) {
  Cluster cl(dsm_cfg(4, 4));
  HqdLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  const int iters = 10;
  std::uint64_t executed = 0;
  cl.run([&](Thread& t) {
    for (int k = 0; k < iters; ++k) {
      const bool ran = lock.try_execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, /*timeout=*/1u << 26);
      if (ran) ++executed;
      t.compute(200);
    }
  });
  // A generous timeout must execute everything — and the counter must
  // agree exactly with the number of reported successes.
  EXPECT_EQ(executed, 16u * iters);
  EXPECT_EQ(*cl.host_ptr(ctr), executed);
}

TEST(Hqdl, TryExecuteTimesOutWithoutStrandingEntries) {
  Cluster cl(dsm_cfg(2, 2));
  HqdLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  std::uint64_t succeeded = 0, failed = 0;
  cl.run([&](Thread& t) {
    if (t.node() == 0 && t.tid() == 0) {
      // Hog the lock with one long critical section.
      lock.execute(t, [&](Thread& exec) { exec.compute(300000); },
                   /*wait=*/true);
    } else {
      t.compute(2000);  // let the hog start first
      const bool ran = lock.try_execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, /*timeout=*/5000);
      if (ran) ++succeeded; else ++failed;
    }
  });
  // Tight timeout while the lock is hogged: some threads must fail, and
  // every reported success must be reflected in the counter — a timed-out
  // entry never executes later.
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(*cl.host_ptr(ctr), succeeded);
}

TEST(DsmMutex, TimedLockHonorsTimeoutAndFences) {
  Cluster cl(dsm_cfg(2, 1));
  DsmMutex lock(cl);
  auto data = cl.alloc<std::uint64_t>(1);
  bool n1_first_try = true;
  std::uint64_t n1_read = 0;
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      lock.lock(t);
      t.store(data, std::uint64_t{41});
      t.compute(100000);
      t.store(data, std::uint64_t{42});
      lock.unlock(t);
    } else {
      t.compute(2000);
      n1_first_try = lock.try_lock_for(t, 5000);  // held: must time out
      if (!n1_first_try && lock.try_lock_for(t, 1u << 22)) {
        n1_read = t.load(data);  // SI fence ran: sees node 0's release
        lock.unlock(t);
      }
    }
  });
  EXPECT_FALSE(n1_first_try);
  EXPECT_EQ(n1_read, 42u);
}

// ---------------------------------------------------------------------------
// Scheduler-side local-spin polls (Thread::atomic_poll over Engine::poll):
// the fast paths against the ARGO_SLOW_PATHS=1 literal loop, lock by lock.
// ---------------------------------------------------------------------------

// Restores the process-wide slow-path toggle on scope exit.
struct SlowGuard {
  bool prev = argosim::slow_paths();
  ~SlowGuard() { argosim::set_slow_paths(prev); }
};

// Everything the identity contract covers, plus the host step counter.
struct LockObs {
  Time elapsed = 0;
  std::uint64_t result = 0;
  std::vector<std::string> counters;  // every non-sim.* Cluster counter
  std::vector<std::uint8_t> trace;    // ARGOTRC1 bytes
  std::uint64_t poll_steps = 0;
};

LockObs observe(Cluster& cl, Time elapsed, std::uint64_t result) {
  LockObs o;
  o.elapsed = elapsed;
  o.result = result;
  for (const auto& c : cl.stats().counters) {
    if (c.name == "sim.poll_steps") o.poll_steps = c.value;
    // sim.* are host-side scheduler diagnostics, outside the contract.
    if (c.name.rfind("sim.", 0) != 0)
      o.counters.push_back(c.name + "=" + std::to_string(c.value));
  }
  o.trace = argoobs::encode_binary(cl.tracer().snapshot(),
                                   cl.tracer().dropped());
  return o;
}

void expect_same_run(const LockObs& slow, const LockObs& fast,
                     const std::string& label) {
  EXPECT_EQ(slow.elapsed, fast.elapsed) << label;
  EXPECT_EQ(slow.result, fast.result) << label;
  EXPECT_EQ(slow.counters, fast.counters) << label;
  EXPECT_EQ(slow.trace, fast.trace) << label;
  EXPECT_EQ(slow.poll_steps, 0u) << label;
  EXPECT_GT(fast.poll_steps, 0u) << label;  // the fast path was taken
}

enum class DsmLockKind { Hqdl, Mutex, Cohort };

LockObs run_contended(DsmLockKind kind, int nodes, bool slow) {
  SlowGuard guard;
  argosim::set_slow_paths(slow);
  ClusterConfig cfg = dsm_cfg(nodes, 2);
  cfg.trace.enabled = true;
  Cluster cl(cfg);
  auto ctr = cl.alloc<std::uint64_t>(1);
  std::optional<HqdLock> hqdl;
  std::optional<DsmMutex> mutex;
  std::optional<DsmCohortLock> cohort;
  switch (kind) {
    case DsmLockKind::Hqdl: hqdl.emplace(cl); break;
    case DsmLockKind::Mutex: mutex.emplace(cl); break;
    case DsmLockKind::Cohort: cohort.emplace(cl, /*cohort_limit=*/2); break;
  }
  const Time elapsed = cl.run([&](Thread& t) {
    auto cs = [&](Thread& th) {
      th.store(ctr, th.load(ctr) + 1);
      th.compute(300);
    };
    for (int k = 0; k < 6; ++k) {
      switch (kind) {
        case DsmLockKind::Hqdl: hqdl->execute(t, cs, /*wait=*/true); break;
        case DsmLockKind::Mutex:
          mutex->lock(t);
          cs(t);
          mutex->unlock(t);
          break;
        case DsmLockKind::Cohort: cohort->execute(t, cs); break;
      }
      t.compute(100 + static_cast<Time>((37 * t.gid() + 11 * k) % 200));
    }
  });
  return observe(cl, elapsed, *cl.host_ptr(ctr));
}

TEST(PollSteps, LocksAreBitIdenticalToTheLiteralSpin) {
  const std::pair<DsmLockKind, const char*> kinds[] = {
      {DsmLockKind::Hqdl, "hqdl"},
      {DsmLockKind::Mutex, "mutex"},
      {DsmLockKind::Cohort, "cohort"}};
  for (const auto& [kind, name] : kinds) {
    for (const int nodes : {4, 8}) {
      const std::string label =
          std::string(name) + " nodes=" + std::to_string(nodes);
      const LockObs slow = run_contended(kind, nodes, /*slow=*/true);
      const LockObs fast = run_contended(kind, nodes, /*slow=*/false);
      EXPECT_EQ(fast.result, static_cast<std::uint64_t>(nodes) * 2u * 6u)
          << label;
      ASSERT_GT(fast.trace.size(), 32u) << label;
      expect_same_run(slow, fast, label);
    }
  }
}

// A queued waiter's node crashes while the holder keeps the lock. The
// holder's release finds its successor declared dead and force-resets the
// queue, so the live waiter queued behind it reads kRestart out of its
// scheduler-side poll and re-contends. Replays bit-identically, fast or
// slow, run after run.
LockObs run_queued_waiter_crash(bool slow) {
  SlowGuard guard;
  argosim::set_slow_paths(slow);
  ClusterConfig cfg = dsm_cfg(4, 1);
  cfg.trace.enabled = true;
  cfg.faults.enabled = true;  // crash schedules ride the fault channel
  cfg.faults.seed = 7;
  cfg.membership.enabled = true;
  cfg.faults.crashes.push_back(argonet::CrashEvent{.node = 2, .at = 300'000});
  Cluster cl(cfg);
  auto ctr = cl.alloc<std::uint64_t>(1);
  DsmMutex lock(cl);
  const Time elapsed = cl.run([&](Thread& t) {
    // Node 1 takes the lock first and holds it past the crash and its
    // detection; nodes 2, 3 and 0 queue behind it in that order.
    const Time arrive[] = {60'000, 0, 20'000, 40'000};
    t.compute(arrive[t.node()]);
    lock.lock(t);
    t.store(ctr, t.load(ctr) + 1);
    if (t.node() == 1) t.compute(1'000'000);
    lock.unlock(t);
  });
  LockObs o = observe(cl, elapsed, *cl.host_ptr(ctr));
  EXPECT_EQ(cl.membership().stats().deaths, 1u);
  EXPECT_GE(cl.membership().lock_epoch(), 1u);  // the forced queue reset
  return o;
}

TEST(PollSteps, QueuedWaiterCrashRestartReplaysBitIdentically) {
  const LockObs slow = run_queued_waiter_crash(/*slow=*/true);
  const LockObs fast = run_queued_waiter_crash(/*slow=*/false);
  EXPECT_EQ(fast.result, 3u);  // every live node got the lock once
  expect_same_run(slow, fast, "queued waiter crash");
  const LockObs again = run_queued_waiter_crash(/*slow=*/false);
  EXPECT_EQ(again.elapsed, fast.elapsed);
  EXPECT_EQ(again.counters, fast.counters);
  EXPECT_EQ(again.trace, fast.trace);
  EXPECT_EQ(again.poll_steps, fast.poll_steps);
}

// DsmFlag waiters: the flag is homed on node 0, so node 0's waiter polls
// it as scheduler-side steps while every other node's keeps the plain
// remote-read loop. Both kinds must see the same values at the same times.
LockObs run_flag_waits(bool slow) {
  SlowGuard guard;
  argosim::set_slow_paths(slow);
  ClusterConfig cfg = dsm_cfg(4, 2);
  cfg.trace.enabled = true;
  Cluster cl(cfg);
  DsmFlag flag(cl);
  auto data = cl.alloc<std::uint64_t>(1);
  std::uint64_t seen = 0;
  const Time elapsed = cl.run([&](Thread& t) {
    if (t.gid() == 3) {  // the signaller, on node 1
      for (std::uint64_t round = 1; round <= 4; ++round) {
        t.compute(7'000 + 1'300 * round);
        t.store(data, round * 10);
        flag.set(t, round);
      }
      return;
    }
    for (std::uint64_t round = 1; round <= 4; ++round) {
      const std::uint64_t v = flag.wait(t, round);
      seen += v * 100 + t.load(data);
      t.compute(static_cast<Time>(50 * t.gid()));
    }
  });
  return observe(cl, elapsed, seen);
}

TEST(PollSteps, DsmFlagWaitIsBitIdenticalToTheLiteralSpin) {
  const LockObs slow = run_flag_waits(/*slow=*/true);
  const LockObs fast = run_flag_waits(/*slow=*/false);
  ASSERT_GT(fast.trace.size(), 32u);
  expect_same_run(slow, fast, "dsm flag");
}

// The setter's store to a flag homed on the waiter's node completes
// exactly on one of the waiter's probe instants. In the literal loop the
// store wins that tie (its wake was queued first on the legacy engine; it
// is an effect on the sharded one), so the waiter must see the flag at
// that very probe.
struct FlagTie {
  Time start = 0;   // waiter enters wait()
  Time stored = 0;  // setter's store completes
  Time woke = 0;    // waiter returns from wait()
  LockObs obs;
};

FlagTie run_flag_tie(int engine_threads, Time lead, bool slow) {
  SlowGuard guard;
  argosim::set_slow_paths(slow);
  ClusterConfig cfg = dsm_cfg(2, 1);
  cfg.trace.enabled = true;
  cfg.engine_threads = engine_threads;
  Cluster cl(cfg);
  DsmFlag flag(cl);
  FlagTie r;
  std::uint64_t seen = 0;
  const Time elapsed = cl.run([&](Thread& t) {
    if (t.node() == 0) {
      r.start = t.now();
      seen = flag.wait(t, 1);
      r.woke = t.now();
    } else {
      t.compute(1'000 + lead);
      flag.set(t, 1);
      r.stored = t.now();
    }
  });
  r.obs = observe(cl, elapsed, seen);
  return r;
}

TEST(PollSteps, DsmFlagStoreOnAProbeInstantIsSeenThere) {
  const ClusterConfig cfg = dsm_cfg(2, 1);
  const Time read = cfg.net.mem_latency + cfg.net.mem_copy(8);
  const Time period = read + 500;  // DsmFlag::wait's backoff
  for (const int threads : {0, 1, 2}) {
    const std::string label = "engine_threads " + std::to_string(threads);
    // Shift the store onto the first probe instant after it.
    const FlagTie base = run_flag_tie(threads, 0, /*slow=*/true);
    ASSERT_GT(base.stored, base.start + read) << label;
    const Time lead = period - (base.stored - base.start - read) % period;
    const FlagTie slow = run_flag_tie(threads, lead, /*slow=*/true);
    const FlagTie fast = run_flag_tie(threads, lead, /*slow=*/false);
    ASSERT_EQ((slow.stored - slow.start - read) % period, 0u) << label;
    EXPECT_EQ(slow.obs.result, 1u) << label;
    // Seen at the tied probe: as early as a store one nanosecond earlier.
    const FlagTie earlier = run_flag_tie(threads, lead - 1, /*slow=*/true);
    EXPECT_EQ(earlier.woke, slow.woke) << label;
    EXPECT_EQ(fast.stored, slow.stored) << label;
    EXPECT_EQ(fast.woke, slow.woke) << label;
    expect_same_run(slow.obs, fast.obs, label);
  }
}

}  // namespace
}  // namespace argosync
