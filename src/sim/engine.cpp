#include "sim/engine.hpp"

#include <ucontext.h>

#include "sim/slowpath.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <limits>
#include <sstream>

// AddressSanitizer needs to be told about stack switches, otherwise its
// stack bookkeeping (fake stacks, use-after-return detection) corrupts as
// fibers swap. Each swapcontext call site is bracketed with the
// start/finish pair; the annotations compile away in normal builds.
#if defined(__SANITIZE_ADDRESS__)
#define ARGO_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ARGO_ASAN_FIBERS 1
#endif
#endif
#if defined(ARGO_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer likewise needs to be told about fiber switches: it keeps
// one shadow stack + vector clock per execution context, so every
// swapcontext must be preceded by __tsan_switch_to_fiber or TSan reports
// wild races between fibers that share an OS thread (ARGO_TSAN builds).
#if defined(__SANITIZE_THREAD__)
#define ARGO_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ARGO_TSAN_FIBERS 1
#endif
#endif
#if defined(ARGO_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

#include "sim/fcontext.hpp"

// The hand-rolled assembly switch (sim/fcontext.S) is the fast path on
// supported architectures. Sanitizer builds keep ucontext: ASan and TSan
// track fiber stacks through the annotations bracketing swapcontext, and
// neither understands a stack pointer that moves without them. At runtime
// ARGO_SLOW_PATHS=1 also pins new fibers to ucontext (the seed reference),
// which is how the bit-identity suite gets a syscall-path oracle.
#if defined(ARGO_FCONTEXT_SUPPORTED) && !defined(ARGO_ASAN_FIBERS) && \
    !defined(ARGO_TSAN_FIBERS)
#define ARGO_USE_FCONTEXT 1
#endif

namespace argosim {

namespace {

thread_local Engine* g_engine = nullptr;
thread_local SimThread* g_thread = nullptr;

// The context the scheduler loop runs in. Each host worker owns its own
// scheduler context, so a thread_local slot is sufficient — and static
// shard-to-worker pinning guarantees a fiber only ever swaps with the one
// scheduler context it started against.
thread_local ucontext_t g_sched_ctx;

constexpr std::uint32_t kNoShard = 0xffffffffu;
thread_local std::uint32_t g_shard_idx = kNoShard;

#if defined(ARGO_USE_FCONTEXT)
// The suspended scheduler context while an fcontext fiber runs. Handles
// are one-shot (every jump re-captures the jumper), so both sides refresh
// this slot on each switch. One slot per host worker suffices for the same
// reason as g_sched_ctx: exactly one fiber runs per worker, and shard
// pinning keeps a fiber on the worker it started on.
thread_local fctx_t g_sched_fctx = nullptr;
#endif

inline void cpu_pause() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// makecontext() only passes ints; smuggle the SimThread* through two halves.
void pack_ptr(SimThread* t, unsigned& hi, unsigned& lo) {
  auto p = reinterpret_cast<std::uintptr_t>(t);
  hi = static_cast<unsigned>(p >> 32);
  lo = static_cast<unsigned>(p & 0xffffffffu);
}

SimThread* unpack_ptr(unsigned hi, unsigned lo) {
  auto p = (static_cast<std::uintptr_t>(hi) << 32) | lo;
  return reinterpret_cast<SimThread*>(p);
}

#if defined(ARGO_ASAN_FIBERS)
// Bounds of the scheduler's (OS thread's) stack, learned from ASan the
// first time a fiber runs; needed to annotate fiber -> scheduler switches.
thread_local const void* g_sched_stack_bottom = nullptr;
thread_local std::size_t g_sched_stack_size = 0;
#endif

#if defined(ARGO_TSAN_FIBERS)
// TSan context of the scheduler loop's own execution (one per host
// worker, captured on each scheduler -> fiber switch); fibers switch TSan
// back to it before swapping out. Shard-to-worker pinning guarantees a
// fiber always returns to the same worker's scheduler.
thread_local void* g_tsan_sched_fiber = nullptr;
#endif

}  // namespace

struct SimThread::Impl {
  ucontext_t ctx{};
  std::unique_ptr<char[]> stack;
  std::size_t stack_size = 0;
  bool started = false;
  // fcontext backend (engine fast path): the fiber's suspended context.
  // The backend is fixed at first start — a fiber begun on one switch
  // mechanism must keep using it for life, so flipping ARGO_SLOW_PATHS
  // mid-run only affects fibers started afterwards.
  void* fctx = nullptr;
  bool use_fctx = false;
  std::exception_ptr error;
#if defined(ARGO_TSAN_FIBERS)
  void* tsan_fiber = nullptr;
  ~Impl() {
    if (tsan_fiber != nullptr) __tsan_destroy_fiber(tsan_fiber);
  }
#endif
};

SimThread::SimThread(Engine* eng, std::uint64_t id, std::string name,
                     std::function<void()> body,
                     std::unique_ptr<char[]> stack, std::size_t stack_size,
                     bool daemon)
    : impl_(std::make_unique<Impl>()),
      engine_(eng),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon) {
  impl_->stack_size = stack_size;
  impl_->stack = std::move(stack);
}

SimThread::~SimThread() = default;

Engine::Engine() = default;

Engine::~Engine() { shutdown(); }

Time Engine::now() const {
  if (sharded_ && g_engine == this && g_shard_idx != kNoShard)
    return shards_[g_shard_idx]->clock;
  return now_;
}

std::uint32_t Engine::current_shard() { return g_shard_idx; }

void Engine::enable_sharding(std::uint32_t shards, Time l,
                             std::uint32_t workers) {
  assert(threads_.empty() && "enable_sharding must precede any spawn");
  assert(shards > 0);
  sharded_ = true;
  lookahead_ = l > 0 ? l : 1;
  if (workers < 1) workers = 1;
  workers_ = std::min<std::uint32_t>(workers, shards);
  shards_.clear();
  for (std::uint32_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->clock = now_;
  }
}

void Engine::require_serial(const char* why) const {
  if (!sharded_) return;
  throw std::logic_error(
      std::string("argosim: ") + why +
      " needs same-time cross-shard wakeups and cannot run on the sharded "
      "engine; unset ARGO_THREADS/ARGO_SEQ_ENGINE for this workload");
}

void Engine::shutdown() {
  // Unwind any fibers that are still alive (typically daemon message
  // handlers) so their stacks and captures are destroyed properly.
  // A fiber parked in poll() keeps its live lane entry: with
  // stop_requested_ set, popping it resumes the fiber, which unwinds.
  for (auto& t : threads_) {
    if (!t->finished_) {
      t->stop_requested_ = true;
      if (t->blocked_) {
        t->blocked_ = false;
        make_runnable(t.get(),
                      sharded_ ? shards_[t->shard_]->clock : now_);
      }
    }
  }
  if (sharded_) {
    // Unbounded windows until no effect is left to route. Each shard
    // drains on the worker that runs it in every window: a fiber must
    // resume on the host thread it started on, whose scheduler context
    // (and, under the sanitizers, fiber bookkeeping) it switched away from.
    window_end_.store(std::numeric_limits<Time>::max(),
                      std::memory_order_relaxed);
    do {
      route_outboxes();
      for (auto& sp : shards_) sp->error = nullptr;  // dropped at shutdown
      run_windows();
    } while (std::any_of(shards_.begin(), shards_.end(),
                         [](const auto& sp) { return !sp->outbox.empty(); }));
    for (auto& sp : shards_) sp->error = nullptr;
    stop_pool();
    return;
  }
  std::uint64_t pops = 0;  // shutdown traffic is not counted
  for (;;) {
    const QueueEntry lim = queue_limit(0);
    SimThread* t = run_lane(lane_, now_, pops, lim);
    if (t == nullptr) {
      if (lim.thread == nullptr) break;
      runq_.pop();
      t = lim.thread;
      t->queued_ = false;
      now_ = std::max(now_, lim.when);
    }
    try {
      switch_to(t);
    } catch (...) {
      // Destructor must not throw; errors during shutdown are dropped.
    }
  }
}

Engine* Engine::current() { return g_engine; }
SimThread* Engine::current_thread() { return g_thread; }

SimThread* Engine::spawn(std::string name, std::function<void()> body,
                         bool daemon, std::size_t stack_size) {
  std::uint32_t shard = 0;
  if (sharded_ && g_thread != nullptr && g_thread->engine_ == this)
    shard = g_thread->shard_;  // inherit the spawner's shard
  return spawn_on(shard, std::move(name), std::move(body), daemon,
                  stack_size);
}

SimThread* Engine::spawn_on(std::uint32_t shard, std::string name,
                            std::function<void()> body, bool daemon,
                            std::size_t stack_size) {
  if (sharded_ && in_window_)
    throw std::logic_error(
        "argosim: spawn during a parallel window is not supported; spawn "
        "between runs instead");
  std::unique_ptr<char[]> stack;
#if !defined(ARGO_ASAN_FIBERS)
  // Recycle a finished fiber's stack rather than freeing and re-mapping
  // one per spawn. Only default-size stacks are pooled (odd sizes are rare
  // enough not to matter). ASan builds always allocate fresh: its shadow
  // poisoning from a dead fiber's frames may outlive the fiber. Sharded
  // runs reap on worker threads, so the pool stays off there too.
  if (!slow_paths() && !sharded_ && stack_size == default_stack_size &&
      !stack_pool_.empty()) {
    stack = std::move(stack_pool_.back());
    stack_pool_.pop_back();
    ++stacks_reused_;
  }
#endif
  if (!stack) stack = std::make_unique<char[]>(stack_size);
  auto t = std::unique_ptr<SimThread>(
      new SimThread(this, next_id_++, std::move(name), std::move(body),
                    std::move(stack), stack_size, daemon));
  SimThread* raw = t.get();
  if (sharded_) {
    assert(shard < shards_.size());
    raw->shard_ = shard;
  }
  threads_.push_back(std::move(t));
  ++spawned_;
  if (daemon)
    live_daemon_.fetch_add(1, std::memory_order_relaxed);
  else
    live_nondaemon_.fetch_add(1, std::memory_order_relaxed);
  // Between sharded runs a shard's clock may sit ahead of the committed
  // global clock (daemon events inside the final lookahead window); keep
  // per-shard time monotone by spawning no earlier than the shard clock.
  Time when = now_;
  if (sharded_ && shards_[shard]->clock > when) when = shards_[shard]->clock;
  make_runnable(raw, when);
  return raw;
}

void Engine::push_entry(EventQueue<QueueEntry>& q, std::size_t& dead,
                        QueueEntry e) {
  // A fiber has at most one live entry: pushing a new one stales any
  // previous entry (its token no longer matches).
  if (e.thread->queued_) ++dead;
  e.thread->queued_ = true;
  q.push(e);
  if (dead > q.size() / 2 && q.size() > 64) compact(q, dead);
}

void Engine::compact(EventQueue<QueueEntry>& q, std::size_t& dead) {
  const std::size_t removed = q.compact(&Engine::stale);
  runq_purged_.fetch_add(removed, std::memory_order_relaxed);
  dead = 0;
}

const Engine::QueueEntry* Engine::live_top(EventQueue<QueueEntry>& q,
                                           std::size_t& dead) {
  for (; !q.empty(); q.pop()) {
    if (!stale(q.top())) return &q.top();
    if (dead > 0) --dead;
  }
  return nullptr;
}

// The poll-step path (PollLane::push/top, push_step, try_fast_forward,
// poll_advance, run_poll_step) is declared inline so that run_lane's loop
// compiles into one function: a step costs tens of nanoseconds, and the
// calls between these helpers were a measurable part of that.

std::size_t Engine::PollLane::fifo(Time delay) {
  std::size_t i = 0;
  while (i < fifos_.size() && fifos_[i].delay != delay) ++i;
  if (i == fifos_.size())
    fifos_.push_back(Fifo{delay, std::vector<QueueEntry>(16)});
  return i;
}

inline void Engine::PollLane::push(std::size_t i, const QueueEntry& e) {
  Fifo& f = fifos_[i];
  if (f.size == f.ring.size()) {  // full: unroll into a ring twice as big
    std::vector<QueueEntry> bigger(2 * f.size);
    for (std::size_t k = 0; k < f.size; ++k)
      bigger[k] = f.ring[(f.head + k) & (f.size - 1)];
    f.ring.swap(bigger);
    f.head = 0;
  }
  f.ring[(f.head + f.size++) & (f.ring.size() - 1)] = e;
  // Only a new head can change the minimum.
  if (f.size == 1 && min_ != kNone && fifos_[min_].front() > e) min_ = i;
}

inline const Engine::QueueEntry* Engine::PollLane::top() {
  for (;;) {
    if (min_ == kNone) {
      for (std::size_t i = 0; i < fifos_.size(); ++i)
        if (fifos_[i].size != 0 &&
            (min_ == kNone || fifos_[min_].front() > fifos_[i].front()))
          min_ = i;
      if (min_ == kNone) return nullptr;
    }
    if (!stale(fifos_[min_].front())) return &fifos_[min_].front();
    pop();
  }
}

Engine::QueueEntry Engine::queue_limit(std::uint32_t shard) {
  constexpr Time kNever = std::numeric_limits<Time>::max();
  if (!sharded_) {
    const QueueEntry* r = live_top(runq_, runq_dead_);
    return r ? *r : QueueEntry{kNever, 0, nullptr, 0};
  }
  Shard& s = *shards_[shard];
  QueueEntry lim{window_end_.load(std::memory_order_relaxed), 0, nullptr, 0};
  if (!s.effq.empty() && s.effq.top().when < lim.when)
    lim.when = s.effq.top().when;
  if (const QueueEntry* r = live_top(s.runq, s.dead); r && lim > *r) lim = *r;
  return lim;
}

inline void Engine::push_step(SimThread* t, Time d, std::size_t fifo) {
  // Like make_runnable, minus queued_: that flag tracks run-queue entries
  // only, and a kill's token bump is all a lane entry needs to go stale.
  if (sharded_) {
    Shard& s = *shards_[t->shard_];
    ++s.pushes;
    s.lane.push(fifo,
                QueueEntry{s.clock + d, s.next_seq++, t, ++t->wake_token_});
    return;
  }
  ++runq_pushes_;
  lane_.push(fifo, QueueEntry{now_ + d, next_seq_++, t, ++t->wake_token_});
}

SimThread* Engine::run_lane(PollLane& lane, Time& clock, std::uint64_t& pops,
                            const QueueEntry& lim) {
  while (const QueueEntry* l = lane.top()) {
    if (!(lim > *l)) return nullptr;
    SimThread* t = l->thread;
    assert(l->when >= clock);
    clock = l->when;
    lane.pop();
    ++pops;
    if (t->stop_requested_ || run_poll_step(t, lim.when)) return t;
  }
  return nullptr;
}

void Engine::make_runnable(SimThread* t, Time when) {
  assert(!t->finished_);
  if (sharded_) {
    if (in_window_ && g_shard_idx != t->shard_)
      throw std::logic_error(
          "argosim: same-time cross-shard wakeup of fiber '" + t->name_ +
          "' is not supported by the sharded engine; route it through the "
          "interconnect or run without ARGO_THREADS/ARGO_SEQ_ENGINE");
    Shard& s = *shards_[t->shard_];
    ++s.pushes;
    push_entry(s.runq, s.dead,
               QueueEntry{when, s.next_seq++, t, ++t->wake_token_});
    return;
  }
  // Bumping the wake token invalidates any entry already queued for this
  // thread (e.g. the timeout entry of a timed wait that got notified first).
  ++runq_pushes_;
  push_entry(runq_, runq_dead_,
             QueueEntry{when, next_seq_++, t, ++t->wake_token_});
}

void Engine::fiber_main(unsigned hi, unsigned lo) {
  SimThread* t = unpack_ptr(hi, lo);
#if defined(ARGO_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
#endif
  try {
    if (t->stop_requested_) throw SimStopped{};
    t->body_();
  } catch (const SimStopped&) {
    // clean shutdown of a parked fiber
  } catch (...) {
    t->impl_->error = std::current_exception();
  }
  t->finished_ = true;
  t->body_ = nullptr;
  // Hand control back to the scheduler loop for good.
#if defined(ARGO_ASAN_FIBERS)
  // nullptr fake-stack slot: this fiber is exiting, release its fake stack.
  __sanitizer_start_switch_fiber(nullptr, g_sched_stack_bottom,
                                 g_sched_stack_size);
#endif
#if defined(ARGO_TSAN_FIBERS)
  __tsan_switch_to_fiber(g_tsan_sched_fiber, 0);
#endif
  swapcontext(&t->impl_->ctx, &g_sched_ctx);
}

// fcontext flavor of fiber_main: the first jump into a made context lands
// here with the suspending scheduler as `from`. Exits by jumping to the
// scheduler for good — never returns.
void Engine::fiber_main_fctx(void* from, void* data) {
#if defined(ARGO_USE_FCONTEXT)
  g_sched_fctx = from;
  SimThread* t = static_cast<SimThread*>(data);
  try {
    if (t->stop_requested_) throw SimStopped{};
    t->body_();
  } catch (const SimStopped&) {
    // clean shutdown of a parked fiber
  } catch (...) {
    t->impl_->error = std::current_exception();
  }
  t->finished_ = true;
  t->body_ = nullptr;
  argo_fctx_jump(g_sched_fctx, nullptr);
#else
  (void)from;
  (void)data;
#endif
}

const char* Engine::context_backend() {
#if defined(ARGO_USE_FCONTEXT)
  return slow_paths() ? "ucontext" : "fcontext";
#else
  return "ucontext";
#endif
}

// Fiber stacks are separate page-aligned allocations, so their top frames
// (a parked poller's PollState and callbacks, which every poll step reads)
// would all share one set of L1 lines. Starting each fiber's stack a
// per-fiber number of cache lines lower spreads them over every set.
std::size_t Engine::colored_stack_size(const SimThread* t) {
  return t->impl_->stack_size - (t->id_ % 64) * 64;
}

void Engine::switch_to(SimThread* t) {
  Engine* prev_engine = g_engine;
  SimThread* prev_thread = g_thread;
  g_engine = this;
  g_thread = t;
  if (!sharded_) running_ = t;
  if (g_shard_idx != kNoShard)
    ++shards_[g_shard_idx]->switches;
  else
    ++switches_;

  if (!t->impl_->started) {
    t->impl_->started = true;
#if defined(ARGO_USE_FCONTEXT)
    if (!slow_paths()) {
      t->impl_->use_fctx = true;
      t->impl_->fctx =
          argo_fctx_make(t->impl_->stack.get(), colored_stack_size(t),
                         &Engine::fiber_main_fctx);
    }
#endif
    if (!t->impl_->use_fctx) {
      getcontext(&t->impl_->ctx);
      t->impl_->ctx.uc_stack.ss_sp = t->impl_->stack.get();
      t->impl_->ctx.uc_stack.ss_size = colored_stack_size(t);
      t->impl_->ctx.uc_link = &g_sched_ctx;
      unsigned hi, lo;
      pack_ptr(t, hi, lo);
      makecontext(&t->impl_->ctx,
                  reinterpret_cast<void (*)()>(&Engine::fiber_main), 2, hi,
                  lo);
    }
  }
#if defined(ARGO_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, t->impl_->stack.get(),
                                 t->impl_->stack_size);
#endif
#if defined(ARGO_TSAN_FIBERS)
  if (t->impl_->tsan_fiber == nullptr)
    t->impl_->tsan_fiber = __tsan_create_fiber(0);
  g_tsan_sched_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(t->impl_->tsan_fiber, 0);
#endif
#if defined(ARGO_USE_FCONTEXT)
  if (t->impl_->use_fctx) {
    // The jump returns once the fiber suspends (yield or exit); its handle
    // was re-captured by that suspending jump.
    FctxTransfer tr = argo_fctx_jump(t->impl_->fctx, t);
    t->impl_->fctx = tr.fctx;
  } else
#endif
    swapcontext(&g_sched_ctx, &t->impl_->ctx);
#if defined(ARGO_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif

  if (!sharded_) running_ = nullptr;
  g_engine = prev_engine;
  g_thread = prev_thread;

  if (t->finished_) reap_finished_one(t);
}

void Engine::reap_finished_one(SimThread* t) {
#if !defined(ARGO_ASAN_FIBERS)
  // The fiber has swapped back to the scheduler for good — its stack is
  // dead and can serve the next spawn (legacy engine only: sharded runs
  // reap on worker threads and the pool is unsynchronized).
  if (!slow_paths() && !sharded_ &&
      t->impl_->stack_size == default_stack_size && t->impl_->stack)
    stack_pool_.push_back(std::move(t->impl_->stack));
#endif
  if (t->daemon_) {
    live_daemon_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    live_nondaemon_.fetch_sub(1, std::memory_order_relaxed);
    if (sharded_) {
      Time fin = shards_[t->shard_]->clock;
      Time cur = finish_max_.load(std::memory_order_relaxed);
      while (fin > cur && !finish_max_.compare_exchange_weak(
                              cur, fin, std::memory_order_relaxed)) {
      }
    }
  }
  if (t->impl_->error) {
    std::exception_ptr err = t->impl_->error;
    t->impl_->error = nullptr;
    std::rethrow_exception(err);
  }
}

void Engine::switch_to_scheduler() {
  SimThread* self = g_thread;
  assert(self && "must be called from inside a simulated thread");
#if defined(ARGO_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, g_sched_stack_bottom,
                                 g_sched_stack_size);
#endif
#if defined(ARGO_TSAN_FIBERS)
  __tsan_switch_to_fiber(g_tsan_sched_fiber, 0);
#endif
#if defined(ARGO_USE_FCONTEXT)
  if (self->impl_->use_fctx) {
    // On resumption the scheduler has just suspended into us again;
    // refresh its handle for the next yield.
    FctxTransfer tr = argo_fctx_jump(g_sched_fctx, nullptr);
    g_sched_fctx = tr.fctx;
  } else
#endif
    swapcontext(&self->impl_->ctx, &g_sched_ctx);
#if defined(ARGO_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
#endif
  if (self->stop_requested_) throw SimStopped{};
}

inline bool Engine::try_fast_forward(SimThread* self, Time when, Time bound) {
  // In sharded mode `bound` also covers the lookahead window (the shard
  // may not run past window_end_) and a pending effect at `when`.
  if (when >= bound) return false;
  PollLane& lane = sharded_ ? shards_[self->shard_]->lane : lane_;
  if (const QueueEntry* l = lane.top(); l != nullptr && when >= l->when)
    return false;
  // A running fiber never has a live queue entry (make_runnable
  // invalidates prior ones and the scheduler consumed the one that
  // resumed us), so skipping the push/pop leaves no state behind.
  (sharded_ ? shards_[self->shard_]->clock : now_) = when;
  fast_forwards_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Engine::delay(Time ns) {
  SimThread* self = g_thread;
  assert(self && "delay() outside a simulated thread");
  assert(self->poll_ == nullptr && "poll callbacks must not advance time");
  const Time when = (sharded_ ? shards_[self->shard_]->clock : now_) + ns;
  // Same-fiber fast-forward: if no other runnable fiber is due strictly
  // before `when`, the scheduler would pop our own entry next and hand
  // control straight back — so advance the clock in place and keep
  // running, skipping the two context switches. Ties go to the queued
  // entry: our entry would carry the larger seq, which preserves the
  // round-robin fairness of yield(). A stopping fiber must reach
  // switch_to_scheduler to unwind (SimStopped).
  if (!slow_paths() && !self->stop_requested_ &&
      try_fast_forward(self, when, queue_limit(self->shard_).when))
    return;
  make_runnable(self, when);
  switch_to_scheduler();
}

void Engine::poll_impl(PollState& p) {
  SimThread* self = g_thread;
  assert(self && "poll() outside a simulated thread");
  if (slow_paths() || self->stop_requested_) {
    for (;;) {
      p.issue(p.issue_ctx);
      delay(p.read_cost);
      if (p.probe(p.probe_ctx)) return;
      delay(p.backoff);
    }
  }
  // The steps before the first queued one run here in the fiber, exactly
  // as the literal loop's fast-forwarded delays would; from then on the
  // scheduler runs them (run_poll_step) and resumes us only to return.
  struct Clear {
    SimThread* t;
    ~Clear() { t->poll_ = nullptr; }
  } clear{self};
  self->poll_ = &p;
  PollLane& lane = sharded_ ? shards_[self->shard_]->lane : lane_;
  p.read_fifo = lane.fifo(p.read_cost);
  p.backoff_fifo = lane.fifo(p.backoff);
  if (poll_advance(self, p, queue_limit(self->shard_).when)) return;
  switch_to_scheduler();  // throws SimStopped if we were killed meanwhile
  if (p.error) std::rethrow_exception(p.error);
}

inline bool Engine::poll_advance(SimThread* t, PollState& p, Time bound) {
  for (;;) {
    Time d;
    std::size_t fifo;
    if (p.reading) {
      if (p.probe(p.probe_ctx)) return true;
      d = p.backoff;
      fifo = p.backoff_fifo;
    } else {
      p.issue(p.issue_ctx);
      d = p.read_cost;
      fifo = p.read_fifo;
    }
    p.reading = !p.reading;
    const Time when = (sharded_ ? shards_[t->shard_]->clock : now_) + d;
    if (!try_fast_forward(t, when, bound)) {
      push_step(t, d, fifo);
      return false;
    }
  }
}

inline bool Engine::run_poll_step(SimThread* t, Time bound) {
  if (g_shard_idx != kNoShard)
    ++shards_[g_shard_idx]->poll_steps;
  else
    ++poll_steps_;
  // The callbacks see the fiber's context (now(), current_thread()), as
  // they would running inside it.
  Engine* prev_engine = g_engine;
  SimThread* prev_thread = g_thread;
  g_engine = this;
  g_thread = t;
  bool resume;
  try {
    resume = poll_advance(t, *t->poll_, bound);
  } catch (...) {
    t->poll_->error = std::current_exception();  // rethrown in the fiber
    resume = true;
  }
  g_engine = prev_engine;
  g_thread = prev_thread;
  return resume;
}

void Engine::kill(SimThread* t) {
  if (t == nullptr || t->finished_) return;
  assert(t != running_ && "a fiber must not kill itself");
  t->stop_requested_ = true;
  // Wake it immediately wherever it is parked (WaitQueue, timed wait, or a
  // future run-queue entry — the token bump invalidates stale entries):
  // switch_to_scheduler() throws SimStopped right after resumption, before
  // any primitive logic can act on the spurious wakeup.
  t->blocked_ = false;
  make_runnable(t, sharded_ ? shards_[t->shard_]->clock : now_);
}

void Engine::run() {
  if (sharded_) {
    run_sharded();
    return;
  }
  assert(!in_run_ && "Engine::run() is not reentrant");
  in_run_ = true;
  while (live_nondaemon_.load(std::memory_order_relaxed) > 0) {
    // Poll steps due before the run-queue top run first, without touching
    // the run queue; `lim` (a copy of its top) stays valid meanwhile.
    const QueueEntry lim = queue_limit(0);
    SimThread* t = run_lane(lane_, now_, runq_pops_, lim);
    if (t == nullptr) {
      if (lim.thread == nullptr) {
        std::ostringstream os;
        os << "simulation deadlock at t=" << now_ << "ns; blocked threads:";
        for (auto& th : threads_)
          if (!th->finished_ && th->blocked_) os << ' ' << th->name_;
        in_run_ = false;
        throw SimDeadlock(os.str());
      }
      // lim's entry: queue_limit left the live top in place, and poll
      // callbacks wake no fibers.
      assert(runq_.top().seq == lim.seq);
      runq_.pop();
      t = lim.thread;
      t->queued_ = false;
      ++runq_pops_;
      assert(lim.when >= now_);
      now_ = lim.when;
    }
    try {
      switch_to(t);
    } catch (...) {
      in_run_ = false;
      throw;
    }
  }
  in_run_ = false;
}

// --- sharded mode ---------------------------------------------------------

void Engine::route_outboxes() {
  for (auto& sp : shards_) {
    for (auto& [dst, eff] : sp->outbox)
      shards_[dst]->effq.push(std::move(eff));
    sp->outbox.clear();
  }
}

bool Engine::next_event_time(Shard& s, Time& t) {
  constexpr Time kNever = std::numeric_limits<Time>::max();
  const QueueEntry* r = live_top(s.runq, s.dead);
  const QueueEntry* l = s.lane.top();
  t = std::min({r ? r->when : kNever, l ? l->when : kNever,
                s.effq.empty() ? kNever : s.effq.top().when});
  return r != nullptr || l != nullptr || !s.effq.empty();
}

void Engine::post_effect(std::uint32_t dst, Time when, std::uint32_t klass,
                         std::uint64_t a, std::uint64_t b, EffectFn fn) {
  assert(sharded_);
  assert(dst < shards_.size());
  if (in_window_ && g_shard_idx != kNoShard) {
    Shard& cur = *shards_[g_shard_idx];
    // Conservative-lookahead soundness: anything posted during a window
    // must land at least one lookahead past the poster's clock, i.e. in a
    // strictly later window.
    assert(when >= cur.clock + lookahead_);
    cur.outbox.emplace_back(dst, Effect{when, klass, a, b, std::move(fn)});
    return;
  }
  shards_[dst]->effq.push(Effect{when, klass, a, b, std::move(fn)});
}

void Engine::await(const std::shared_ptr<SimRecord>& rec) {
  if (!sharded_) return;  // legacy engine applies effects inline
  SimThread* self = g_thread;
  assert(self && "await() outside a simulated thread");
  while (!rec->ready()) {
    Shard& s = *shards_[self->shard_];
    s.stalled = self;
    s.stall_rec = rec.get();
    switch_to_scheduler();  // worker revisits once the record completes
  }
}

bool Engine::shard_step(std::uint32_t shard, bool& progressed) {
  Shard& s = *shards_[shard];
  if (s.error) return true;
  if (s.stalled != nullptr) {
    if (!s.stall_rec->ready() && !s.stalled->stop_requested_) return false;
    SimThread* f = s.stalled;
    s.stalled = nullptr;
    s.stall_rec = nullptr;
    progressed = true;
    try {
      switch_to(f);
    } catch (...) {
      s.error = std::current_exception();
      return true;
    }
    if (s.stalled != nullptr) return false;
  }
  while (true) {
    // Lane steps first, as in run(); effects win same-time ties (lim's
    // seq 0) and nothing runs at or past the window end.
    const QueueEntry lim = queue_limit(shard);
    const std::uint64_t pops = s.pops;
    SimThread* t = run_lane(s.lane, s.clock, s.pops, lim);
    if (s.pops != pops) progressed = true;
    if (t == nullptr && lim.thread == nullptr) {  // an effect, or nothing
      if (s.effq.empty() ||
          s.effq.top().when >= window_end_.load(std::memory_order_relaxed))
        return true;
      progressed = true;
      Effect e = std::move(const_cast<Effect&>(s.effq.top()));
      s.effq.pop();
      s.clock = e.when;
      Engine* prev = g_engine;
      g_engine = this;
      try {
        e.fn();
      } catch (...) {
        g_engine = prev;
        s.error = std::current_exception();
        return true;
      }
      g_engine = prev;
    } else {
      if (t == nullptr) {
        s.runq.pop();  // lim's entry: queue_limit left the live top in place
        t = lim.thread;
        t->queued_ = false;
        ++s.pops;
        s.clock = lim.when;
      }
      progressed = true;
      try {
        switch_to(t);
      } catch (...) {
        s.error = std::current_exception();
        return true;
      }
      if (s.stalled != nullptr) return false;
    }
  }
}

void Engine::run_window(std::uint32_t w) {
  int idle = 0;
  while (true) {
    bool all = true;
    bool progressed = false;
    for (std::uint32_t s = w; s < shards_.size(); s += workers_) {
      g_shard_idx = s;
      if (!shard_step(s, progressed)) all = false;
    }
    g_shard_idx = kNoShard;
    if (all) break;
    if (!progressed) {
      if (workers_ == 1)
        throw std::logic_error(
            "argosim: await() stalled on an effect no shard can deliver");
      // Waiting on another worker's shard: spin briefly for the common
      // case where it is running right now, then hand the core back — on
      // an oversubscribed host the worker that can complete the record
      // may be preempted behind this very spin.
      if (++idle < 64)
        cpu_pause();
      else
        std::this_thread::yield();
    } else {
      idle = 0;
    }
  }
}

void Engine::run_sharded() {
  assert(!in_run_ && "Engine::run() is not reentrant");
  in_run_ = true;
  if (workers_ > 1) start_pool();
  std::exception_ptr err;
  while (live_nondaemon_.load(std::memory_order_relaxed) > 0) {
    route_outboxes();
    Time tmin = 0;
    bool any = false;
    for (auto& sp : shards_) {
      Time t;
      if (!next_event_time(*sp, t)) continue;
      if (!any || t < tmin) {
        tmin = t;
        any = true;
      }
    }
    if (!any) {
      Time dl = now_;
      for (auto& sp : shards_) dl = std::max(dl, sp->clock);
      std::ostringstream os;
      os << "simulation deadlock at t=" << dl << "ns; blocked threads:";
      for (auto& t : threads_)
        if (!t->finished_ && t->blocked_) os << ' ' << t->name_;
      in_run_ = false;
      throw SimDeadlock(os.str());
    }
    const Time w1 = tmin > std::numeric_limits<Time>::max() - lookahead_
                        ? std::numeric_limits<Time>::max()
                        : tmin + lookahead_;
    window_end_.store(w1, std::memory_order_relaxed);
    run_windows();
    for (auto& sp : shards_) {
      if (sp->error) {  // lowest shard id wins (deterministic)
        err = sp->error;
        sp->error = nullptr;
        break;
      }
    }
    if (err) break;
  }
  route_outboxes();
  Time f = finish_max_.load(std::memory_order_relaxed);
  if (f > now_) now_ = f;
  in_run_ = false;
  if (err) std::rethrow_exception(err);
}

// One window (ending at window_end_) on every worker, waiting for all.
// Without a pool (before the first run, after shutdown) no fiber has run
// on another host thread, so this thread runs every worker's shards.
void Engine::run_windows() {
  in_window_ = true;
  if (pool_.empty()) {
    for (std::uint32_t w = 0; w < workers_; ++w) run_window(w);
  } else {
    done_count_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    pool_cv_.notify_all();
    run_window(0);
    // Same spin-then-yield as run_window: windows are short, so the
    // stragglers usually finish within the spin, but when the host has
    // fewer cores than workers they need this one to run at all.
    for (int idle = 0;
         done_count_.load(std::memory_order_acquire) < workers_ - 1;) {
      if (++idle < 256)
        cpu_pause();
      else
        std::this_thread::yield();
    }
  }
  in_window_ = false;
}

void Engine::start_pool() {
  if (!pool_.empty()) return;
  for (std::uint32_t w = 1; w < workers_; ++w)
    pool_.emplace_back([this, w] { worker_loop(w); });
}

void Engine::stop_pool() {
  if (pool_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_exit_.store(true, std::memory_order_release);
  }
  pool_cv_.notify_all();
  for (auto& th : pool_) th.join();
  pool_.clear();
  pool_exit_.store(false, std::memory_order_relaxed);
}

void Engine::worker_loop(std::uint32_t w) {
  std::uint64_t last = 0;
  while (true) {
    int spins = 0;
    while (epoch_.load(std::memory_order_acquire) == last &&
           !pool_exit_.load(std::memory_order_acquire)) {
      if (++spins < 4096) {
        cpu_pause();
      } else {
        std::unique_lock<std::mutex> lk(pool_mu_);
        pool_cv_.wait(lk, [&] {
          return epoch_.load(std::memory_order_acquire) != last ||
                 pool_exit_.load(std::memory_order_acquire);
        });
      }
    }
    if (pool_exit_.load(std::memory_order_acquire)) break;
    last = epoch_.load(std::memory_order_acquire);
    run_window(w);
    done_count_.fetch_add(1, std::memory_order_release);
  }
}

// --- SimGate ---------------------------------------------------------------

SimGate::SimGate(Engine* eng, std::size_t parties, Time cost)
    : eng_(eng),
      parties_(parties),
      cost_(std::max(cost, eng->lookahead())),
      id_(eng->next_gate_id_++) {
  assert(eng->sharded() && "SimGate is a sharded-engine primitive");
  waiters_.reserve(parties);
}

void SimGate::arrive_and_wait() {
  SimThread* self = Engine::current_thread();
  assert(self != nullptr);
  Engine* eng = eng_;
  const Time t = eng->now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    waiters_.push_back(self);
    if (t > tmax_) tmax_ = t;
    if (++count_ == parties_) {
      // Release time and wake keys depend only on the arrival *times*, not
      // on which arrival the host happens to schedule last — determinism.
      const Time release = tmax_ + cost_;
      for (SimThread* w : waiters_)
        eng->post_effect(w->shard_, release, /*klass=*/0, id_, w->id_,
                         [eng, w, release] {
                           w->blocked_ = false;
                           eng->make_runnable(w, release);
                         });
      count_ = 0;
      tmax_ = 0;
      waiters_.clear();
    }
  }
  self->blocked_ = true;
  eng->switch_to_scheduler();
}

}  // namespace argosim
