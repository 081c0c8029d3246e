#include "net/interconnect.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <string>

#include "sim/slowpath.hpp"

namespace argonet {

NodeNetStats& NodeNetStats::operator+=(const NodeNetStats& o) {
  rdma_reads += o.rdma_reads;
  rdma_writes += o.rdma_writes;
  rdma_atomics += o.rdma_atomics;
  msgs_sent += o.msgs_sent;
  msgs_received += o.msgs_received;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  bytes_sent += o.bytes_sent;
  nic_busy += o.nic_busy;
  faults_injected += o.faults_injected;
  retries += o.retries;
  backoff_time += o.backoff_time;
  posted_ops += o.posted_ops;
  posted_inflight_hwm = std::max(posted_inflight_hwm, o.posted_inflight_hwm);
  return *this;
}

Interconnect::Interconnect(int nodes, NetConfig cfg)
    : nodes_(nodes), cfg_(cfg) {
  assert(nodes > 0);
  boxes_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) boxes_.push_back(std::make_unique<NodeBox>());
}

void Interconnect::enable_faults(const FaultConfig& cfg) {
  if (!cfg.enabled) return;
  faults_ = std::make_unique<FaultInjector>(cfg, nodes_);
}

namespace {

// Shared error-message context: verb, endpoints, virtual time.
std::string op_context(const char* what, int src, int dst) {
  return std::string(what) + " from node " + std::to_string(src) +
         " to node " + std::to_string(dst) + " at t=" +
         std::to_string(argosim::now()) + "ns";
}

// True when the calling fiber runs on the sharded engine: remote memory
// lives on another shard and every remote touch must ship as an effect.
inline bool sharded_engine() {
  argosim::Engine* e = argosim::Engine::current();
  return e != nullptr && e->sharded();
}

}  // namespace

void Interconnect::crash_check(int src, int dst, const char* what) {
  if (!faults_ || !faults_->has_crashes()) return;
  const Time now = argosim::now();
  faults_->note_op(src, now);
  // A crashed source initiates nothing: its fiber unwinds cleanly here (the
  // same SimStopped path Engine::kill uses) the moment it touches the
  // network — never a NetworkError, which nothing on a dead node could
  // handle and which would otherwise abort the whole simulation when the
  // reaper's rethrow surfaces it. This also gives "crash after N ops" exact
  // semantics: the op that trips the counter has no effect.
  if (faults_->crashed(src, now)) throw argosim::SimStopped{};
  if (dst != src && faults_->crashed(dst, now))
    throw NodeFailedError(
        op_context(what, src, dst) + " failed: target node is down", src, dst);
}

void Interconnect::charge(int src, Time busy, Time extra_latency) {
  auto& box = *boxes_[src];
  box.stats.nic_busy += busy;
  if (cfg_.serialize_nic) {
    argosim::SimLockGuard g(box.nic);
    argosim::delay(busy);
  } else {
    argosim::delay(busy);
  }
  if (extra_latency > 0) argosim::delay(extra_latency);
}

bool Interconnect::remote_attempt(int src, int dst, std::size_t stream_bytes,
                                  Time base_latency, const char* what) {
  if (!faults_) {
    charge(src, cfg_.nic_overhead + cfg_.net_transfer(stream_bytes),
           base_latency);
    return true;
  }
  crash_check(src, dst, what);
  const AttemptPlan p = faults_->plan_attempt(src, dst, argosim::now());
  Time stream = cfg_.net_transfer(stream_bytes);
  if (p.bw_frac < 1.0 && stream > 0)
    stream = static_cast<Time>(static_cast<double>(stream) / p.bw_frac);
  const Time latency =
      static_cast<Time>(static_cast<double>(base_latency) * p.latency_mult) +
      p.extra_latency;
  // A failed attempt costs as much as a successful one: the initiator
  // streams the payload and then waits out the completion timeout.
  charge(src, cfg_.nic_overhead + stream, latency);
  if (p.fail) {
    ++boxes_[src]->stats.faults_injected;
    return false;
  }
  return true;
}

void Interconnect::remote_op(int src, int dst, std::size_t stream_bytes,
                             Time base_latency, const char* what) {
  if (!faults_) {
    // Fault-free fast path: exactly the historical single-attempt cost.
    charge(src, cfg_.nic_overhead + cfg_.net_transfer(stream_bytes),
           base_latency);
    return;
  }
  const RetryPolicy& rp = cfg_.retry;
  const Time started = argosim::now();
  Time backoff = rp.backoff_base;
  for (int attempt = 1;; ++attempt) {
    if (remote_attempt(src, dst, stream_bytes, base_latency, what)) return;
    const bool out_of_attempts = attempt >= rp.max_attempts;
    const bool past_deadline =
        rp.deadline > 0 && argosim::now() - started >= rp.deadline;
    if (out_of_attempts || past_deadline) {
      throw NetworkError(op_context(what, src, dst) + " failed after " +
                         std::to_string(attempt) + " attempts");
    }
    Time wait = backoff;
    if (rp.backoff_jitter > 0)
      wait += faults_->backoff_jitter(
          static_cast<Time>(static_cast<double>(backoff) * rp.backoff_jitter),
          src);
    auto& st = boxes_[src]->stats;
    ++st.retries;
    st.backoff_time += wait;
    argosim::delay(wait);
    backoff = std::min<Time>(
        static_cast<Time>(static_cast<double>(backoff) * rp.backoff_mult),
        rp.backoff_max);
  }
}

namespace {
// Pool growth bound per node: past this, acquisitions with no free slot
// fall back to plain allocations (the shared_ptr still retires normally,
// it just isn't retained for reuse). Sized past any realistic pipeline
// depth so steady state never allocates.
constexpr std::size_t kPoolCap = 64;

// Round-robin scan for a slot nobody but the pool references.
template <class P>
typename P::value_type acquire_slot(P& pool, std::size_t& cursor) {
  for (std::size_t probe = 0; probe < pool.size(); ++probe) {
    auto& slot = pool[cursor];
    cursor = (cursor + 1) % pool.size();
    if (slot.use_count() == 1) return slot;
  }
  return nullptr;
}
}  // namespace

std::shared_ptr<argosim::SimRecord> Interconnect::acquire_record(NodeBox& box) {
  if (!argosim::slow_paths()) {
    if (auto rec = acquire_slot(box.rec_pool, box.rec_cursor)) {
      rec->reset();
      rec_pool_hits_.fetch_add(1, std::memory_order_relaxed);
      return rec;
    }
  }
  rec_pool_misses_.fetch_add(1, std::memory_order_relaxed);
  auto rec = std::make_shared<argosim::SimRecord>();
  if (!argosim::slow_paths() && box.rec_pool.size() < kPoolCap)
    box.rec_pool.push_back(rec);
  return rec;
}

std::shared_ptr<std::vector<std::byte>> Interconnect::acquire_buf(
    NodeBox& box) {
  if (!argosim::slow_paths()) {
    if (auto buf = acquire_slot(box.buf_pool, box.buf_cursor)) {
      buf->clear();
      rec_pool_hits_.fetch_add(1, std::memory_order_relaxed);
      return buf;
    }
  }
  rec_pool_misses_.fetch_add(1, std::memory_order_relaxed);
  auto buf = std::make_shared<std::vector<std::byte>>();
  if (!argosim::slow_paths() && box.buf_pool.size() < kPoolCap)
    box.buf_pool.push_back(buf);
  return buf;
}

bool Interconnect::sharded_attempt(
    int src, int dst, std::size_t stream_bytes, Time base_latency,
    const char* what, const std::shared_ptr<argosim::SimRecord>& rec,
    ApplyFn& apply) {
  auto& box = *boxes_[src];
  bool fail = false;
  Time stream = cfg_.net_transfer(stream_bytes);
  Time latency = base_latency;
  if (faults_) {
    crash_check(src, dst, what);
    const AttemptPlan p = faults_->plan_attempt(src, dst, argosim::now());
    if (p.bw_frac < 1.0 && stream > 0)
      stream = static_cast<Time>(static_cast<double>(stream) / p.bw_frac);
    latency = static_cast<Time>(static_cast<double>(base_latency) *
                                p.latency_mult) +
              p.extra_latency;
    fail = p.fail;
  }
  const Time busy = cfg_.nic_overhead + stream;
  box.stats.nic_busy += busy;
  {
    // Same NIC serialization as charge(); the effect must be timestamped
    // from the instant the NIC is acquired, so the post happens under the
    // lock, before the busy time is paid.
    std::optional<argosim::SimLockGuard> g;
    if (cfg_.serialize_nic) g.emplace(box.nic);
    if (!fail && apply) {
      // A successful attempt is the op's last: consuming `apply` here is
      // safe because the retry loop returns as soon as we report success.
      argosim::Engine::current()->post_effect(
          static_cast<std::uint32_t>(dst), argosim::now() + busy + latency, 1,
          static_cast<std::uint64_t>(src), box.effect_seq++,
          [rec, apply = std::move(apply)]() mutable {
            apply(*rec);
            rec->complete();
          });
    }
    argosim::delay(busy);
  }
  if (latency > 0) argosim::delay(latency);
  if (fail) {
    ++box.stats.faults_injected;
    return false;
  }
  return true;
}

std::shared_ptr<argosim::SimRecord> Interconnect::sharded_op(
    int src, int dst, std::size_t stream_bytes, Time base_latency,
    const char* what, ApplyFn apply) {
  auto rec = acquire_record(*boxes_[src]);
  if (!faults_) {
    sharded_attempt(src, dst, stream_bytes, base_latency, what, rec, apply);
    return rec;
  }
  const RetryPolicy& rp = cfg_.retry;
  const Time started = argosim::now();
  Time backoff = rp.backoff_base;
  for (int attempt = 1;; ++attempt) {
    if (sharded_attempt(src, dst, stream_bytes, base_latency, what, rec,
                        apply))
      return rec;
    const bool out_of_attempts = attempt >= rp.max_attempts;
    const bool past_deadline =
        rp.deadline > 0 && argosim::now() - started >= rp.deadline;
    if (out_of_attempts || past_deadline) {
      throw NetworkError(op_context(what, src, dst) + " failed after " +
                         std::to_string(attempt) + " attempts");
    }
    Time wait = backoff;
    if (rp.backoff_jitter > 0)
      wait += faults_->backoff_jitter(
          static_cast<Time>(static_cast<double>(backoff) * rp.backoff_jitter),
          src);
    auto& st = boxes_[src]->stats;
    ++st.retries;
    st.backoff_time += wait;
    argosim::delay(wait);
    backoff = std::min<Time>(
        static_cast<Time>(static_cast<double>(backoff) * rp.backoff_mult),
        rp.backoff_max);
  }
}

// ---------------------------------------------------------------------------
// Posted (asynchronous) verbs
// ---------------------------------------------------------------------------

void Interconnect::throw_posted_failure(int node, PostedFailure f) {
  const std::string msg = op_context(f.what, node, f.dst) +
                          " (posted) failed after exhausting its retry budget";
  // Attribute the failure to a crash when the target has since died: the
  // recovery paths key their handling on the exception type.
  if (node_dead(f.dst)) throw NodeFailedError(msg, node, f.dst);
  throw NetworkError(msg);
}

void Interconnect::retire_front(int src) {
  auto& box = *boxes_[src];
  assert(!box.sendq.empty());
  const std::uint64_t id = box.sendq.front().id;
  // Sleep until the head completes, then re-check: another fiber may have
  // retired it (and possibly more) while we slept. Ids are never reused,
  // so observing a different front id means our target is gone.
  while (!box.sendq.empty() && box.sendq.front().id == id) {
    const Time comp = box.sendq.front().complete_at;
    if (argosim::now() < comp) {
      argosim::delay(comp - argosim::now());
      continue;
    }
    Posted p = std::move(box.sendq.front());
    box.sendq.pop_front();
    if (tracer_)
      tracer_->emit(src, argoobs::Ev::PostedRetire, p.id,
                    argoobs::kUnknownState, p.hard_fail ? 1 : 0);
    if (p.hard_fail) {
      box.posted_failed.emplace(p.id, PostedFailure{p.what, p.dst});
    } else if (p.rec) {
      // Sharded engine: the remote half ran (or is about to run) on dst's
      // shard at complete_at; wait for the record, then run the src-side
      // finish. Remote application order per destination is preserved by
      // the effect keys, so interleaved retirements of later ops are fine.
      argosim::Engine::current()->await(p.rec);
      const std::uint64_t v = p.finish ? p.finish(*p.rec) : 0;
      if (p.has_value) box.posted_results.emplace(p.id, v);
    } else {
      const std::uint64_t v = p.effect ? p.effect() : 0;
      if (p.has_value) box.posted_results.emplace(p.id, v);
    }
  }
}

PostedHandle Interconnect::retired_handle(int src, bool has_value,
                                          std::uint64_t value) {
  auto& box = *boxes_[src];
  const std::uint64_t id = box.posted_next_id++;
  if (has_value) box.posted_results.emplace(id, value);
  return PostedHandle{src, id};
}

PostedHandle Interconnect::post_remote(int src, int dst,
                                       std::size_t stream_bytes,
                                       Time base_latency, const char* what,
                                       bool has_value, PostedEffectFn effect,
                                       ApplyFn dst_apply, FinishFn finish) {
  auto& box = *boxes_[src];
  crash_check(src, dst, what);
  const bool sharded = sharded_engine();
  const int depth = cfg_.pipeline > 1 ? cfg_.pipeline : 1;
  if (depth == 1) {
    // Depth 1 degenerates to the blocking verb: identical charges and
    // retry loop, effect applied at completion time.
    if (sharded) {
      auto rec = sharded_op(src, dst, stream_bytes, base_latency, what,
                            std::move(dst_apply));
      std::uint64_t v = 0;
      if (finish) {
        argosim::Engine::current()->await(rec);
        v = finish(*rec);
      }
      return retired_handle(src, has_value, v);
    }
    remote_op(src, dst, stream_bytes, base_latency, what);
    const std::uint64_t v = effect ? effect() : 0;
    return retired_handle(src, has_value, v);
  }
  while (box.sendq.size() >= static_cast<std::size_t>(depth))
    retire_front(src);
  ++box.stats.posted_ops;

  Time done = 0;
  bool hard_fail = false;
  if (!faults_) {
    charge(src, cfg_.nic_overhead + cfg_.net_transfer(stream_bytes), 0);
    done = argosim::now() + base_latency;
  } else {
    // Project the whole retry history at post time. Plans must be drawn
    // against the posting-time clock: FaultInjector brownout queries are
    // required to be monotonic in `now` per node, so probing the future
    // per retry would be unsound once several ops are in flight. The
    // first attempt holds the NIC for real; retransmissions of an
    // in-flight op are NIC work too, but only their time is folded into
    // the completion (accounted in nic_busy, not serialized — the queue
    // depth already bounds how much can pile up).
    const RetryPolicy& rp = cfg_.retry;
    const Time post_now = argosim::now();
    Time backoff = rp.backoff_base;
    for (int attempt = 1;; ++attempt) {
      const AttemptPlan p = faults_->plan_attempt(src, dst, post_now);
      Time stream = cfg_.net_transfer(stream_bytes);
      if (p.bw_frac < 1.0 && stream > 0)
        stream = static_cast<Time>(static_cast<double>(stream) / p.bw_frac);
      const Time latency =
          static_cast<Time>(static_cast<double>(base_latency) *
                            p.latency_mult) +
          p.extra_latency;
      const Time busy = cfg_.nic_overhead + stream;
      if (attempt == 1) {
        charge(src, busy, 0);
        done = argosim::now() + latency;
      } else {
        box.stats.nic_busy += busy;
        done += busy + latency;
      }
      if (!p.fail) break;
      ++box.stats.faults_injected;
      const bool out_of_attempts = attempt >= rp.max_attempts;
      const bool past_deadline =
          rp.deadline > 0 && done - post_now >= rp.deadline;
      if (out_of_attempts || past_deadline) {
        hard_fail = true;
        break;
      }
      Time wait = backoff;
      if (rp.backoff_jitter > 0)
        wait += faults_->backoff_jitter(
            static_cast<Time>(static_cast<double>(backoff) *
                              rp.backoff_jitter),
            src);
      ++box.stats.retries;
      box.stats.backoff_time += wait;
      done += wait;
      backoff = std::min<Time>(
          static_cast<Time>(static_cast<double>(backoff) * rp.backoff_mult),
          rp.backoff_max);
    }
  }
  // In-order completion (reliable-connection queue-pair semantics): an op
  // can never retire before its predecessors.
  if (!box.sendq.empty() && box.sendq.back().complete_at > done)
    done = box.sendq.back().complete_at;
  const std::uint64_t id = box.posted_next_id++;
  Posted p{id,  done,      hard_fail,         what,    dst,
           has_value, std::move(effect), nullptr, nullptr};
  if (sharded && !hard_fail) {
    // Ship the remote half to dst's shard at the (fully projected, in-order
    // bumped) completion time; the dst-shard effect replaces the inline one.
    p.rec = acquire_record(box);
    p.finish = std::move(finish);
    p.effect = nullptr;
    argosim::Engine::current()->post_effect(
        static_cast<std::uint32_t>(dst), done, 1,
        static_cast<std::uint64_t>(src), box.effect_seq++,
        [rec = p.rec, apply = std::move(dst_apply)]() mutable {
          if (apply) apply(*rec);
          rec->complete();
        });
  }
  box.sendq.push_back(std::move(p));
  box.stats.posted_inflight_hwm =
      std::max<std::uint64_t>(box.stats.posted_inflight_hwm, box.sendq.size());
  return PostedHandle{src, id};
}

std::uint64_t Interconnect::wait(PostedHandle h) {
  if (h.node < 0 || h.id == 0) return 0;
  auto& box = *boxes_[h.node];
  for (;;) {
    if (auto it = box.posted_failed.find(h.id); it != box.posted_failed.end()) {
      const PostedFailure f = it->second;
      box.posted_failed.erase(it);
      ++box.posted_aborted;
      throw_posted_failure(h.node, f);
    }
    if (auto it = box.posted_results.find(h.id);
        it != box.posted_results.end()) {
      const std::uint64_t v = it->second;
      box.posted_results.erase(it);
      return v;
    }
    // Retired without a banked value (a plain read/write), or never of
    // this queue at all: nothing left to wait for.
    if (box.sendq.empty() || box.sendq.front().id > h.id) return 0;
    retire_front(h.node);
  }
}

void Interconnect::wait_all(int node) {
  auto& box = *boxes_[node];
  while (!box.sendq.empty()) retire_front(node);
  if (!box.posted_failed.empty()) {
    const PostedFailure f = box.posted_failed.begin()->second;
    box.posted_aborted += box.posted_failed.size();
    box.posted_failed.clear();
    throw_posted_failure(node, f);
  }
}

PostedHandle Interconnect::post_read(int src, int dst, const void* remote,
                                     void* local, std::size_t n) {
  const Time local_cost = count_read(src, n);
  if (src == dst) {
    argosim::delay(local_cost);
    std::memcpy(local, remote, n);
    return retired_handle(src, false, 0);
  }
  return post_remote(
      src, dst, n, cfg_.rdma_latency, "RDMA read", false,
      [remote, local, n]() -> std::uint64_t {
        std::memcpy(local, remote, n);
        return 0;
      },
      // Sharded: capture the remote bytes on dst's shard at the completion
      // instant; copy them out on the issuing shard at retirement.
      [remote, n](argosim::SimRecord& r) {
        const auto* p = static_cast<const std::byte*>(remote);
        r.bytes.assign(p, p + n);
      },
      [local, n](argosim::SimRecord& r) -> std::uint64_t {
        std::memcpy(local, r.bytes.data(), n);
        return 0;
      });
}

PostedHandle Interconnect::post_write(int src, int dst, void* remote,
                                      const void* local, std::size_t n) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_writes;
  s.bytes_written += n;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency + cfg_.mem_copy(n));
    std::memcpy(remote, local, n);
    return retired_handle(src, false, 0);
  }
  // Posted semantics capture the payload at post time: the source buffer
  // may be reused (page evicted, refetched, re-dirtied) before retirement.
  auto buf = acquire_buf(*boxes_[src]);
  buf->assign(static_cast<const std::byte*>(local),
              static_cast<const std::byte*>(local) + n);
  return post_remote(
      src, dst, n, cfg_.rdma_latency, "RDMA write", false,
      [remote, buf, n]() -> std::uint64_t {
        std::memcpy(remote, buf->data(), n);
        return 0;
      },
      [remote, buf, n](argosim::SimRecord&) {
        std::memcpy(remote, buf->data(), n);
      },
      nullptr);
}

PostedHandle Interconnect::post_write_gather(int src, int dst,
                                             const std::vector<GatherRun>& runs,
                                             std::size_t header_bytes) {
  std::size_t wire = 0;
  for (const GatherRun& r : runs) wire += r.len + header_bytes;
  auto& s = boxes_[src]->stats;
  ++s.rdma_writes;
  s.bytes_written += wire;
  auto buf = acquire_buf(*boxes_[src]);
  buf->reserve(wire);
  std::vector<std::pair<void*, std::size_t>> targets;
  targets.reserve(runs.size());
  for (const GatherRun& r : runs) {
    const std::byte* p = static_cast<const std::byte*>(r.local);
    buf->insert(buf->end(), p, p + r.len);
    targets.emplace_back(r.remote, r.len);
  }
  auto effect = [buf, targets = std::move(targets)]() -> std::uint64_t {
    std::size_t off = 0;
    for (const auto& [to, len] : targets) {
      std::memcpy(to, buf->data() + off, len);
      off += len;
    }
    return 0;
  };
  if (src == dst) {
    argosim::delay(cfg_.mem_latency + cfg_.mem_copy(wire));
    effect();
    return retired_handle(src, false, 0);
  }
  auto dst_apply = [effect](argosim::SimRecord&) { effect(); };
  return post_remote(src, dst, wire, cfg_.rdma_latency, "RDMA gather write",
                     false, std::move(effect), std::move(dst_apply), nullptr);
}

PostedHandle Interconnect::post_fetch_or(int src, int dst,
                                         std::uint64_t* remote,
                                         std::uint64_t bits,
                                         std::function<void(std::uint64_t)>
                                             on_remote) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
    const std::uint64_t old = *remote;
    *remote = old | bits;
    if (on_remote) on_remote(old);
    return retired_handle(src, true, old);
  }
  return post_remote(
      src, dst, 0, cfg_.rdma_latency, "RDMA fetch-or", true,
      [remote, bits, on_remote]() -> std::uint64_t {
        const std::uint64_t old = *remote;
        *remote = old | bits;
        if (on_remote) on_remote(old);
        return old;
      },
      [remote, bits, on_remote](argosim::SimRecord& r) {
        r.value = *remote;
        *remote = r.value | bits;
        if (on_remote) on_remote(r.value);
      },
      [](argosim::SimRecord& r) -> std::uint64_t { return r.value; });
}

PostedHandle Interconnect::post_fetch_or(int src, int dst,
                                         std::uint64_t* remote,
                                         std::uint64_t bits) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
    const std::uint64_t old = *remote;
    *remote = old | bits;
    return retired_handle(src, true, old);
  }
  return post_remote(
      src, dst, 0, cfg_.rdma_latency, "RDMA fetch-or", true,
      [remote, bits]() -> std::uint64_t {
        const std::uint64_t old = *remote;
        *remote = old | bits;
        return old;
      },
      [remote, bits](argosim::SimRecord& r) {
        r.value = *remote;
        *remote = r.value | bits;
      },
      [](argosim::SimRecord& r) -> std::uint64_t { return r.value; });
}

PostedHandle Interconnect::post_fetch_or_span(int src, int dst,
                                              std::uint64_t* remote,
                                              const std::uint64_t* bits,
                                              int nwords,
                                              std::uint64_t* prev_out) {
  assert(nwords >= 1 && nwords <= kMaxAtomicSpan);
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  std::array<std::uint64_t, kMaxAtomicSpan> b{};
  std::copy_n(bits, nwords, b.begin());
  auto apply = [remote, b, nwords, prev_out]() {
    for (int i = 0; i < nwords; ++i) {
      prev_out[i] = remote[i];
      remote[i] |= b[static_cast<std::size_t>(i)];
    }
  };
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
    apply();
    return retired_handle(src, true, prev_out[0]);
  }
  const std::size_t extra = sizeof(std::uint64_t) *
                            static_cast<std::size_t>(nwords - 1);
  return post_remote(
      src, dst, extra, cfg_.rdma_latency, "RDMA masked fetch-or", true,
      [apply, prev_out]() -> std::uint64_t {
        apply();
        return prev_out[0];
      },
      [apply, prev_out](argosim::SimRecord& r) {
        apply();
        r.value = prev_out[0];
      },
      [](argosim::SimRecord& r) -> std::uint64_t { return r.value; });
}

PostedHandle Interconnect::post_fetch_add(int src, int dst,
                                          std::uint64_t* remote,
                                          std::uint64_t v) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
    const std::uint64_t old = *remote;
    *remote = old + v;
    return retired_handle(src, true, old);
  }
  return post_remote(
      src, dst, 0, cfg_.rdma_latency, "RDMA fetch-add", true,
      [remote, v]() -> std::uint64_t {
        const std::uint64_t old = *remote;
        *remote = old + v;
        return old;
      },
      [remote, v](argosim::SimRecord& r) {
        r.value = *remote;
        *remote = r.value + v;
      },
      [](argosim::SimRecord& r) -> std::uint64_t { return r.value; });
}

PostedHandle Interconnect::post_cas(int src, int dst, std::uint64_t* remote,
                                    std::uint64_t expected,
                                    std::uint64_t desired) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
    const std::uint64_t old = *remote;
    if (old == expected) *remote = desired;
    return retired_handle(src, true, old);
  }
  return post_remote(
      src, dst, 0, cfg_.rdma_latency, "RDMA CAS", true,
      [remote, expected, desired]() -> std::uint64_t {
        const std::uint64_t old = *remote;
        if (old == expected) *remote = desired;
        return old;
      },
      [remote, expected, desired](argosim::SimRecord& r) {
        r.value = *remote;
        if (r.value == expected) *remote = desired;
      },
      [](argosim::SimRecord& r) -> std::uint64_t { return r.value; });
}

namespace {

// Sharded dst_apply for reads: capture the remote content on dst's shard at
// the wire-completion instant; the issuing fiber copies it out after await.
std::function<void(argosim::SimRecord&)> capture_bytes(const void* remote,
                                                       std::size_t n) {
  return [remote, n](argosim::SimRecord& r) {
    const auto* p = static_cast<const std::byte*>(remote);
    r.bytes.assign(p, p + n);
  };
}

// Sharded dst_apply for writes: the payload snapshot taken at issue time
// lands on dst's shard at the completion instant.
std::function<void(argosim::SimRecord&)> apply_bytes(
    void* remote, std::shared_ptr<std::vector<std::byte>> buf) {
  return [remote, buf = std::move(buf)](argosim::SimRecord&) {
    std::memcpy(remote, buf->data(), buf->size());
  };
}

std::shared_ptr<std::vector<std::byte>> snapshot(const void* local,
                                                 std::size_t n) {
  const auto* p = static_cast<const std::byte*>(local);
  return std::make_shared<std::vector<std::byte>>(p, p + n);
}

}  // namespace

void Interconnect::read(int src, int dst, const void* remote, void* local,
                        std::size_t n) {
  const Time local_cost = count_read(src, n);
  if (src == dst) {
    argosim::delay(local_cost);
  } else if (sharded_engine()) {
    auto rec = sharded_op(src, dst, n, cfg_.rdma_latency, "RDMA read",
                          capture_bytes(remote, n));
    argosim::Engine::current()->await(rec);
    std::memcpy(local, rec->bytes.data(), n);
    return;
  } else {
    remote_op(src, dst, n, cfg_.rdma_latency, "RDMA read");
  }
  // The value observed is the remote content at completion time.
  std::memcpy(local, remote, n);
}

bool Interconnect::try_read(int src, int dst, const void* remote, void* local,
                            std::size_t n) {
  const Time local_cost = count_read(src, n);
  if (src == dst) {
    argosim::delay(local_cost);
  } else if (sharded_engine()) {
    auto rec = acquire_record(*boxes_[src]);
    ApplyFn apply = capture_bytes(remote, n);
    if (!sharded_attempt(src, dst, n, cfg_.rdma_latency, "RDMA read", rec,
                         apply))
      return false;
    argosim::Engine::current()->await(rec);
    std::memcpy(local, rec->bytes.data(), n);
    return true;
  } else if (!remote_attempt(src, dst, n, cfg_.rdma_latency, "RDMA read")) {
    return false;
  }
  std::memcpy(local, remote, n);
  return true;
}

void Interconnect::write(int src, int dst, void* remote, const void* local,
                         std::size_t n) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_writes;
  s.bytes_written += n;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency + cfg_.mem_copy(n));
  } else if (sharded_engine()) {
    // Snapshot at issue time (as the posted verbs do) and apply on dst's
    // shard at the completion instant. No await: the fiber's clock already
    // equals the completion time, and any later verb touching the same
    // remote bytes lands at a strictly later effect key.
    sharded_op(src, dst, n, cfg_.rdma_latency, "RDMA write",
               apply_bytes(remote, snapshot(local, n)));
    return;
  } else {
    remote_op(src, dst, n, cfg_.rdma_latency, "RDMA write");
  }
  // The data becomes globally visible at completion time.
  std::memcpy(remote, local, n);
}

bool Interconnect::try_write(int src, int dst, void* remote, const void* local,
                             std::size_t n) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_writes;
  s.bytes_written += n;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency + cfg_.mem_copy(n));
  } else if (sharded_engine()) {
    auto rec = acquire_record(*boxes_[src]);
    ApplyFn apply = apply_bytes(remote, snapshot(local, n));
    return sharded_attempt(src, dst, n, cfg_.rdma_latency, "RDMA write", rec,
                           apply);
  } else if (!remote_attempt(src, dst, n, cfg_.rdma_latency, "RDMA write")) {
    return false;
  }
  std::memcpy(remote, local, n);
  return true;
}

void Interconnect::charge_write(int src, int dst, std::size_t n) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_writes;
  s.bytes_written += n;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency + cfg_.mem_copy(n));
  } else {
    remote_op(src, dst, n, cfg_.rdma_latency, "RDMA write");
  }
}

void Interconnect::write_gather(int src, int dst,
                                const std::vector<GatherRun>& runs,
                                std::size_t header_bytes) {
  std::size_t wire = 0;
  for (const GatherRun& r : runs) wire += r.len + header_bytes;
  auto& s = boxes_[src]->stats;
  ++s.rdma_writes;
  s.bytes_written += wire;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency + cfg_.mem_copy(wire));
    for (const GatherRun& r : runs) std::memcpy(r.remote, r.local, r.len);
    return;
  }
  if (sharded_engine()) {
    auto buf = std::make_shared<std::vector<std::byte>>();
    buf->reserve(wire);
    std::vector<std::pair<void*, std::size_t>> targets;
    targets.reserve(runs.size());
    for (const GatherRun& r : runs) {
      const std::byte* p = static_cast<const std::byte*>(r.local);
      buf->insert(buf->end(), p, p + r.len);
      targets.emplace_back(r.remote, r.len);
    }
    sharded_op(src, dst, wire, cfg_.rdma_latency, "RDMA write",
               [buf, targets = std::move(targets)](argosim::SimRecord&) {
                 std::size_t off = 0;
                 for (const auto& [to, len] : targets) {
                   std::memcpy(to, buf->data() + off, len);
                   off += len;
                 }
               });
    return;
  }
  // Legacy engine: charge one wire transfer, then apply the runs in place
  // at completion time — charge_write() plus the caller's own memcpys,
  // byte-identical in virtual time.
  remote_op(src, dst, wire, cfg_.rdma_latency, "RDMA write");
  for (const GatherRun& r : runs) std::memcpy(r.remote, r.local, r.len);
}

// Remote atomics share one attempt shape: no payload streaming, one
// completion latency; the operation commits only on a successful attempt
// (a failed attempt is detected before the NIC executes it remotely).

std::uint64_t Interconnect::fetch_or(int src, int dst, std::uint64_t* remote,
                                     std::uint64_t bits) {
  return fetch_or(src, dst, remote, bits, nullptr);
}

std::uint64_t Interconnect::fetch_or(
    int src, int dst, std::uint64_t* remote, std::uint64_t bits,
    std::function<void(std::uint64_t)> on_remote) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
  } else if (sharded_engine()) {
    auto rec = sharded_op(src, dst, 0, cfg_.rdma_latency, "RDMA fetch-or",
                          [remote, bits, on_remote](argosim::SimRecord& r) {
                            r.value = *remote;
                            *remote = r.value | bits;
                            if (on_remote) on_remote(r.value);
                          });
    argosim::Engine::current()->await(rec);
    return rec->value;
  } else {
    remote_op(src, dst, 0, cfg_.rdma_latency, "RDMA fetch-or");
  }
  std::uint64_t old = *remote;
  *remote = old | bits;
  if (on_remote) on_remote(old);
  return old;
}

void Interconnect::fetch_or_span(int src, int dst, std::uint64_t* remote,
                                 const std::uint64_t* bits, int nwords,
                                 std::uint64_t* prev_out) {
  assert(nwords >= 1 && nwords <= kMaxAtomicSpan);
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  std::array<std::uint64_t, kMaxAtomicSpan> b{};
  std::copy_n(bits, nwords, b.begin());
  // One extended atomic: every word's pre-OR value is snapshotted at the
  // same commit instant the ORs land — concurrent registrants therefore
  // totally order, and exactly one of them observes any given displaced
  // owner as the sole accessor.
  auto apply = [remote, b, nwords, prev_out]() {
    for (int i = 0; i < nwords; ++i) {
      prev_out[i] = remote[i];
      remote[i] |= b[static_cast<std::size_t>(i)];
    }
  };
  const std::size_t extra = sizeof(std::uint64_t) *
                            static_cast<std::size_t>(nwords - 1);
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
    apply();
    return;
  }
  if (sharded_engine()) {
    auto rec = sharded_op(src, dst, extra, cfg_.rdma_latency,
                          "RDMA masked fetch-or",
                          [apply](argosim::SimRecord& r) {
                            apply();
                            r.value = 0;
                          });
    argosim::Engine::current()->await(rec);
    return;
  }
  remote_op(src, dst, extra, cfg_.rdma_latency, "RDMA masked fetch-or");
  apply();
}

std::optional<std::uint64_t> Interconnect::try_fetch_or(int src, int dst,
                                                        std::uint64_t* remote,
                                                        std::uint64_t bits) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
  } else if (sharded_engine()) {
    auto rec = acquire_record(*boxes_[src]);
    ApplyFn apply = [remote, bits](argosim::SimRecord& r) {
      r.value = *remote;
      *remote = r.value | bits;
    };
    if (!sharded_attempt(src, dst, 0, cfg_.rdma_latency, "RDMA fetch-or", rec,
                         apply))
      return std::nullopt;
    argosim::Engine::current()->await(rec);
    return rec->value;
  } else if (!remote_attempt(src, dst, 0, cfg_.rdma_latency,
                             "RDMA fetch-or")) {
    return std::nullopt;
  }
  std::uint64_t old = *remote;
  *remote = old | bits;
  return old;
}

std::uint64_t Interconnect::fetch_add(int src, int dst, std::uint64_t* remote,
                                      std::uint64_t v) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
  } else if (sharded_engine()) {
    auto rec = sharded_op(src, dst, 0, cfg_.rdma_latency, "RDMA fetch-add",
                          [remote, v](argosim::SimRecord& r) {
                            r.value = *remote;
                            *remote = r.value + v;
                          });
    argosim::Engine::current()->await(rec);
    return rec->value;
  } else {
    remote_op(src, dst, 0, cfg_.rdma_latency, "RDMA fetch-add");
  }
  std::uint64_t old = *remote;
  *remote = old + v;
  return old;
}

std::optional<std::uint64_t> Interconnect::try_fetch_add(int src, int dst,
                                                         std::uint64_t* remote,
                                                         std::uint64_t v) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
  } else if (sharded_engine()) {
    auto rec = acquire_record(*boxes_[src]);
    ApplyFn apply = [remote, v](argosim::SimRecord& r) {
      r.value = *remote;
      *remote = r.value + v;
    };
    if (!sharded_attempt(src, dst, 0, cfg_.rdma_latency, "RDMA fetch-add",
                         rec, apply))
      return std::nullopt;
    argosim::Engine::current()->await(rec);
    return rec->value;
  } else if (!remote_attempt(src, dst, 0, cfg_.rdma_latency,
                             "RDMA fetch-add")) {
    return std::nullopt;
  }
  std::uint64_t old = *remote;
  *remote = old + v;
  return old;
}

std::uint64_t Interconnect::cas(int src, int dst, std::uint64_t* remote,
                                std::uint64_t expected, std::uint64_t desired) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
  } else if (sharded_engine()) {
    auto rec = sharded_op(src, dst, 0, cfg_.rdma_latency, "RDMA CAS",
                          [remote, expected, desired](argosim::SimRecord& r) {
                            r.value = *remote;
                            if (r.value == expected) *remote = desired;
                          });
    argosim::Engine::current()->await(rec);
    return rec->value;
  } else {
    remote_op(src, dst, 0, cfg_.rdma_latency, "RDMA CAS");
  }
  std::uint64_t old = *remote;
  if (old == expected) *remote = desired;
  return old;
}

std::optional<std::uint64_t> Interconnect::try_cas(int src, int dst,
                                                   std::uint64_t* remote,
                                                   std::uint64_t expected,
                                                   std::uint64_t desired) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
  } else if (sharded_engine()) {
    auto rec = acquire_record(*boxes_[src]);
    ApplyFn apply = [remote, expected, desired](argosim::SimRecord& r) {
      r.value = *remote;
      if (r.value == expected) *remote = desired;
    };
    if (!sharded_attempt(src, dst, 0, cfg_.rdma_latency, "RDMA CAS", rec,
                         apply))
      return std::nullopt;
    argosim::Engine::current()->await(rec);
    return rec->value;
  } else if (!remote_attempt(src, dst, 0, cfg_.rdma_latency, "RDMA CAS")) {
    return std::nullopt;
  }
  std::uint64_t old = *remote;
  if (old == expected) *remote = desired;
  return old;
}

std::uint64_t Interconnect::exchange(int src, int dst, std::uint64_t* remote,
                                     std::uint64_t desired) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
  } else if (sharded_engine()) {
    auto rec = sharded_op(src, dst, 0, cfg_.rdma_latency, "RDMA exchange",
                          [remote, desired](argosim::SimRecord& r) {
                            r.value = *remote;
                            *remote = desired;
                          });
    argosim::Engine::current()->await(rec);
    return rec->value;
  } else {
    remote_op(src, dst, 0, cfg_.rdma_latency, "RDMA exchange");
  }
  std::uint64_t old = *remote;
  *remote = desired;
  return old;
}

std::optional<std::uint64_t> Interconnect::try_exchange(int src, int dst,
                                                        std::uint64_t* remote,
                                                        std::uint64_t desired) {
  auto& s = boxes_[src]->stats;
  ++s.rdma_atomics;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency);
  } else if (sharded_engine()) {
    auto rec = acquire_record(*boxes_[src]);
    ApplyFn apply = [remote, desired](argosim::SimRecord& r) {
      r.value = *remote;
      *remote = desired;
    };
    if (!sharded_attempt(src, dst, 0, cfg_.rdma_latency, "RDMA exchange",
                         rec, apply))
      return std::nullopt;
    argosim::Engine::current()->await(rec);
    return rec->value;
  } else if (!remote_attempt(src, dst, 0, cfg_.rdma_latency,
                             "RDMA exchange")) {
    return std::nullopt;
  }
  std::uint64_t old = *remote;
  *remote = desired;
  return old;
}

void Interconnect::barrier_round(int node, int partner) {
  remote_op(node, partner, 0, cfg_.msg_latency, "barrier round");
}

bool Interconnect::probe(int src, int dst) {
  // One tiny notification charged on the sender only: a dead target
  // participates in nothing, and the probe's fate depends solely on the
  // crash schedule (no RNG draws, no retry loop).
  charge(src, cfg_.nic_overhead, cfg_.msg_latency);
  return !node_dead(dst);
}

void Interconnect::deliver(Message msg, Time deliver_at) {
  auto& box = *boxes_[msg.dst];
  box.inbox.push(Pending{deliver_at, send_seq_++, std::move(msg)});
  box.rx_waiters.notify_all();
}

void Interconnect::ship_message(Message msg, Time deliver_at) {
  // Sharded engine: the inbox belongs to dst's shard, so delivery travels
  // as a timestamped effect. The inbox sequence number is assigned on the
  // destination in effect-key order — deterministic regardless of which
  // workers ran the senders.
  auto& src_box = *boxes_[msg.src];
  const int dst = msg.dst;
  argosim::Engine::current()->post_effect(
      static_cast<std::uint32_t>(dst), deliver_at, 1,
      static_cast<std::uint64_t>(msg.src), src_box.effect_seq++,
      [this, dst, deliver_at, m = std::make_shared<Message>(std::move(msg))] {
        auto& box = *boxes_[dst];
        box.inbox.push(Pending{deliver_at, box.rx_seq++, std::move(*m)});
        box.rx_waiters.notify_all();
      });
}

void Interconnect::purge_stale(NodeBox& box) {
  if (!faults_ || !faults_->has_crashes()) return;
  while (!box.inbox.empty() && box.inbox.top().deliver_at <= argosim::now() &&
         faults_->crashed(box.inbox.top().msg.src, argosim::now())) {
    // "No message from a dead node is applied": the sender crash-stopped
    // before this delivery instant, so the message dies in the inbox.
    box.inbox.pop();
    stale_msgs_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Interconnect::send(Message msg) { try_send(std::move(msg)); }

bool Interconnect::try_send(Message msg) {
  assert(msg.src >= 0 && msg.src < nodes_ && msg.dst >= 0 && msg.dst < nodes_);
  if (faults_ && faults_->has_crashes()) {
    faults_->note_op(msg.src, argosim::now());
    // Crashed senders unwind instead of emitting (see crash_check).
    if (faults_->crashed(msg.src, argosim::now())) throw argosim::SimStopped{};
  }
  auto& s = boxes_[msg.src]->stats;
  ++s.msgs_sent;
  s.bytes_sent += msg.payload.size();
  const std::size_t wire = msg.wire_size();
  if (msg.src == msg.dst) {
    argosim::delay(cfg_.mem_latency + cfg_.mem_copy(wire));
    deliver(std::move(msg), argosim::now());
    return true;
  }
  const bool sharded = sharded_engine();
  if (!faults_) {
    charge(msg.src, cfg_.nic_overhead + cfg_.net_transfer(wire), 0);
    const Time deliver_at = argosim::now() + cfg_.msg_latency;
    if (sharded)
      ship_message(std::move(msg), deliver_at);
    else
      deliver(std::move(msg), deliver_at);
    return true;
  }
  const AttemptPlan p = faults_->plan_attempt(msg.src, msg.dst, argosim::now());
  Time stream = cfg_.net_transfer(wire);
  if (p.bw_frac < 1.0 && stream > 0)
    stream = static_cast<Time>(static_cast<double>(stream) / p.bw_frac);
  charge(msg.src, cfg_.nic_overhead + stream, 0);
  if (faults_->drop_message(msg.src)) {
    ++s.faults_injected;
    return false;
  }
  const Time latency =
      static_cast<Time>(static_cast<double>(cfg_.msg_latency) *
                        p.latency_mult) +
      p.extra_latency;
  const bool dup = faults_->duplicate_message(msg.src);
  const Time deliver_at = argosim::now() + latency;
  if (dup) {
    Message copy = msg;
    if (sharded) {
      ship_message(std::move(copy), deliver_at);
      // The spurious retransmission arrives one latency later still.
      ship_message(std::move(msg), deliver_at + cfg_.msg_latency);
    } else {
      deliver(std::move(copy), deliver_at);
      deliver(std::move(msg), deliver_at + cfg_.msg_latency);
    }
  } else if (sharded) {
    ship_message(std::move(msg), deliver_at);
  } else {
    deliver(std::move(msg), deliver_at);
  }
  return true;
}

Time Interconnect::charge_message(int src, int dst,
                                  std::size_t payload_bytes) {
  auto& s = boxes_[src]->stats;
  ++s.msgs_sent;
  s.bytes_sent += payload_bytes;
  const std::size_t wire = 40 + payload_bytes;
  if (src == dst) {
    argosim::delay(cfg_.mem_latency + cfg_.mem_copy(wire));
    return argosim::now();
  }
  charge(src, cfg_.nic_overhead + cfg_.net_transfer(wire), 0);
  return argosim::now() + cfg_.msg_latency;
}

Message Interconnect::recv(int node) {
  auto& box = *boxes_[node];
  for (;;) {
    purge_stale(box);
    if (!box.inbox.empty()) {
      const Pending& top = box.inbox.top();
      if (top.deliver_at <= argosim::now()) {
        Message m = std::move(const_cast<Pending&>(top).msg);
        box.inbox.pop();
        ++box.stats.msgs_received;
        return m;
      }
      box.rx_waiters.wait_until(top.deliver_at);
    } else {
      box.rx_waiters.wait();
    }
  }
}

std::optional<Message> Interconnect::try_recv(int node) {
  auto& box = *boxes_[node];
  purge_stale(box);
  if (box.inbox.empty() || box.inbox.top().deliver_at > argosim::now())
    return std::nullopt;
  Message m = std::move(const_cast<Pending&>(box.inbox.top()).msg);
  box.inbox.pop();
  ++box.stats.msgs_received;
  return m;
}

std::optional<Message> Interconnect::recv_for(int node, Time timeout) {
  auto& box = *boxes_[node];
  const Time deadline = argosim::now() + timeout;
  for (;;) {
    purge_stale(box);
    if (!box.inbox.empty()) {
      const Pending& top = box.inbox.top();
      if (top.deliver_at <= argosim::now()) {
        Message m = std::move(const_cast<Pending&>(top).msg);
        box.inbox.pop();
        ++box.stats.msgs_received;
        return m;
      }
      if (top.deliver_at <= deadline) {
        box.rx_waiters.wait_until(top.deliver_at);
        continue;
      }
    }
    if (argosim::now() >= deadline) return std::nullopt;
    box.rx_waiters.wait_until(deadline);
  }
}

bool Interconnect::poll(int node) {
  auto& box = *boxes_[node];
  purge_stale(box);
  return !box.inbox.empty() && box.inbox.top().deliver_at <= argosim::now();
}

NodeNetStats Interconnect::total_stats() const {
  NodeNetStats total;
  for (auto& b : boxes_) total += b->stats;
  return total;
}

void Interconnect::reset_stats() {
  for (auto& b : boxes_) b->stats = NodeNetStats{};
}

}  // namespace argonet
