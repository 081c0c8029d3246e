// Simulated cluster interconnect.
//
// Provides the two communication styles the paper contrasts:
//
//  * one-sided RDMA verbs (read, write, fetch-or, fetch-add, CAS) — the only
//    operations Argo's passive Carina/Pyxis protocol uses; no code runs on
//    the target node, only latency/bandwidth is charged, and
//  * two-sided messages with mailboxes — what traditional DSMs and the
//    MPI/PGAS baselines use; receiving requires an *active* agent (a handler
//    fiber or a blocked receiver) on the target node.
//
// All operations must be called from a simulated thread. When
// NetConfig::serialize_nic is set, ops from the same node serialize on a
// per-node NIC lock, reproducing the paper's "only one thread can use the
// interconnect at any point in time" MPI prototype limitation (§3.6.2).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "net/faults.hpp"
#include "net/netconfig.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/smallfn.hpp"
#include "sim/sync.hpp"

namespace argonet {

using argosim::Time;

// Hot-path closures ride in inline-storage SmallFns (sim/smallfn.hpp): a
// posted verb builds up to three of them, and std::function would heap-
// allocate each. Capacities cover the largest capture each role carries
// (post_fetch_or_span's apply: a pointer, a 32-byte operand array, a count
// and an output pointer); oversized captures still work, they just spill
// to the heap and tick sim.effect_pool_misses.
using ApplyFn = argosim::SmallFn<void(argosim::SimRecord&), 64>;
using PostedEffectFn = argosim::SmallFn<std::uint64_t(), 64>;
using FinishFn = argosim::SmallFn<std::uint64_t(argosim::SimRecord&), 32>;

/// Thrown by the reliable verbs when an op still fails after the
/// RetryPolicy's attempt budget / deadline is exhausted (a hard, rather
/// than transient, network failure). Messages carry the verb name, the
/// source/target node ids and the virtual time of the failure.
class NetworkError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an op targets a node that has crash-stopped (dead under the
/// current membership view): unlike transient NetworkError failures there
/// is no point retrying — the caller must recover (re-route to a successor
/// home, abort a delegated critical section, drop a barrier partner).
class NodeFailedError : public NetworkError {
 public:
  NodeFailedError(const std::string& what, int src, int dst)
      : NetworkError(what), src_(src), dst_(dst) {}
  int src() const { return src_; }
  int dst() const { return dst_; }

 private:
  int src_;
  int dst_;
};

/// A two-sided message. `tag` is protocol-defined; `a/b/c` carry small
/// immediate operands so tiny control messages need no payload allocation.
struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  std::uint64_t a = 0, b = 0, c = 0;
  std::vector<std::byte> payload;

  std::size_t wire_size() const { return 40 + payload.size(); }
};

/// Completion handle for a posted (asynchronous) verb. Handles are cheap
/// value types; redeem them with Interconnect::wait / wait_all. A
/// default-constructed handle is inert (wait returns immediately).
struct PostedHandle {
  int node = -1;        ///< issuing node (owns the send queue)
  std::uint64_t id = 0; ///< per-node monotonically increasing op id
  explicit operator bool() const { return id != 0; }
};

/// One element of a scatter-gather posted write: `len` bytes copied from
/// `local` to `remote` when the (single) op completes.
struct GatherRun {
  void* remote = nullptr;
  const void* local = nullptr;
  std::size_t len = 0;
};

/// Per-node traffic statistics (virtual-time accounting).
struct NodeNetStats {
  std::uint64_t rdma_reads = 0;
  std::uint64_t rdma_writes = 0;
  std::uint64_t rdma_atomics = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_read = 0;     ///< payload bytes fetched by RDMA reads
  std::uint64_t bytes_written = 0;  ///< payload bytes pushed by RDMA writes
  std::uint64_t bytes_sent = 0;     ///< message payload bytes sent
  Time nic_busy = 0;                ///< time this node's NIC was held
  std::uint64_t faults_injected = 0;  ///< failed attempts + dropped msgs
  std::uint64_t retries = 0;          ///< re-attempts after injected faults
  Time backoff_time = 0;              ///< virtual time spent backing off
  std::uint64_t posted_ops = 0;       ///< async verbs queued (pipeline > 1)
  std::uint64_t posted_inflight_hwm = 0;  ///< send-queue depth high-water mark

  std::uint64_t total_ops() const {
    return rdma_reads + rdma_writes + rdma_atomics + msgs_sent;
  }
  std::uint64_t total_bytes() const {
    return bytes_read + bytes_written + bytes_sent;
  }
  NodeNetStats& operator+=(const NodeNetStats& o);
};

class Interconnect {
 public:
  Interconnect(int nodes, NetConfig cfg);

  int nodes() const { return nodes_; }
  const NetConfig& config() const { return cfg_; }

  // --- Fault injection ----------------------------------------------------

  /// Attach a fault injector. From here on every *remote* op consults it:
  /// the reliable verbs below turn into retry loops (RetryPolicy in
  /// NetConfig) and the try_* variants may report failure. Without an
  /// injector the fault machinery is never consulted — the fault-free
  /// path's virtual times are identical to a build without this feature.
  void enable_faults(const FaultConfig& cfg);

  bool faults_enabled() const { return faults_ != nullptr; }
  FaultInjector* faults() { return faults_.get(); }

  /// Attach a protocol tracer (not owned; may be null). Emits PostedRetire
  /// events as posted verbs leave the send queues.
  void set_tracer(argoobs::Tracer* tracer) { tracer_ = tracer; }

  // --- One-sided RDMA verbs (passive: no code runs on `dst`) -------------

  /// Read `n` bytes from `remote` (memory homed on node `dst`) into `local`.
  void read(int src, int dst, const void* remote, void* local, std::size_t n);

  /// Write `n` bytes from `local` into `remote` (memory homed on node `dst`).
  void write(int src, int dst, void* remote, const void* local, std::size_t n);

  /// Spin on a word homed on node `src` itself until `done(value)` accepts
  /// a value read, and return that value. Between reads the caller
  /// computes for `backoff` ns. Simulated time and statistics are exactly
  /// those of
  ///   for (;;) { read(src, src, word, &v, 8); if (done(v)) return v;
  ///              delay(backoff); }
  /// but the polls run as scheduler-side steps (Engine::poll), so the host
  /// pays no fiber switch per poll. `done` must not block or advance time.
  template <class Done>
  std::uint64_t poll_local(int src, const std::uint64_t* word, Time backoff,
                           Done&& done) {
    std::uint64_t v = 0;
    argosim::Engine::current()->poll(
        local_read_cost(sizeof v), backoff,
        [&] { count_read(src, sizeof v); },
        [&] {
          // The value observed is the content at completion time.
          std::memcpy(&v, word, sizeof v);
          return done(v);
        });
    return v;
  }

  /// Charge an RDMA write of `n` payload bytes without performing a copy.
  /// Used for scattered payloads (diff runs): the caller applies the bytes
  /// itself immediately after this returns (i.e. at completion time).
  /// Legacy-engine only as a remote-apply idiom: under the sharded engine a
  /// caller-side apply would touch another shard's memory — use
  /// write_gather(), which ships the runs to the target's shard.
  void charge_write(int src, int dst, std::size_t n);

  /// Blocking scatter-gather write: one wire transfer of
  /// sum(len + header_bytes) covering every run, applied at completion
  /// time. Charges exactly what charge_write(sum) does; on the sharded
  /// engine the runs are snapshotted and applied on `dst`'s shard at the
  /// completion instant.
  void write_gather(int src, int dst, const std::vector<GatherRun>& runs,
                    std::size_t header_bytes);

  /// Remote atomic OR; returns the previous value (MPI_Fetch_and_op(BOR)).
  std::uint64_t fetch_or(int src, int dst, std::uint64_t* remote,
                         std::uint64_t bits);

  /// fetch_or variant for callers that must update target-side state
  /// atomically with the OR (directory generation bumps): `on_remote(old)`
  /// runs immediately after the OR commits, in the target's context —
  /// inline on the legacy engine, inside the dst-shard effect when sharded.
  std::uint64_t fetch_or(int src, int dst, std::uint64_t* remote,
                         std::uint64_t bits,
                         std::function<void(std::uint64_t)> on_remote);

  /// Maximum span (in 64-bit words) of one extended remote atomic —
  /// models the 32-byte masked-atomic operand cap of ConnectX-class HCAs.
  static constexpr int kMaxAtomicSpan = 4;

  /// Extended remote atomic OR over `nwords` consecutive 64-bit words
  /// (1 <= nwords <= kMaxAtomicSpan): ORs bits[i] into remote[i] and
  /// snapshots every pre-OR word into prev_out[i] at one commit instant —
  /// the multi-word directory's full-map Fetch&Or. Charged as one remote
  /// atomic streaming the 8*(nwords-1) operand bytes beyond the first
  /// word, so nwords == 1 charges exactly what fetch_or does. `bits` is
  /// snapshotted; `prev_out` must stay valid until the call returns.
  void fetch_or_span(int src, int dst, std::uint64_t* remote,
                     const std::uint64_t* bits, int nwords,
                     std::uint64_t* prev_out);

  /// Remote atomic add; returns the previous value.
  std::uint64_t fetch_add(int src, int dst, std::uint64_t* remote,
                          std::uint64_t v);

  /// Remote compare-and-swap; returns the previous value.
  std::uint64_t cas(int src, int dst, std::uint64_t* remote,
                    std::uint64_t expected, std::uint64_t desired);

  /// Remote atomic exchange; returns the previous value
  /// (MPI_Fetch_and_op(REPLACE)).
  std::uint64_t exchange(int src, int dst, std::uint64_t* remote,
                         std::uint64_t desired);

  // --- Posted (asynchronous) verbs ----------------------------------------
  //
  // The RDMA work-queue model: post returns after charging the op's NIC
  // occupancy (overhead + payload streaming, serialized per node); the wire
  // latency runs concurrently with whatever the caller does next, bounded
  // by NetConfig::pipeline outstanding ops per node. Completions retire
  // strictly in post order (reliable-connection semantics), and the op's
  // effect — the memcpy or atomic — is applied at retirement, exactly when
  // the blocking verbs apply theirs. Posted writes snapshot their payload
  // at post time, so source buffers may be reused immediately.
  //
  // Fault injection composes transparently: a posted op draws all of its
  // attempt plans when posted (one per retry, against the posting-time
  // clock) and folds the retries and backoff into its completion time; a
  // hard failure (retry budget exhausted) surfaces as NetworkError from
  // wait()/wait_all() of the *issuing* node, never from an innocent fiber
  // that happens to retire the queue.
  //
  // At pipeline depth 1 a post degenerates to the matching blocking verb —
  // bit-identical charges, already retired on return.

  PostedHandle post_read(int src, int dst, const void* remote, void* local,
                         std::size_t n);
  PostedHandle post_write(int src, int dst, void* remote, const void* local,
                          std::size_t n);

  /// One posted op carrying several runs to scattered remote addresses
  /// (one wire transfer of sum(len + header_bytes); one logical RDMA
  /// write). The diff-writeback path uses this to ship a whole page's runs
  /// as a single scatter-gather element list.
  PostedHandle post_write_gather(int src, int dst,
                                 const std::vector<GatherRun>& runs,
                                 std::size_t header_bytes);

  PostedHandle post_fetch_or(int src, int dst, std::uint64_t* remote,
                             std::uint64_t bits);

  /// Posted fetch_or whose `on_remote(old)` runs in the target's context
  /// right after the OR commits (see the blocking overload).
  PostedHandle post_fetch_or(int src, int dst, std::uint64_t* remote,
                             std::uint64_t bits,
                             std::function<void(std::uint64_t)> on_remote);
  /// Posted fetch_or_span: `prev_out` is filled with the pre-OR words by
  /// retirement time and must stay valid (and in place) until wait(h)
  /// returns. The handle's wait() value is prev_out[0].
  PostedHandle post_fetch_or_span(int src, int dst, std::uint64_t* remote,
                                  const std::uint64_t* bits, int nwords,
                                  std::uint64_t* prev_out);

  PostedHandle post_fetch_add(int src, int dst, std::uint64_t* remote,
                              std::uint64_t v);
  PostedHandle post_cas(int src, int dst, std::uint64_t* remote,
                        std::uint64_t expected, std::uint64_t desired);

  /// Block until `h` has retired; returns the op's value (previous value
  /// for atomics, 0 for reads/writes). Throws NetworkError if the op hard-
  /// failed. Waiting on a retired or default handle returns immediately.
  std::uint64_t wait(PostedHandle h);

  /// Retire every outstanding posted op of `node` (a full send-queue
  /// drain). Throws NetworkError if any unclaimed op hard-failed.
  void wait_all(int node);

  /// Outstanding (not yet retired) posted ops of `node`.
  std::size_t posted_pending(int node) const {
    return boxes_[node]->sendq.size();
  }

  /// Posted ops of `node` that hard-failed and were cleared by wait()/
  /// wait_all() since the last call; resets the count. Recovery paths use
  /// this to attribute a batch of banked failures (wait_all throws only the
  /// first) to `recovery.aborted_ops`.
  std::uint64_t take_aborted_posted(int node) {
    auto& box = *boxes_[node];
    const std::uint64_t n = box.posted_aborted;
    box.posted_aborted = 0;
    return n;
  }

  // --- Crash-stop support --------------------------------------------------

  /// Heartbeat probe from `src` toward `dst`: charges one small-message
  /// round on the *sender only* (a dead target participates in nothing)
  /// and reports whether `dst` is currently live. Consults only the crash
  /// schedule — never the fault RNG streams — so probing leaves the
  /// transient-fault pattern of a seed untouched.
  bool probe(int src, int dst);

  /// True if `node` is crash-stopped at the current virtual time (false
  /// when no crash schedule is attached).
  bool node_dead(int node) const {
    return faults_ && faults_->has_crashes() &&
           faults_->crashed(node, argosim::now());
  }

  /// Messages dropped at delivery because their sender had crash-stopped
  /// (the "no message from a dead epoch is applied" rule).
  std::uint64_t stale_msgs_dropped() const {
    return stale_msgs_dropped_.load(std::memory_order_relaxed);
  }

  // --- Fallible single-attempt variants -----------------------------------
  //
  // One wire attempt each: the caller is charged the attempt's full cost
  // whether it completes or not; on failure (injected fault) the op has no
  // remote effect and the caller owns recovery. Without a fault injector
  // they always succeed and cost exactly what the reliable verbs cost.

  bool try_read(int src, int dst, const void* remote, void* local,
                std::size_t n);
  bool try_write(int src, int dst, void* remote, const void* local,
                 std::size_t n);
  std::optional<std::uint64_t> try_fetch_or(int src, int dst,
                                            std::uint64_t* remote,
                                            std::uint64_t bits);
  std::optional<std::uint64_t> try_fetch_add(int src, int dst,
                                             std::uint64_t* remote,
                                             std::uint64_t v);
  std::optional<std::uint64_t> try_cas(int src, int dst, std::uint64_t* remote,
                                       std::uint64_t expected,
                                       std::uint64_t desired);
  std::optional<std::uint64_t> try_exchange(int src, int dst,
                                            std::uint64_t* remote,
                                            std::uint64_t desired);

  /// One dissemination round of the hierarchical barrier, issued by
  /// `node` toward `partner`: charged like a small one-sided notification
  /// (nic_overhead busy + msg_latency in flight) and retried under the
  /// RetryPolicy when faults are enabled.
  void barrier_round(int node, int partner);

  // --- Two-sided messages (require an active receiver on `dst`) ----------

  /// Post a message. The sender is charged posting + streaming time; the
  /// message becomes visible to receivers on `dst` after the wire latency.
  void send(Message msg);

  /// Charge the cost of sending a `payload_bytes` message from `src` to
  /// `dst` without enqueuing anything; returns the virtual time at which
  /// the message is delivered. Higher-level messaging layers (the MPI
  /// library) keep their own mailboxes but pay the same budget.
  Time charge_message(int src, int dst, std::size_t payload_bytes);

  /// Block until a message for `node` is deliverable, then return it.
  Message recv(int node);

  /// Like send(), but reports whether the message became deliverable:
  /// false means an injected fault dropped it after the sender paid the
  /// posting cost (never happens without a fault injector).
  bool try_send(Message msg);

  /// Non-blocking receive; returns an empty optional if nothing deliverable.
  std::optional<Message> try_recv(int node);

  /// Blocking receive with a virtual-time deadline: returns the message,
  /// or an empty optional if none became deliverable within `timeout`.
  std::optional<Message> recv_for(int node, Time timeout);

  /// True if a message is deliverable right now without blocking.
  bool poll(int node);

  // --- Statistics ---------------------------------------------------------

  const NodeNetStats& stats(int node) const { return boxes_[node]->stats; }
  NodeNetStats total_stats() const;
  void reset_stats();

  /// Completion-record / payload-buffer pool reuses vs fresh allocations
  /// across all nodes (host-side diagnostics; zero under ARGO_SLOW_PATHS
  /// hits, every acquisition a miss).
  std::uint64_t record_pool_hits() const {
    return rec_pool_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t record_pool_misses() const {
    return rec_pool_misses_.load(std::memory_order_relaxed);
  }

 private:
  /// What an RDMA read of `n` bytes costs when the memory is the reader's
  /// own node.
  Time local_read_cost(std::size_t n) const {
    return cfg_.mem_latency + cfg_.mem_copy(n);
  }

  /// Count an RDMA read of `n` bytes issued by `src` and return its local
  /// cost. read, try_read, post_read and poll_local all count and cost
  /// their reads through here, so a local poll step stays the exact image
  /// of a local read.
  Time count_read(int src, std::size_t n) {
    auto& s = boxes_[src]->stats;
    ++s.rdma_reads;
    s.bytes_read += n;
    return local_read_cost(n);
  }

  struct Pending {
    Time deliver_at;
    std::uint64_t seq;
    Message msg;
    bool operator>(const Pending& o) const {
      return deliver_at != o.deliver_at ? deliver_at > o.deliver_at
                                        : seq > o.seq;
    }
  };

  /// A posted op sitting in a node's send queue. `complete_at` already
  /// folds in NIC occupancy, wire latency, projected fault retries and the
  /// in-order constraint against earlier ops.
  struct Posted {
    std::uint64_t id;
    Time complete_at;
    bool hard_fail;
    const char* what;
    int dst;  ///< target node (error context)
    bool has_value;
    PostedEffectFn effect;  ///< applied at retirement (legacy)
    /// Sharded engine: the remote effect was shipped to dst's shard as a
    /// timestamped effect completing this record; retirement awaits it and
    /// runs `finish` (src-side copy-out / value extraction) instead of
    /// `effect`.
    std::shared_ptr<argosim::SimRecord> rec;
    FinishFn finish;
  };

  struct PostedFailure {
    const char* what;
    int dst;
  };

  struct NodeBox {
    argosim::SimMutex nic;
    std::priority_queue<Pending, std::vector<Pending>, std::greater<>> inbox;
    argosim::WaitQueue rx_waiters;
    NodeNetStats stats;
    std::deque<Posted> sendq;          // outstanding posted ops, post order
    std::uint64_t posted_next_id = 1;  // 0 is the inert handle
    std::map<std::uint64_t, std::uint64_t> posted_results;  // unclaimed values
    std::map<std::uint64_t, PostedFailure> posted_failed;   // unclaimed errors
    std::uint64_t posted_aborted = 0;  // failures cleared since last take
    // Sharded engine: per-source effect keys and per-destination inbox
    // sequence. effect_seq makes every (when, src, seq) cross-shard effect
    // key unique and post-ordered; rx_seq is assigned on the destination
    // shard in effect-key order, replacing the legacy global send_seq_.
    std::uint64_t effect_seq = 1;
    std::uint64_t rx_seq = 0;
    // Completion-record / payload-snapshot freelists (single-writer: every
    // op on this box runs on its node's shard). A slot whose use_count()
    // has fallen back to 1 is referenced by nobody but the pool and can be
    // reset and handed out again; disabled under ARGO_SLOW_PATHS so the
    // oracle keeps the seed's allocation pattern.
    std::vector<std::shared_ptr<argosim::SimRecord>> rec_pool;
    std::size_t rec_cursor = 0;
    std::vector<std::shared_ptr<std::vector<std::byte>>> buf_pool;
    std::size_t buf_cursor = 0;
  };

  /// Hold node `src`'s NIC for `busy` ns, then charge `extra_latency` more
  /// (time the op is in flight but the NIC is free again).
  void charge(int src, Time busy, Time extra_latency);

  /// Account one op initiated by `src` against the crash schedule (resolves
  /// "crash after N ops" triggers) and fail fast with NodeFailedError if
  /// `dst` is crash-stopped. A dead *source* never throws: its fibers are
  /// being reaped and must unwind only via SimStopped. No-op (and zero
  /// cost) without a crash schedule.
  void crash_check(int src, int dst, const char* what);

  /// Charge one remote-op attempt (streaming `stream_bytes`, completing
  /// after `base_latency`); returns false if an injected fault consumed it.
  /// Throws NodeFailedError (named `what`) when `dst` is crash-stopped.
  bool remote_attempt(int src, int dst, std::size_t stream_bytes,
                      Time base_latency, const char* what);

  /// Reliable remote op: retry remote_attempt under the RetryPolicy.
  /// Throws NetworkError when the budget is exhausted.
  void remote_op(int src, int dst, std::size_t stream_bytes,
                 Time base_latency, const char* what);

  /// Sharded-engine attempt: identical charges to remote_attempt, but a
  /// successful attempt ships `apply` to dst's shard as an effect executing
  /// exactly at the attempt's completion instant (NIC acquisition + busy +
  /// latency), filling and completing `rec`. Failed attempts post nothing.
  /// `apply` is consumed (moved into the effect) by a successful attempt —
  /// which is always the last one — and left intact by failed attempts.
  bool sharded_attempt(int src, int dst, std::size_t stream_bytes,
                       Time base_latency, const char* what,
                       const std::shared_ptr<argosim::SimRecord>& rec,
                       ApplyFn& apply);

  /// Reliable sharded remote op: retry sharded_attempt under the
  /// RetryPolicy (same loop as remote_op); returns the completion record.
  std::shared_ptr<argosim::SimRecord> sharded_op(int src, int dst,
                                                 std::size_t stream_bytes,
                                                 Time base_latency,
                                                 const char* what,
                                                 ApplyFn apply);

  /// Post one message-delivery effect on the destination's shard.
  void ship_message(Message msg, Time deliver_at);

  /// Core of the posted verbs: reclaim a queue slot if the pipeline is
  /// full, charge this op's NIC occupancy, project its completion time
  /// (including fault retries), and enqueue it. At depth 1, runs the
  /// blocking remote_op and returns an already-retired handle.
  /// `effect` is the legacy inline retirement effect; `dst_apply`/`finish`
  /// are the sharded split of the same work (remote half on dst's shard at
  /// the completion instant, src-side half at retirement).
  PostedHandle post_remote(int src, int dst, std::size_t stream_bytes,
                           Time base_latency, const char* what, bool has_value,
                           PostedEffectFn effect, ApplyFn dst_apply,
                           FinishFn finish);

  /// Pooled completion record / payload-snapshot buffer for `box`'s next
  /// op: reuses a free slot when one exists, else allocates (and grows the
  /// pool up to its cap). Fresh allocations under ARGO_SLOW_PATHS.
  std::shared_ptr<argosim::SimRecord> acquire_record(NodeBox& box);
  std::shared_ptr<std::vector<std::byte>> acquire_buf(NodeBox& box);

  /// Handle for an op that completed synchronously (local ops, depth 1).
  PostedHandle retired_handle(int src, bool has_value, std::uint64_t value);

  /// Retire the head of `src`'s send queue: sleep until its completion
  /// time, apply its effect, bank its value/failure for the owner's wait.
  void retire_front(int src);

  [[noreturn]] void throw_posted_failure(int node, PostedFailure f);

  void deliver(Message msg, Time deliver_at);

  /// Pop (and count) deliverable inbox messages whose sender has crash-
  /// stopped; returns once the top is live-sourced or not yet deliverable.
  void purge_stale(NodeBox& box);

  int nodes_;
  NetConfig cfg_;
  std::vector<std::unique_ptr<NodeBox>> boxes_;
  std::unique_ptr<FaultInjector> faults_;
  argoobs::Tracer* tracer_ = nullptr;
  std::uint64_t send_seq_ = 0;
  // Bumped by purge_stale, which runs on the receiving fiber's shard —
  // concurrent across shards under the parallel engine.
  std::atomic<std::uint64_t> stale_msgs_dropped_{0};
  // Pool diagnostics; bumped from every node's shard concurrently.
  std::atomic<std::uint64_t> rec_pool_hits_{0};
  std::atomic<std::uint64_t> rec_pool_misses_{0};
};

}  // namespace argonet
