// The simulator benchmark's three workloads, written against the public
// argo/*.hpp API, plus the host-time probe that attributes the simulate
// phase to the layers the workloads call into.
//
//  * LuWorkload  — the body of argoapps::lu_run_argo (Fig. 13a blocked LU).
//  * CgWorkload  — the body of argoapps::cg_run_argo (Fig. 13f CG), with a
//                  seed-rotated right-hand side (rotation 0 is the shipped
//                  one).
//  * PqWorkload  — the Fig. 12 priority queue on a DsmPairingHeap under an
//                  HqdLock, with a fixed operation count per thread.
//
// The LU and CG bodies repeat the shipped apps operation for operation
// (same allocation order, same loads, stores, barriers and compute
// charges), so they give the same virtual time and checksum;
// equiv_test.cpp holds them to that. The only additions are Span guards
// around every call into a layer, which cost one branch when the probe is
// off.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "argo/apps.hpp"
#include "argo/argo.hpp"
#include "argo/sim.hpp"
#include "argo/sync.hpp"

namespace simbench {

using argo::Cluster;
using argo::ClusterConfig;
using argo::gptr;
using argo::Thread;
using argosim::Time;

// ---------------------------------------------------------------------------
// Host-time attribution
// ---------------------------------------------------------------------------

/// Layers a span can name. kUncovered is everything inside Cluster::run
/// that no span covers; with kCompute (spans around Thread::compute) it
/// makes up the engine's share.
enum Layer : int {
  kUncovered,
  kCompute,
  kRead,
  kWrite,
  kBarrier,
  kHqdl,
  kKernel,
  kLayers
};

inline constexpr const char* kLayerNames[kLayers] = {
    "uncovered", "compute",   "core.read",  "core.write",
    "sync.barrier", "sync.hqdl", "apps.kernel"};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Attributes the host time of one Cluster::run to layers. Every simulated
/// thread (fiber) keeps its own stack of open spans; the host time between
/// two consecutive span events goes to the innermost open span of the fiber
/// that produced the earlier event (or to kUncovered when it had none). A fiber
/// only blocks inside a library call, and every such call is inside a span,
/// so the time up to a fiber switch is charged to the call that switched.
/// The self times therefore sum exactly to stop() minus start().
class Probe {
 public:
  bool on() const { return on_; }

  void start(int fibers, std::int64_t t0) {
    on_ = true;
    stacks_.assign(static_cast<std::size_t>(fibers), Stack{});
    self_.fill(0);
    last_ = t0;
    cur_ = -1;
  }
  void stop(std::int64_t t1) {
    charge(t1);
    on_ = false;
  }

  void enter(int fiber, Layer l) {
    charge(now_ns());
    Stack& s = stacks_[static_cast<std::size_t>(fiber)];
    s.layer[static_cast<std::size_t>(s.depth++)] = l;
    cur_ = fiber;
  }
  void exit(int fiber) {
    charge(now_ns());
    --stacks_[static_cast<std::size_t>(fiber)].depth;
    cur_ = fiber;
  }

  /// Self time per layer, in ns, of the last start()/stop() window.
  const std::array<std::int64_t, kLayers>& self_ns() const { return self_; }

 private:
  struct Stack {
    std::array<Layer, 8> layer{};
    int depth = 0;
  };
  void charge(std::int64_t now) {
    Layer top = kUncovered;
    if (cur_ >= 0) {
      const Stack& s = stacks_[static_cast<std::size_t>(cur_)];
      if (s.depth > 0) top = s.layer[static_cast<std::size_t>(s.depth - 1)];
    }
    self_[top] += now - last_;
    last_ = now;
  }

  bool on_ = false;
  std::vector<Stack> stacks_;
  std::array<std::int64_t, kLayers> self_{};
  std::int64_t last_ = 0;
  int cur_ = -1;
};

/// Scoped span on the fiber running `t`; free when the probe is off.
class Span {
 public:
  Span(Probe& p, const Thread& t, Layer l)
      : p_(p.on() ? &p : nullptr), fiber_(t.gid()) {
    if (p_ != nullptr) p_->enter(fiber_, l);
  }
  ~Span() {
    if (p_ != nullptr) p_->exit(fiber_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Probe* p_;
  int fiber_;
};

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

/// Host times of the set-up steps after Cluster construction.
struct SetupTimes {
  std::int64_t init_ns = 0;   ///< alloc + host init of global memory
  std::int64_t reset_ns = 0;  ///< Cluster::reset_classification
};

/// Result of checking one run's outputs against the host reference.
struct Check {
  bool ok = true;
  std::string error;
  /// Output words that must repeat exactly from run to run.
  std::map<std::string, std::uint64_t> outputs;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual ClusterConfig config() const = 0;
  /// Allocate, generate inputs, initialise host memory, reset the
  /// classification. Everything a run needs before Cluster::run.
  virtual SetupTimes init(Cluster& cl) = 0;
  /// The simulate phase: exactly one Cluster::run.
  virtual Time simulate(Cluster& cl, Probe& probe) = 0;
  /// Compare the run's outputs with the reference computed at construction.
  virtual Check check(Cluster& cl) = 0;
  /// Exact counts the workload itself kept (barrier episodes, HQDL stats).
  virtual std::map<std::string, std::uint64_t> counts() const = 0;
  /// Drop everything that refers to the cluster, before it is destroyed.
  virtual void release() {}
};

/// The shipped benches' paper configuration: P/S3, 16384 lines of 4 pages,
/// an 8192-page write buffer, and the library's default engine selection.
inline ClusterConfig paper_config(int nodes, int tpn, std::size_t mem_bytes,
                                  int pipeline) {
  ClusterConfig c;
  c.nodes = nodes;
  c.threads_per_node = tpn;
  c.global_mem_bytes = mem_bytes;
  c.cache.classification = argo::Mode::PS3;
  c.cache.cache_lines = 16384;
  c.cache.pages_per_line = 4;
  c.cache.write_buffer_pages = 8192;
  c.net.pipeline = pipeline;
  return c;
}

inline double rel_err(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Sum `count` elements at `p` through per-page load spans.
inline double span_sum(Probe& pr, Thread& t, gptr<double> p,
                       std::size_t count) {
  double total = 0;
  while (count > 0) {
    std::span<const double> sp;
    {
      Span s(pr, t, kRead);
      sp = t.load_span(p, count);
    }
    Span s(pr, t, kKernel);
    for (double v : sp) total += v;
    p += static_cast<std::ptrdiff_t>(sp.size());
    count -= sp.size();
  }
  return total;
}

/// A Vela barrier under a span; gid 0 counts the episodes.
inline void barrier(Probe& pr, Thread& t, std::uint64_t& episodes) {
  if (t.gid() == 0) ++episodes;
  Span s(pr, t, kBarrier);
  t.barrier();
}

inline void compute(Probe& pr, Thread& t, Time ns) {
  Span s(pr, t, kCompute);
  t.compute(ns);
}

// ---------------------------------------------------------------------------
// LU (Fig. 13a)
// ---------------------------------------------------------------------------

namespace lu {

// The four block kernels of src/apps/lu.cpp, in the same operation order.

inline void factor_diag(double* d, std::size_t b) {
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = j + 1; i < b; ++i) {
      d[i * b + j] /= d[j * b + j];
      const double lij = d[i * b + j];
      for (std::size_t k = j + 1; k < b; ++k) d[i * b + k] -= lij * d[j * b + k];
    }
}

inline void bdiv(double* a, const double* diag, std::size_t b) {
  for (std::size_t i = 0; i < b; ++i)
    for (std::size_t j = 0; j < b; ++j) {
      a[i * b + j] /= diag[j * b + j];
      const double aij = a[i * b + j];
      for (std::size_t k = j + 1; k < b; ++k)
        a[i * b + k] -= aij * diag[j * b + k];
    }
}

inline void bmodd(double* a, const double* diag, std::size_t b) {
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = j + 1; i < b; ++i) {
      const double lij = diag[i * b + j];
      for (std::size_t c = 0; c < b; ++c) a[i * b + c] -= lij * a[j * b + c];
    }
}

inline void bmod(double* a, const double* l, const double* u, std::size_t b) {
  for (std::size_t i = 0; i < b; ++i)
    for (std::size_t k = 0; k < b; ++k) {
      const double lik = l[i * b + k];
      for (std::size_t j = 0; j < b; ++j) a[i * b + j] -= lik * u[k * b + j];
    }
}

/// 2D scatter of blocks over a pr×pc thread grid (pr·pc == threads).
struct Scatter {
  int pr = 1, pc = 1;
  explicit Scatter(int threads) {
    for (int d = static_cast<int>(std::sqrt(threads)); d >= 1; --d)
      if (threads % d == 0) {
        pr = d;
        break;
      }
    pc = threads / pr;
  }
  int owner(std::size_t bi, std::size_t bj) const {
    return static_cast<int>(bi % static_cast<std::size_t>(pr)) * pc +
           static_cast<int>(bj % static_cast<std::size_t>(pc));
  }
};

}  // namespace lu

class LuWorkload : public Workload {
 public:
  LuWorkload(ClusterConfig cfg, argoapps::LuParams p)
      : cfg_(cfg), p_(p), reference_(argoapps::lu_reference(p)) {}

  ClusterConfig config() const override { return cfg_; }

  SetupTimes init(Cluster& cl) override {
    SetupTimes st;
    const std::vector<double> input = argoapps::lu_make_input(p_);
    const std::int64_t t0 = now_ns();
    result_ = cl.alloc<double>(1);
    partial_ = cl.alloc<double>(static_cast<std::size_t>(cl.nthreads()));
    mat_ = cl.alloc<double>(p_.n * p_.n);
    std::copy(input.begin(), input.end(), cl.host_ptr(mat_));
    const std::int64_t t1 = now_ns();
    cl.reset_classification();
    st.init_ns = t1 - t0;
    st.reset_ns = now_ns() - t1;
    barriers_ = 0;
    return st;
  }

  Time simulate(Cluster& cl, Probe& pr) override {
    const std::size_t b = p_.block, nb = p_.n / b;
    return cl.run([&](Thread& t) {
      const lu::Scatter sc(t.nthreads());
      auto mine = [&](std::size_t bi, std::size_t bj) {
        return sc.owner(bi, bj) == t.gid();
      };
      auto block = [&](std::size_t bi, std::size_t bj) {
        return mat_ + static_cast<std::ptrdiff_t>((bi * nb + bj) * b * b);
      };
      auto load = [&](std::size_t bi, std::size_t bj, double* out) {
        Span s(pr, t, kRead);
        t.load_bulk(block(bi, bj), out, b * b);
      };
      auto store = [&](std::size_t bi, std::size_t bj, const double* in) {
        Span s(pr, t, kWrite);
        t.store_bulk(block(bi, bj), in, b * b);
      };
      auto charge = [&](Time c) { compute(pr, t, c * p_.ns_per_mac); };

      std::vector<double> diag(b * b), work(b * b), lblk(b * b), ublk(b * b);
      const auto b3 = static_cast<Time>(b * b * b);
      for (std::size_t k = 0; k < nb; ++k) {
        if (mine(k, k)) {
          load(k, k, diag.data());
          {
            Span s(pr, t, kKernel);
            lu::factor_diag(diag.data(), b);
          }
          charge(b3 / 3);
          store(k, k, diag.data());
        }
        barrier(pr, t, barriers_);
        bool have_diag = false;
        for (std::size_t i = k + 1; i < nb; ++i) {
          if (mine(i, k)) {
            if (!have_diag) {
              load(k, k, diag.data());
              have_diag = true;
            }
            load(i, k, work.data());
            {
              Span s(pr, t, kKernel);
              lu::bdiv(work.data(), diag.data(), b);
            }
            charge(b3 / 2);
            store(i, k, work.data());
          }
          if (mine(k, i)) {
            if (!have_diag) {
              load(k, k, diag.data());
              have_diag = true;
            }
            load(k, i, work.data());
            {
              Span s(pr, t, kKernel);
              lu::bmodd(work.data(), diag.data(), b);
            }
            charge(b3 / 2);
            store(k, i, work.data());
          }
        }
        barrier(pr, t, barriers_);
        for (std::size_t i = k + 1; i < nb; ++i) {
          bool have_l = false;
          for (std::size_t j = k + 1; j < nb; ++j) {
            if (!mine(i, j)) continue;
            if (!have_l) {
              load(i, k, lblk.data());
              have_l = true;
            }
            load(k, j, ublk.data());
            load(i, j, work.data());
            {
              Span s(pr, t, kKernel);
              lu::bmod(work.data(), lblk.data(), ublk.data(), b);
            }
            charge(b3);
            store(i, j, work.data());
          }
        }
        barrier(pr, t, barriers_);
      }
      double sum = 0;
      for (std::size_t bi = 0; bi < nb; ++bi)
        for (std::size_t bj = 0; bj < nb; ++bj)
          if (mine(bi, bj)) sum += span_sum(pr, t, block(bi, bj), b * b);
      {
        Span s(pr, t, kWrite);
        t.store(partial_ + t.gid(), sum);
      }
      barrier(pr, t, barriers_);
      if (t.gid() == 0) {
        const double total = span_sum(
            pr, t, partial_, static_cast<std::size_t>(t.nthreads()));
        Span s(pr, t, kWrite);
        t.store(result_, total);
      }
    });
  }

  Check check(Cluster& cl) override {
    Check c;
    const double sum = *cl.host_ptr(result_);
    c.outputs["lu.checksum"] = bits(sum);
    // The factors are identical; the checksum is reassociated per owner.
    if (!(rel_err(sum, reference_) < 1e-12)) {
      c.ok = false;
      c.error = "lu checksum " + std::to_string(sum) + " != lu_reference " +
                std::to_string(reference_);
    }
    return c;
  }

  std::map<std::string, std::uint64_t> counts() const override {
    return {{"sync.barriers", barriers_}};
  }

 private:
  ClusterConfig cfg_;
  argoapps::LuParams p_;
  double reference_;
  gptr<double> result_, partial_, mat_;
  std::uint64_t barriers_ = 0;
};

// ---------------------------------------------------------------------------
// CG (Fig. 13f)
// ---------------------------------------------------------------------------

namespace cg {

/// Right-hand side. Rotation 0 is src/apps/cg.cpp's cg_b; the benchmark
/// derives the rotation from its seed.
inline double rhs(std::size_t i, std::size_t rot) {
  return 1.0 + 0.1 * static_cast<double>((i + rot) % 17);
}

inline double rho0(std::size_t n, std::size_t rot) {
  double s = 0;
  for (std::size_t i = 0; i < n; ++i) s += rhs(i, rot) * rhs(i, rot);
  return s;
}

/// argoapps::cg_reference with a rotated right-hand side; identical to it
/// at rotation 0 (equiv_test.cpp checks this bit for bit).
inline argoapps::CgResult reference(const argoapps::CgParams& prm,
                                    std::size_t rot) {
  const std::size_t n = prm.n;
  std::vector<double> x(n, 0.0), r(n), p(n), q(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = r[i] = rhs(i, rot);
  double rho = rho0(n, rot);
  for (int it = 0; it < prm.iterations; ++it) {
    argoapps::CgMatrix::spmv_rows(p.data(), q.data(), n, 0, n);
    double pq = 0;
    for (std::size_t i = 0; i < n; ++i) pq += p[i] * q[i];
    const double alpha = rho / pq;
    double rr = 0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
      rr += r[i] * r[i];
    }
    const double beta = rr / rho;
    rho = rr;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
  }
  argoapps::CgResult res;
  res.final_rho = rho;
  for (double v : x) res.x_checksum += v;
  return res;
}

}  // namespace cg

class CgWorkload : public Workload {
 public:
  CgWorkload(ClusterConfig cfg, argoapps::CgParams p, std::size_t rot)
      : cfg_(cfg), p_(p), rot_(rot), reference_(cg::reference(p, rot)) {}

  ClusterConfig config() const override { return cfg_; }

  SetupTimes init(Cluster& cl) override {
    SetupTimes st;
    const std::size_t n = p_.n;
    const auto nt = static_cast<std::size_t>(cl.nthreads());
    const std::int64_t t0 = now_ns();
    result_ = cl.alloc<double>(2);
    part_pq_ = cl.alloc<double>(nt);
    part_rr_ = cl.alloc<double>(nt);
    part_x_ = cl.alloc<double>(nt);
    gp_ = cl.alloc<double>(n);
    gx_ = cl.alloc<double>(n);
    gr_ = cl.alloc<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      cl.host_ptr(gp_)[i] = cg::rhs(i, rot_);
      cl.host_ptr(gx_)[i] = 0.0;
      cl.host_ptr(gr_)[i] = cg::rhs(i, rot_);
    }
    const std::int64_t t1 = now_ns();
    cl.reset_classification();
    st.init_ns = t1 - t0;
    st.reset_ns = now_ns() - t1;
    barriers_ = 0;
    return st;
  }

  Time simulate(Cluster& cl, Probe& pr) override {
    const std::size_t n = p_.n;
    const argoapps::CgParams& prm = p_;
    auto spmv_cost = [&](std::size_t rows) {
      return static_cast<Time>(rows * argoapps::CgMatrix::nnz_per_row()) *
             prm.ns_per_nnz;
    };
    auto vec_cost = [&](std::size_t elems) {
      return static_cast<Time>(elems) * prm.ns_per_flop;
    };
    return cl.run([&](Thread& t) {
      const auto T = static_cast<std::size_t>(t.nthreads());
      const auto g = static_cast<std::size_t>(t.gid());
      const std::size_t lo = n * g / T, hi = n * (g + 1) / T;
      const std::size_t cnt = hi - lo;
      auto at = [](gptr<double> base, std::size_t i) {
        return base + static_cast<std::ptrdiff_t>(i);
      };
      auto store1 = [&](gptr<double> dst, double v) {
        Span s(pr, t, kWrite);
        t.store(dst, v);
      };
      std::vector<double> p(n), x(cnt), r(cnt), q(cnt);
      {
        Span s(pr, t, kRead);
        t.load_bulk(at(gx_, lo), x.data(), cnt);
        t.load_bulk(at(gr_, lo), r.data(), cnt);
      }
      double rho = cg::rho0(n, rot_);
      for (int it = 0; it < prm.iterations; ++it) {
        {
          Span s(pr, t, kRead);
          t.load_bulk(gp_, p.data(), n);  // whole direction vector
        }
        {
          Span s(pr, t, kKernel);
          argoapps::CgMatrix::spmv_rows(p.data(), q.data(), n, lo, hi);
        }
        compute(pr, t, spmv_cost(cnt));
        double pq = 0;
        {
          Span s(pr, t, kKernel);
          for (std::size_t i = 0; i < cnt; ++i) pq += p[lo + i] * q[i];
        }
        compute(pr, t, vec_cost(cnt));
        store1(at(part_pq_, g), pq);
        barrier(pr, t, barriers_);
        const double alpha = rho / span_sum(pr, t, part_pq_, T);
        double rr = 0;
        for (std::size_t i = 0; i < cnt; i += 64) {
          const std::size_t end = std::min(cnt, i + 64);
          {
            Span s(pr, t, kKernel);
            for (std::size_t j = i; j < end; ++j) {
              x[j] += alpha * p[lo + j];
              r[j] -= alpha * q[j];
              rr += r[j] * r[j];
            }
          }
          compute(pr, t, vec_cost(3 * (end - i)));
          Span s(pr, t, kWrite);
          t.store_bulk(at(gx_, lo + i), x.data() + i, end - i);
          t.store_bulk(at(gr_, lo + i), r.data() + i, end - i);
        }
        store1(at(part_rr_, g), rr);
        barrier(pr, t, barriers_);
        const double rr_tot = span_sum(pr, t, part_rr_, T);
        const double beta = rr_tot / rho;
        rho = rr_tot;
        for (std::size_t i = 0; i < cnt; i += 64) {
          const std::size_t end = std::min(cnt, i + 64);
          {
            Span s(pr, t, kKernel);
            for (std::size_t j = i; j < end; ++j)
              p[lo + j] = r[j] + beta * p[lo + j];
          }
          compute(pr, t, vec_cost(end - i));
          Span s(pr, t, kWrite);
          t.store_bulk(at(gp_, lo + i), p.data() + lo + i, end - i);
        }
        barrier(pr, t, barriers_);  // p complete before the next SpMV
      }
      double xs = 0;
      {
        Span s(pr, t, kKernel);
        for (double v : x) xs += v;
      }
      store1(at(part_x_, g), xs);
      barrier(pr, t, barriers_);
      if (t.gid() == 0) {
        store1(result_, rho);
        store1(at(result_, 1), span_sum(pr, t, part_x_, T));
      }
      barrier(pr, t, barriers_);
    });
  }

  Check check(Cluster& cl) override {
    Check c;
    const double rho = cl.host_ptr(result_)[0];
    const double xs = cl.host_ptr(result_)[1];
    c.outputs["cg.final_rho"] = bits(rho);
    c.outputs["cg.x_checksum"] = bits(xs);
    if (!(rel_err(rho, reference_.final_rho) < 1e-9) ||
        !(rel_err(xs, reference_.x_checksum) < 1e-9)) {
      c.ok = false;
      c.error = "cg (rho " + std::to_string(rho) + ", x " + std::to_string(xs) +
                ") != reference (" + std::to_string(reference_.final_rho) +
                ", " + std::to_string(reference_.x_checksum) + ")";
    }
    return c;
  }

  std::map<std::string, std::uint64_t> counts() const override {
    return {{"sync.barriers", barriers_}};
  }

 private:
  ClusterConfig cfg_;
  argoapps::CgParams p_;
  std::size_t rot_;
  argoapps::CgResult reference_;
  gptr<double> result_, part_pq_, part_rr_, part_x_, gp_, gx_, gr_;
  std::uint64_t barriers_ = 0;
};

// ---------------------------------------------------------------------------
// Priority queue under HQDL (Fig. 12)
// ---------------------------------------------------------------------------

/// The shipped Fig. 12 parameters (work units, op compute, prefill, seed)
/// with a fixed operation count in place of the shipped virtual window
/// (`shipped.duration` is unused), so the simulated work stays constant
/// across model changes.
struct PqParams {
  argoapps::PqParams shipped;
  int ops_per_thread = 8;  ///< fixed count, half insert, half extract-min
};

class PqWorkload : public Workload {
 public:
  PqWorkload(ClusterConfig cfg, PqParams p) : cfg_(cfg), p_(p) {}

  ClusterConfig config() const override { return cfg_; }

  SetupTimes init(Cluster& cl) override {
    SetupTimes st;
    const std::int64_t t0 = now_ns();
    const auto total_ops = static_cast<std::size_t>(cl.nthreads()) *
                           static_cast<std::size_t>(p_.ops_per_thread);
    heap_ = std::make_unique<argoapps::DsmPairingHeap>(
        cl, p_.shipped.prefill + total_ops);
    hqdl_ = std::make_unique<argosync::HqdLock>(cl);
    const std::int64_t t1 = now_ns();
    cl.reset_classification();
    st.init_ns = t1 - t0;
    st.reset_ns = now_ns() - t1;
    done_.assign(static_cast<std::size_t>(cl.nthreads()), 0);
    tally_ = Tally{};
    barriers_ = 0;
    return st;
  }

  Time simulate(Cluster& cl, Probe& pr) override {
    argoapps::DsmPairingHeap& heap = *heap_;
    Tally& tally = tally_;
    return cl.run([&](Thread& t) {
      if (t.gid() == 0) {
        argosim::Rng rng(p_.shipped.seed);
        Span s(pr, t, kKernel);
        for (std::size_t i = 0; i < p_.shipped.prefill; ++i)
          heap.insert(t, rng.next_u64() >> 16);
      }
      barrier(pr, t, barriers_);
      // Exactly half of each thread's operations are inserts, in an order
      // drawn from the seed: the slowest thread, which sets the virtual
      // time, then does the same work as every other.
      argosim::Rng rng(p_.shipped.seed +
                       static_cast<std::uint64_t>(t.gid()) + 1);
      std::vector<std::uint8_t> inserts(
          static_cast<std::size_t>(p_.ops_per_thread));
      for (std::size_t i = 0; i < inserts.size(); ++i) {
        inserts[i] = i % 2 == 0;
        std::swap(inserts[i], inserts[rng.next_below(i + 1)]);
      }
      for (int op = 0; op < p_.ops_per_thread; ++op) {
        compute(pr, t,
                static_cast<Time>(p_.shipped.work_units) *
                    p_.shipped.ns_per_unit);
        const bool is_insert = inserts[static_cast<std::size_t>(op)] != 0;
        const std::uint64_t key = rng.next_u64() >> 16;
        (is_insert ? tally.insert_issued : tally.extract_issued)++;
        auto cs = [&heap, &pr, &tally, this, is_insert, key](Thread& exec) {
          {
            Span s(pr, exec, kKernel);
            if (is_insert) {
              heap.insert(exec, key);
              ++tally.inserted;
            } else if (heap.extract_min(exec)) {
              ++tally.extracted;
            } else {
              ++tally.empty;
            }
          }
          compute(pr, exec, p_.shipped.op_compute);
        };
        Span s(pr, t, kHqdl);
        hqdl_->execute(t, cs, /*wait=*/!is_insert);
      }
      done_[static_cast<std::size_t>(t.gid())] =
          static_cast<std::uint64_t>(p_.ops_per_thread);
      barrier(pr, t, barriers_);
      if (t.gid() == 0) {
        Span s(pr, t, kKernel);
        final_size_ = heap.size(t);
      }
    });
  }

  Check check(Cluster&) override {
    Check c;
    c.outputs["pq.final_size"] = final_size_;
    c.outputs["pq.inserted"] = tally_.inserted;
    c.outputs["pq.extracted"] = tally_.extracted;
    auto fail = [&](const std::string& why) {
      if (c.ok) c.error = why;
      c.ok = false;
    };
    for (std::uint64_t d : done_)
      if (d != static_cast<std::uint64_t>(p_.ops_per_thread))
        fail("a thread did not complete its operation count");
    if (tally_.inserted != tally_.insert_issued ||
        tally_.extracted + tally_.empty != tally_.extract_issued)
      fail("not every issued operation executed exactly once");
    if (tally_.empty != 0) fail("extract_min found the heap empty");
    if (final_size_ !=
        p_.shipped.prefill + tally_.inserted - tally_.extracted)
      fail("final heap size " + std::to_string(final_size_) +
           " != prefill + inserts - extracts");
    return c;
  }

  std::map<std::string, std::uint64_t> counts() const override {
    const argosync::DelegationStats s = hqdl_->total_stats();
    return {{"sync.barriers", barriers_},
            {"hqdl.batches", s.batches},
            {"hqdl.executed", s.executed},
            {"hqdl.delegated", s.delegated}};
  }

  void release() override {
    hqdl_.reset();
    heap_.reset();
  }

 private:
  struct Tally {
    std::uint64_t insert_issued = 0, extract_issued = 0;
    std::uint64_t inserted = 0, extracted = 0, empty = 0;
  };
  ClusterConfig cfg_;
  PqParams p_;
  std::unique_ptr<argoapps::DsmPairingHeap> heap_;
  std::unique_ptr<argosync::HqdLock> hqdl_;
  std::vector<std::uint64_t> done_;
  Tally tally_;
  std::uint64_t final_size_ = 0;
  std::uint64_t barriers_ = 0;
};

}  // namespace simbench
