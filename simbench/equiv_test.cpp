// The benchmark must measure the shipped apps' traffic, not a look-alike:
// at a small size its LU and CG bodies give the same virtual time,
// checksum and protocol counters as argoapps::lu_run_argo and
// argoapps::cg_run_argo under the same ClusterConfig. The probe must not
// change any of that, and its self times must add up to the window.
#include <gtest/gtest.h>

#include "workloads.hpp"

namespace simbench {
namespace {

/// Every protocol counter (the sim.* host diagnostics aside).
std::map<std::string, std::uint64_t> protocol_counters(const Cluster& cl) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& s : cl.stats().counters)
    if (s.name.rfind("sim.", 0) != 0) out[s.name] = s.value;
  return out;
}

struct Outcome {
  Time virtual_ns = 0;
  std::map<std::string, std::uint64_t> counters;
  Check check;
};

Outcome run_body(Workload& w, Probe& probe) {
  Cluster cl(w.config());
  w.init(cl);
  Outcome o;
  o.virtual_ns = w.simulate(cl, probe);
  o.counters = protocol_counters(cl);
  o.check = w.check(cl);
  w.release();
  return o;
}

ClusterConfig small_config(int pipeline) {
  return paper_config(4, 3, 8u << 20, pipeline);
}

TEST(Equivalence, LuBodyMatchesShippedLu) {
  argoapps::LuParams p;
  p.n = 192;
  p.block = 32;
  p.seed = 5;
  for (int pipeline : {1, 16}) {
    Cluster shipped(small_config(pipeline));
    const argoapps::LuResult ref = argoapps::lu_run_argo(shipped, p);

    LuWorkload w(small_config(pipeline), p);
    Probe probe;
    const Outcome o = run_body(w, probe);
    EXPECT_EQ(o.virtual_ns, ref.elapsed) << "pipeline " << pipeline;
    ASSERT_TRUE(o.check.ok) << o.check.error;
    EXPECT_EQ(o.check.outputs.at("lu.checksum"), bits(ref.checksum));
    EXPECT_EQ(o.counters, protocol_counters(shipped));
  }
}

TEST(Equivalence, CgBodyMatchesShippedCg) {
  argoapps::CgParams p;
  p.n = 2048;
  p.iterations = 4;
  for (int pipeline : {1, 16}) {
    Cluster shipped(small_config(pipeline));
    const argoapps::CgResult ref = argoapps::cg_run_argo(shipped, p);

    CgWorkload w(small_config(pipeline), p, /*rot=*/0);
    Probe probe;
    const Outcome o = run_body(w, probe);
    EXPECT_EQ(o.virtual_ns, ref.elapsed) << "pipeline " << pipeline;
    ASSERT_TRUE(o.check.ok) << o.check.error;
    EXPECT_EQ(o.check.outputs.at("cg.final_rho"), bits(ref.final_rho));
    EXPECT_EQ(o.check.outputs.at("cg.x_checksum"), bits(ref.x_checksum));
    EXPECT_EQ(o.counters, protocol_counters(shipped));
  }
}

TEST(Equivalence, CgReferenceAtRotationZeroIsShippedReference) {
  argoapps::CgParams p;
  p.n = 1024;
  p.iterations = 8;
  const argoapps::CgResult a = cg::reference(p, 0);
  const argoapps::CgResult b = argoapps::cg_reference(p);
  EXPECT_EQ(bits(a.final_rho), bits(b.final_rho));
  EXPECT_EQ(bits(a.x_checksum), bits(b.x_checksum));
}

TEST(Equivalence, RotatedCgStillMatchesItsReference) {
  argoapps::CgParams p;
  p.n = 2048;
  p.iterations = 4;
  CgWorkload w(small_config(1), p, /*rot=*/9);
  Probe probe;
  const Outcome o = run_body(w, probe);
  EXPECT_TRUE(o.check.ok) << o.check.error;
}

TEST(Probe, TracingChangesNothingAndSelfTimesAddUp) {
  PqParams p;
  p.ops_per_thread = 24;
  p.shipped.prefill = 256;
  PqWorkload w(small_config(1), p);
  Probe off;
  const Outcome untraced = run_body(w, off);
  ASSERT_TRUE(untraced.check.ok) << untraced.check.error;

  Cluster cl(w.config());
  w.init(cl);
  Probe on;
  const std::int64_t t0 = now_ns();
  on.start(cl.nthreads(), t0);
  const Time v = w.simulate(cl, on);
  const std::int64_t t1 = now_ns();
  on.stop(t1);
  const Check c = w.check(cl);
  EXPECT_EQ(v, untraced.virtual_ns);
  EXPECT_EQ(protocol_counters(cl), untraced.counters);
  EXPECT_EQ(c.outputs, untraced.check.outputs);
  std::int64_t sum = 0;
  for (std::int64_t ns : on.self_ns()) {
    EXPECT_GE(ns, 0);
    sum += ns;
  }
  EXPECT_EQ(sum, t1 - t0);
  EXPECT_GT(on.self_ns()[kHqdl], 0);
  EXPECT_GT(on.self_ns()[kKernel], 0);
  w.release();
}

}  // namespace
}  // namespace simbench
