// Tests for the campaign engine: the thread pool substrate, the
// streaming statistics (single-pass Pearson / TVLA accumulators and
// their merges), and the end-to-end determinism contract — a DPA
// campaign is bit-identical at 1 thread / 1 lane and at max threads /
// max lanes, and the streaming attack recovers exactly the same bits as
// the PR 2 reference loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/thread_pool.h"
#include "rng/xoshiro.h"
#include "sidechannel/dpa.h"
#include "sidechannel/trace_sim.h"
#include "sidechannel/tvla.h"

namespace {

using medsec::core::ThreadPool;
using medsec::ecc::Curve;
using medsec::ecc::Scalar;
using medsec::rng::Xoshiro256;
namespace sc = medsec::sidechannel;

// --- thread pool ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      // A worker task issuing its own parallel_for must make progress
      // even with every worker busy (the caller participates).
      pool.parallel_for(8, 1, [&](std::size_t b2, std::size_t e2) {
        total.fetch_add(static_cast<int>(e2 - b2));
      });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(16, 1,
                                 [&](std::size_t b, std::size_t) {
                                   if (b == 5)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

// --- streaming statistics ---------------------------------------------------

TEST(Streaming, PearsonAccMatchesTwoPassPearson) {
  Xoshiro256 rng(3);
  std::vector<double> x(500), y(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = sc::gaussian(rng, 2.0);
    y[i] = 0.4 * x[i] + sc::gaussian(rng, 1.0);
  }
  sc::PearsonAcc one;
  for (std::size_t i = 0; i < x.size(); ++i) one.add(x[i], y[i]);
  EXPECT_NEAR(one.correlation(), sc::pearson(x, y), 1e-12);

  // Blocked accumulation + in-order merge agrees with the single pass.
  sc::PearsonAcc merged;
  for (std::size_t b = 0; b < x.size(); b += 64) {
    sc::PearsonAcc blk;
    for (std::size_t i = b; i < std::min(x.size(), b + 64); ++i)
      blk.add(x[i], y[i]);
    merged.merge(blk);
  }
  EXPECT_NEAR(merged.correlation(), sc::pearson(x, y), 1e-12);
  EXPECT_EQ(merged.count(), x.size());

  sc::PearsonAcc degenerate;
  degenerate.add(1.0, 2.0);
  EXPECT_DOUBLE_EQ(degenerate.correlation(), 0.0);
}

TEST(Streaming, RunningStatsMergeMatchesSinglePass) {
  Xoshiro256 rng(4);
  std::vector<double> xs(300);
  for (double& v : xs) v = sc::gaussian(rng, 5.0) + 1.0;
  sc::RunningStats ref;
  for (const double v : xs) ref.add(v);
  sc::RunningStats merged, a, b;
  for (std::size_t i = 0; i < xs.size(); ++i) (i < 100 ? a : b).add(xs[i]);
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), ref.count());
  EXPECT_NEAR(merged.mean(), ref.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), ref.variance(), 1e-10);
  sc::RunningStats empty;
  merged.merge(empty);  // no-op
  EXPECT_EQ(merged.count(), ref.count());
}

TEST(Streaming, TvlaParallelBitIdenticalToSerial) {
  Xoshiro256 rng(5);
  sc::TraceSet fixed, random;
  for (int t = 0; t < 150; ++t) {
    sc::Trace f(40), r(40);
    for (int i = 0; i < 40; ++i) {
      f[i] = sc::gaussian(rng, 1.0) + (i == 7 ? 0.8 : 0.0);
      r[i] = sc::gaussian(rng, 1.0);
    }
    fixed.traces.push_back(std::move(f));
    random.traces.push_back(std::move(r));
  }
  const auto serial = sc::tvla_fixed_vs_random(fixed, random, 4.5);
  ThreadPool pool(4);
  const auto parallel = sc::tvla_fixed_vs_random(fixed, random, 4.5, &pool);
  ASSERT_EQ(serial.t_values.size(), parallel.t_values.size());
  for (std::size_t i = 0; i < serial.t_values.size(); ++i)
    ASSERT_EQ(serial.t_values[i], parallel.t_values[i]) << "point " << i;
  EXPECT_EQ(serial.points_over_threshold, parallel.points_over_threshold);
  EXPECT_TRUE(serial.leaks());  // the planted difference at point 7
}

// --- campaign determinism ---------------------------------------------------

TEST(CampaignDeterminism, TracesBitIdenticalAcrossThreadsAndLanes) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(6);
  const Scalar k = rng.uniform_nonzero(c.order());

  // White-box scenario: exercises base points, randomizers and noise.
  sc::AlgorithmicSimConfig serial_cfg;
  serial_cfg.seed = 77;
  serial_cfg.threads = 1;
  serial_cfg.lanes = 1;
  sc::AlgorithmicSimConfig wide_cfg = serial_cfg;
  wide_cfg.threads = 0;  // every hardware thread
  wide_cfg.lanes = 64;   // max lane width

  const auto a = sc::generate_dpa_traces(
      c, k, 600, sc::RpcScenario::kEnabledKnownRandomness, serial_cfg);
  const auto b = sc::generate_dpa_traces(
      c, k, 600, sc::RpcScenario::kEnabledKnownRandomness, wide_cfg);

  ASSERT_EQ(a.traces.traces.size(), b.traces.traces.size());
  for (std::size_t j = 0; j < a.traces.traces.size(); ++j) {
    ASSERT_EQ(a.base_points[j], b.base_points[j]) << "trace " << j;
    ASSERT_EQ(a.known_randomizers[j], b.known_randomizers[j]) << j;
    ASSERT_EQ(a.traces.traces[j], b.traces.traces[j])
        << "trace " << j << " not bit-identical";
  }

  // The attack agrees too — bits AND statistic values.
  sc::DpaConfig cfg_serial;
  cfg_serial.bits_to_attack = 12;
  cfg_serial.threads = 1;
  cfg_serial.lanes = 1;
  sc::DpaConfig cfg_wide = cfg_serial;
  cfg_wide.threads = 0;
  cfg_wide.lanes = 64;
  const auto ra = sc::ladder_dpa_attack(c, a, cfg_serial);
  const auto rb = sc::ladder_dpa_attack(c, b, cfg_wide);
  EXPECT_EQ(ra.recovered_bits, rb.recovered_bits);
  EXPECT_EQ(ra.stat_correct_hyp, rb.stat_correct_hyp);
  EXPECT_EQ(ra.stat_rejected_hyp, rb.stat_rejected_hyp);
}

TEST(CampaignDeterminism, FixedBasePointCampaignIsDeterministic) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(8);
  const Scalar k = rng.uniform_nonzero(c.order());
  sc::AlgorithmicSimConfig one;
  one.seed = 5;
  one.fixed_base_point = c.base_point();
  one.threads = 1;
  one.lanes = 1;
  sc::AlgorithmicSimConfig wide = one;
  wide.threads = 0;
  wide.lanes = 32;
  const auto a = sc::generate_dpa_traces(
      c, k, 100, sc::RpcScenario::kEnabledSecretRandomness, one);
  const auto b = sc::generate_dpa_traces(
      c, k, 100, sc::RpcScenario::kEnabledSecretRandomness, wide);
  for (std::size_t j = 0; j < 100; ++j)
    ASSERT_EQ(a.traces.traces[j], b.traces.traces[j]) << "trace " << j;
  EXPECT_TRUE(a.known_randomizers.empty());  // secret scenario: not leaked
}

TEST(CampaignDeterminism, StreamingAttackMatchesReferenceAttack) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(10);
  const Scalar k = rng.uniform_nonzero(c.order());
  sc::AlgorithmicSimConfig sim;
  sim.seed = 4242;
  const auto exp =
      sc::generate_dpa_traces(c, k, 400, sc::RpcScenario::kDisabled, sim);
  sc::DpaConfig cfg;
  cfg.bits_to_attack = 16;
  const auto engine = sc::ladder_dpa_attack(c, exp, cfg);
  const auto reference = sc::ladder_dpa_attack_reference(c, exp, cfg);
  EXPECT_EQ(engine.recovered_bits, reference.recovered_bits);
  EXPECT_EQ(engine.bits_correct, reference.bits_correct);
  // Statistic values agree to merge-order rounding.
  for (std::size_t i = 0; i < engine.stat_correct_hyp.size(); ++i)
    EXPECT_NEAR(engine.stat_correct_hyp[i], reference.stat_correct_hyp[i],
                1e-9);
  // And the engine run actually breaks the unprotected ladder.
  EXPECT_TRUE(engine.full_success);

  // Both curves on this thread, K-163 first: the engine's per-thread lane
  // registers outlive an attack, and the B-163 attack must double with
  // its own b, not with K-163's b = 1. B-163 is also the engine's check
  // of the general-b doubling.
  sc::DpaConfig one_thread;
  one_thread.threads = 1;
  one_thread.lanes = 16;
  one_thread.bits_to_attack = 24;
  for (const Curve* curve : {&Curve::k163(), &Curve::b163()}) {
    const auto e = sc::generate_dpa_traces(
        *curve, rng.uniform_nonzero(curve->order()), 256,
        sc::RpcScenario::kDisabled, sim);
    const auto eng = sc::ladder_dpa_attack(*curve, e, one_thread);
    const auto ref = sc::ladder_dpa_attack_reference(*curve, e, one_thread);
    EXPECT_EQ(eng.recovered_bits, ref.recovered_bits) << curve->name();
    EXPECT_EQ(eng.bits_correct, ref.bits_correct) << curve->name();
  }
}

TEST(CampaignDeterminism, SerialBaselineKeepsPr2Shape) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(12);
  const Scalar k = rng.uniform_nonzero(c.order());
  const auto exp = sc::generate_dpa_traces_serial(
      c, k, 8, sc::RpcScenario::kEnabledKnownRandomness);
  EXPECT_EQ(exp.traces.traces.size(), 8u);
  EXPECT_EQ(exp.traces.length(), 163u);
  EXPECT_EQ(exp.known_randomizers.size(), 8u);
  EXPECT_EQ(exp.true_bits.size(), 164u);
}

TEST(CampaignDeterminism, AveragedCycleCaptureStableAcrossRuns) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(13);
  const Scalar k = rng.uniform_nonzero(c.order());
  sc::CycleSimConfig cfg;
  cfg.leakage.noise_sigma = 100.0;
  // The pool fan-out must not change the averaged trace: compare with a
  // manual serial fold of the same derived capture seeds.
  const auto avg = sc::capture_averaged_cycle_trace(c, k, c.base_point(),
                                                    cfg, 4);
  sc::CycleTrace expect = sc::capture_cycle_trace(c, k, c.base_point(), cfg);
  for (std::size_t j = 1; j < 4; ++j) {
    sc::CycleSimConfig c2 = cfg;
    c2.seed = cfg.seed + 0x1000 * j;
    const auto t = sc::capture_cycle_trace(c, k, c.base_point(), c2);
    for (std::size_t i = 0; i < expect.samples.size(); ++i)
      expect.samples[i] += t.samples[i];
  }
  for (double& s : expect.samples) s /= 4.0;
  ASSERT_EQ(avg.samples.size(), expect.samples.size());
  for (std::size_t i = 0; i < avg.samples.size(); ++i)
    ASSERT_EQ(avg.samples[i], expect.samples[i]) << "cycle " << i;
}

}  // namespace
