// Tests for the constant-time audit harness (src/ctaudit): the dudect
// engine's accumulators and determinism, the positive controls (every
// shipped backend x lane combo and both modeled ladders pass), the
// negative controls (the planted leaky toys are flagged by BOTH
// engines), the taint interpreter's propagation rules, and the
// bit-exact equivalence of the audited TaintFe arithmetic with the
// production Gf163 field.
//
// Also part of the TSan CI matrix: the two-thread accumulate-then-merge
// test exercises the RunningStats merge contract under the race
// detector.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "ctaudit/audit.h"
#include "ctaudit/dudect.h"
#include "ctaudit/taint.h"
#include "ctaudit/taint_fe.h"
#include "ctaudit/time_source.h"
#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "gf2m/backend.h"
#include "gf2m/gf2_163.h"
#include "hw/coprocessor.h"
#include "rng/xoshiro.h"
#include "sidechannel/countermeasures.h"

namespace {

using medsec::bigint::U192;
using medsec::ecc::Curve;
using medsec::gf2m::Gf163;
using medsec::rng::Xoshiro256;
namespace ct = medsec::ctaudit;

Gf163 rand_fe(Xoshiro256& rng) {
  U192 v;
  for (std::size_t i = 0; i < 3; ++i) v.set_limb(i, rng.next_u64());
  return Gf163::from_bits(v);
}

/// Small-but-real test grid config: enough samples for the toys' huge
/// effect sizes, few enough modeled point-mults to stay in the fast
/// tier.
ct::GridConfig small_grid() {
  ct::GridConfig cfg;
  cfg.samples = 300;
  cfg.model_samples = 24;
  cfg.calibration = 48;
  cfg.rerun_check = false;  // determinism asserted explicitly below
  return cfg;
}

// --- dudect machinery --------------------------------------------------------

TEST(CtAudit, DeriveWordIsPureAndLaneIndependent) {
  EXPECT_EQ(ct::derive_word(1, 2, 3), ct::derive_word(1, 2, 3));
  EXPECT_NE(ct::derive_word(1, 2, 3), ct::derive_word(1, 2, 4));
  EXPECT_NE(ct::derive_word(1, 2, 3), ct::derive_word(1, 3, 3));
  EXPECT_NE(ct::derive_word(1, 2, 3), ct::derive_word(2, 2, 3));
}

TEST(CtAudit, WelchAccumulatorMergeMatchesSerial) {
  Xoshiro256 rng(7);
  ct::WelchAccumulator serial, part_a, part_b;
  for (int i = 0; i < 500; ++i) {
    const int cls = static_cast<int>(rng.next_u64() & 1);
    const double x = static_cast<double>(rng.next_u64() >> 40);
    serial.add(cls, x);
    (i < 250 ? part_a : part_b).add(cls, x);
  }
  part_a.merge(part_b);
  EXPECT_EQ(serial.group(0).count(), part_a.group(0).count());
  EXPECT_EQ(serial.group(1).count(), part_a.group(1).count());
  EXPECT_NEAR(serial.t(), part_a.t(), 1e-9);
}

// Part of the TSan matrix: two threads fill disjoint accumulators, then
// merge on the main thread. The engine itself is serial; this pins down
// that the accumulator type stays mergeable from worker threads (the
// PR 3 campaign pattern) without data races.
TEST(CtAudit, WelchAccumulatorThreadedFillThenMerge) {
  ct::WelchAccumulator parts[2];
  std::thread workers[2];
  for (int w = 0; w < 2; ++w) {
    workers[w] = std::thread([w, &parts] {
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = ct::derive_word(99, i, w);
        parts[w].add(static_cast<int>(v & 1),
                     static_cast<double>(v >> 32));
      }
    });
  }
  for (auto& t : workers) t.join();
  parts[0].merge(parts[1]);
  EXPECT_EQ(parts[0].group(0).count() + parts[0].group(1).count(), 40000u);
  EXPECT_LT(std::fabs(parts[0].t()), 10.0);
}

TEST(CtAudit, TimeSourceNamesRoundTrip) {
  using K = ct::TimeSourceKind;
  for (const K k : {K::kOpCount, K::kSteadyClock, K::kRdtsc}) {
    K parsed;
    ASSERT_TRUE(ct::time_source_from_name(ct::time_source_name(k), parsed));
    EXPECT_EQ(parsed, k);
    EXPECT_EQ(ct::make_time_source(k)->kind(), k);
  }
  K parsed;
  EXPECT_FALSE(ct::time_source_from_name("sundial", parsed));
  EXPECT_TRUE(ct::make_time_source(K::kOpCount)->deterministic());
  EXPECT_FALSE(ct::make_time_source(K::kSteadyClock)->deterministic());
}

TEST(CtAudit, OpCountSourceAccumulatesTicks) {
  ct::OpCountSource src;
  src.start();
  src.tick(3);
  src.tick(4);
  EXPECT_EQ(src.stop(), 7u);
  src.start();  // start resets
  EXPECT_EQ(src.stop(), 0u);
}

// --- negative controls through the dudect engine ----------------------------

TEST(CtAudit, ToyBranchFailsDudect) {
  ct::OpCountSource src;
  ct::CtTestConfig cfg;
  cfg.samples = 300;
  cfg.calibration = 32;
  const ct::CtTestReport r =
      ct::run_ct_test(ct::make_toy_branch_target(), src, cfg);
  EXPECT_FALSE(r.pass);
  EXPECT_GT(r.max_abs_t, cfg.threshold);
}

TEST(CtAudit, ToyTableFailsDudect) {
  ct::OpCountSource src;
  ct::CtTestConfig cfg;
  cfg.samples = 300;
  cfg.calibration = 32;
  const ct::CtTestReport r =
      ct::run_ct_test(ct::make_toy_table_target(), src, cfg);
  EXPECT_FALSE(r.pass);
  EXPECT_GT(r.max_abs_t, cfg.threshold);
}

TEST(CtAudit, LadderXPassesWhereScalarMultLdLeaks) {
  // The server's secret-key entry against the routine it replaced, on the
  // op-count source over the counting field policy: every key costs the
  // ladder the same field operations; the double-and-add's count follows
  // the key (one iteration for the fixed class's k = 1).
  ct::OpCountSource src;
  ct::CtTestConfig cfg;
  cfg.samples = 300;
  cfg.calibration = 32;
  std::size_t seen = 0;
  for (const ct::CtTarget& t : ct::ct_audit_targets()) {
    if (t.name != "ladder-x" && t.name != "scalar-mult-ld") continue;
    ++seen;
    const bool leaky = t.name == "scalar-mult-ld";
    EXPECT_EQ(t.expect_leak, leaky) << t.name;
    const ct::CtTestReport r = ct::run_ct_test(t, src, cfg);
    EXPECT_EQ(r.pass, !leaky) << t.name << " max|t| " << r.max_abs_t;
    if (leaky) {
      EXPECT_GT(r.max_abs_t, cfg.threshold);
    } else {
      EXPECT_EQ(r.max_abs_t, 0.0);  // identical counts in both classes
    }
  }
  EXPECT_EQ(seen, 2u);
}

// --- positive controls -------------------------------------------------------

TEST(CtAudit, ModeledLadderCyclesAreSecretIndependent) {
  // The §5 claim at its sharpest: the modeled co-processor executes the
  // same cycle count for every (nonzero) key, both entry points.
  medsec::hw::Coprocessor cop;
  const Curve& curve = Curve::b163();
  Xoshiro256 rng(11);
  std::size_t classic = 0, blinded = 0;
  for (int i = 0; i < 3; ++i) {
    const auto k = rng.uniform_nonzero(curve.order());
    const auto bits = medsec::sidechannel::coproc_key_bits(curve, k);
    const auto r =
        cop.point_mult(bits, curve.base_point().x, {}, nullptr);
    if (i == 0) classic = r.exec.cycles;
    EXPECT_EQ(r.exec.cycles, classic);

    const auto kp = medsec::sidechannel::blind_scalar(
        curve, k, rng.next_u64() & 0xFFFFFFFFu);
    const std::size_t iters =
        medsec::sidechannel::blinded_ladder_iterations(curve, 32);
    std::vector<int> wbits;
    for (std::size_t b = iters; b-- > 0;) wbits.push_back(kp.bit(b) ? 1 : 0);
    medsec::hw::PointMultOptions opt;
    opt.neutral_init = true;
    const auto rb = cop.point_mult(wbits, curve.base_point().x, opt, nullptr);
    if (i == 0) blinded = rb.exec.cycles;
    EXPECT_EQ(rb.exec.cycles, blinded);
  }
  EXPECT_GT(blinded, classic);  // 196 iterations vs 163
}

// --- taint interpreter -------------------------------------------------------

TEST(CtAudit, TaintPropagationAndGuards) {
  ct::TaintContext ctx("unit");
  ct::Tainted<std::uint64_t> s(0xDEADBEEF);
  // Arithmetic propagates silently.
  const auto t = (s ^ ct::Tainted<std::uint64_t>(0xFF)) + s * s;
  (void)t;
  EXPECT_TRUE(ctx.report().clean());

  // Branching on a tainted comparison records.
  if (ct::ct::branch(s == ct::Tainted<std::uint64_t>(0), "unit:branch")) {
  }
  EXPECT_TRUE(
      ctx.report().has(ct::TaintViolationKind::kSecretBranch));

  // Indexing with a tainted value records.
  (void)ct::ct::index(s & ct::Tainted<std::uint64_t>(3), "unit:index");
  EXPECT_TRUE(
      ctx.report().has(ct::TaintViolationKind::kSecretTableIndex));

  // Division records a variable-latency op.
  (void)(s / ct::Tainted<std::uint64_t>(3));
  EXPECT_TRUE(
      ctx.report().has(ct::TaintViolationKind::kVariableLatencyOp));

  // Same (kind, site) aggregates into one entry with count.
  if (ct::ct::branch(s == ct::Tainted<std::uint64_t>(1), "unit:branch")) {
  }
  const auto report = ctx.report();
  std::uint64_t branch_count = 0;
  for (const auto& v : report.violations)
    if (v.kind == ct::TaintViolationKind::kSecretBranch) {
      EXPECT_EQ(v.site, "unit:branch");
      branch_count = v.count;
    }
  EXPECT_EQ(branch_count, 2u);
}

TEST(CtAudit, TaintedShiftAmountRecordsVariableLatency) {
  ct::TaintContext ctx("unit");
  const ct::Tainted<std::uint64_t> v(0x80);
  // A public amount is a barrel shift: nothing recorded.
  EXPECT_EQ((v << 3u).declassify(), 0x400u);
  EXPECT_TRUE(ctx.report().clean());

  const auto latency_ops = [&ctx] {
    std::uint64_t n = 0;
    for (const auto& v : ctx.report().violations)
      if (v.kind == ct::TaintViolationKind::kVariableLatencyOp) n += v.count;
    return n;
  };
  const ct::Tainted<unsigned> s(3u);
  EXPECT_EQ((v << s).declassify(), 0x400u);
  EXPECT_EQ(latency_ops(), 1u);
  EXPECT_EQ((v >> s).declassify(), 0x10u);
  EXPECT_EQ(latency_ops(), 2u);
  EXPECT_EQ(ctx.report().violations.size(), 2u);  // nothing else recorded
}

TEST(CtAudit, TaintGuardPassThroughForPlainTypes) {
  ct::TaintContext ctx("unit");
  // The production instantiation of audited templates: plain bool /
  // size_t flow through the guards without recording anything.
  EXPECT_TRUE(ct::ct::branch(true, "plain"));
  EXPECT_EQ(ct::ct::index(std::size_t{5}, "plain"), 5u);
  EXPECT_TRUE(ctx.report().clean());
}

TEST(CtAudit, TaintFeMatchesGf163) {
  Xoshiro256 rng(17);
  std::vector<Gf163> ops;
  ops.push_back(Gf163::zero());
  ops.push_back(Gf163::one());
  // Top-coefficient and all-ones patterns: maximal reduction spill.
  ops.push_back(Gf163{0, 0, 1ull << 34});
  ops.push_back(Gf163{~0ull, ~0ull, (1ull << 35) - 1});
  for (int i = 0; i < 12; ++i) ops.push_back(rand_fe(rng));

  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const Gf163 &a = ops[i], &b = ops[j];
      const auto ta = ct::TaintFe::from(a), tb = ct::TaintFe::from(b);
      EXPECT_EQ(ct::TaintFe::mul(ta, tb).declassify(), Gf163::mul(a, b));
      EXPECT_EQ((ta + tb).declassify(), a + b);
      EXPECT_EQ(
          ct::TaintFe::mul_add_mul(ta, tb, tb, ta).declassify(),
          Gf163::mul_add_mul(a, b, b, a));
      EXPECT_EQ(ct::TaintFe::sqr_add_mul(ta, tb, ta).declassify(),
                Gf163::sqr_add_mul(a, b, a));
    }
    EXPECT_EQ(ct::TaintFe::sqr(ct::TaintFe::from(ops[i])).declassify(),
              Gf163::sqr(ops[i]));
  }

  // cswap parity with the production masking discipline.
  for (const std::uint64_t choice : {0ull, 1ull}) {
    Gf163 a = ops[4], b = ops[5];
    auto ta = ct::TaintFe::from(a), tb = ct::TaintFe::from(b);
    Gf163::cswap(choice, a, b);
    ct::TaintFe::cswap(ct::Tainted<std::uint64_t>(choice), ta, tb);
    EXPECT_EQ(ta.declassify(), a);
    EXPECT_EQ(tb.declassify(), b);
  }
}

TEST(CtAudit, TaintLadderCleanAndMatchesProduction) {
  // Both curves: ladder_double_t takes its b = 1 branch on K-163 and its
  // general-b branch on B-163.
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    const Curve& curve = *c;
    Xoshiro256 rng(23);
    const auto k = rng.uniform_nonzero(curve.order());

    // Classic constant-length ladder: audit must be violation-free AND
    // produce the exact production ladder state (same template, same
    // formulas — this is the no-drift guarantee).
    const auto classic =
        ct::taint_audit_ladder_classic(curve, k, curve.base_point());
    EXPECT_TRUE(classic.report.clean())
        << "violations: " << classic.report.violations.size();
    EXPECT_GT(classic.report.ops, 1000u);  // 163 iterations of field work
    const auto prod =
        medsec::ecc::montgomery_ladder_raw(curve, k, curve.base_point(), {});
    EXPECT_EQ(classic.state.x1, prod.x1);
    EXPECT_EQ(classic.state.z1, prod.z1);
    EXPECT_EQ(classic.state.x2, prod.x2);
    EXPECT_EQ(classic.state.z2, prod.z2);

    // Blinded fixed-length ladder, same contract.
    const auto kp = medsec::sidechannel::blind_scalar(curve, k, 0xABCD1234u);
    const std::size_t iters =
        medsec::sidechannel::blinded_ladder_iterations(curve, 32);
    const auto blinded =
        ct::taint_audit_ladder_blinded(curve, kp, iters, curve.base_point());
    EXPECT_TRUE(blinded.report.clean());
    const auto prod_b = medsec::ecc::montgomery_ladder_fixed_raw(
        curve, kp, iters, curve.base_point(), {});
    EXPECT_EQ(blinded.state.x1, prod_b.x1);
    EXPECT_EQ(blinded.state.z1, prod_b.z1);
    EXPECT_EQ(blinded.state.x2, prod_b.x2);
    EXPECT_EQ(blinded.state.z2, prod_b.z2);
  }
}

TEST(CtAudit, TaintToysAreFlagged) {
  const auto branch = ct::taint_audit_toy_branch(42);
  EXPECT_FALSE(branch.clean());
  EXPECT_TRUE(branch.has(ct::TaintViolationKind::kSecretBranch));

  const auto table = ct::taint_audit_toy_table(42);
  EXPECT_FALSE(table.clean());
  EXPECT_TRUE(table.has(ct::TaintViolationKind::kSecretTableIndex));
}

// --- the grid ----------------------------------------------------------------

TEST(CtAudit, GridAcceptanceOnSmallConfig) {
  const auto grid = ct::run_ct_audit_grid(small_grid());
  EXPECT_TRUE(grid.acceptance_ok()) << [&grid] {
    std::string s;
    for (const auto& f : grid.acceptance_failures) s += f + "; ";
    return s;
  }();
  // All 6 combo rows present (4 core + 2 mega).
  std::size_t combos = 0;
  for (const auto& row : grid.dudect)
    if (row.report.target == "lane-ladder-step") ++combos;
  EXPECT_EQ(combos, 6u);
  EXPECT_EQ(grid.taint.size(), 5u);
}

TEST(CtAudit, GridIsDeterministicAcrossRuns) {
  const auto a = ct::run_ct_audit_grid(small_grid());
  const auto b = ct::run_ct_audit_grid(small_grid());
  EXPECT_EQ(a.digest_hex, b.digest_hex);
  ASSERT_EQ(a.dudect.size(), b.dudect.size());
  for (std::size_t i = 0; i < a.dudect.size(); ++i)
    EXPECT_EQ(a.dudect[i].report.max_abs_t, b.dudect[i].report.max_abs_t);

  // A different seed walks different inputs (the digest covers verdicts
  // and statistics, so it moves).
  ct::GridConfig other = small_grid();
  other.seed ^= 0x5A5A5A5A;
  const auto c = ct::run_ct_audit_grid(other);
  EXPECT_NE(a.digest_hex, c.digest_hex);
}

TEST(CtAudit, GridRestoresPinnedBackends) {
  namespace gf = medsec::gf2m;
  const gf::Backend be = gf::active_backend();
  ct::GridConfig cfg = small_grid();
  cfg.target_filter = "lane-ladder-step";  // kernel rows only, fast
  cfg.samples = 64;
  cfg.calibration = 16;

  // Auto lane dispatch stays auto: after the grid, switching the scalar
  // backend still moves the lanes.
  gf::reset_lane_backend();
  if (gf::backend_available(gf::Backend::kClmul))
    gf::set_backend(gf::Backend::kClmul);
  const gf::Backend auto_be = gf::active_backend();
  (void)ct::run_ct_audit_grid(cfg);
  EXPECT_EQ(gf::active_backend(), auto_be);
  gf::set_backend(gf::Backend::kKaratsuba);
  EXPECT_EQ(gf::active_lane_backend(), gf::LaneBackend::kLaneScalar);

  // A pin stays pinned, whatever the scalar backend does afterwards.
  ASSERT_TRUE(gf::set_lane_backend(gf::LaneBackend::kLaneScalar));
  (void)ct::run_ct_audit_grid(cfg);
  EXPECT_EQ(gf::active_backend(), gf::Backend::kKaratsuba);
  if (gf::set_backend(gf::Backend::kClmul)) {
    EXPECT_EQ(gf::active_lane_backend(), gf::LaneBackend::kLaneScalar);
  }

  gf::reset_lane_backend();
  gf::set_backend(be);
}

}  // namespace
