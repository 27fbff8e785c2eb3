// test_faults.cpp — the fault-attack adversary subsystem, bottom to top:
// the seeded injector, the co-processor's fault physics, the guarded
// victim's detectors, the session recovery loop, the eval-matrix fault
// verdicts, the TRNG health gate, device quarantine under concurrency, and
// the end-to-end fault drill with its golden digest.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/secure_processor.h"
#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "ecc/scalar_mult.h"
#include "engine/device_registry.h"
#include "engine/fault_drill.h"
#include "hw/coprocessor.h"
#include "hw/fault_injector.h"
#include "protocol/schnorr.h"
#include "rng/trng_model.h"
#include "rng/xoshiro.h"
#include "sidechannel/countermeasures.h"
#include "sidechannel/eval.h"
#include "sidechannel/fault_attacks.h"

namespace {

using medsec::ecc::Curve;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::rng::Xoshiro256;
namespace core = medsec::core;
namespace engine = medsec::engine;
namespace hw = medsec::hw;
namespace proto = medsec::protocol;
namespace rng = medsec::rng;
namespace sc = medsec::sidechannel;

/// Golden digest of the 256-session / 16-device / 5% drill below. Pins the
/// complete per-session outcome stream; re-measure deliberately if the
/// drill engine changes.
constexpr std::uint64_t kGoldenDrillDigest = 0x437e18693ad483a9ull;

/// MSB-first padded scalar bits (the ladder's ground truth).
std::vector<int> padded_bits(const Curve& c, const Scalar& k) {
  const Scalar padded = medsec::ecc::constant_length_scalar(c, k);
  std::vector<int> bits;
  sc::unpack_bits_msb(padded, padded.bit_length(), bits);
  return bits;
}

/// A key whose padded top bits are dense. Fault-attack verdicts are only
/// meaningful against such a key: a tiny k makes the padded scalar's top
/// bits all zero and every chain reconstruction trivially "correct".
Scalar dense_key(const Curve& c) {
  Xoshiro256 r(2013);
  return r.uniform_nonzero(c.order());
}

// --- the injector ------------------------------------------------------------

TEST(FaultInjector, CounterDerivedAndRateIndependent) {
  const hw::FaultInjector a(0xFA01, 0.05);
  const hw::FaultInjector b(0xFA01, 0.05);
  const hw::FaultInjector hot(0xFA01, 0.95);
  const hw::FaultShape shape{2000, 300000, 170};

  std::size_t hits = 0;
  for (std::uint64_t n = 0; n < 2000; ++n) {
    EXPECT_EQ(a.should_fault(n), b.should_fault(n));
    if (a.should_fault(n)) ++hits;
    const hw::FaultSpec fa = a.draw(n, shape);
    const hw::FaultSpec fb = b.draw(n, shape);
    const hw::FaultSpec fh = hot.draw(n, shape);
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.slot, fb.slot);
    EXPECT_EQ(fa.cycle, fb.cycle);
    EXPECT_EQ(fa.reg, fb.reg);
    EXPECT_EQ(fa.bit, fb.bit);
    EXPECT_EQ(fa.stuck_value, fb.stuck_value);
    // The rate lane is independent of the draw lanes: cranking the rate
    // never reshuffles which fault operation n would receive.
    EXPECT_EQ(fa.kind, fh.kind);
    EXPECT_EQ(fa.slot, fh.slot);
    // Coordinates land inside the shape.
    EXPECT_LT(fa.slot, shape.instructions);
    EXPECT_LT(fa.bit, 163u);
  }
  // 5% of 2000 with generous binomial slack.
  EXPECT_GT(hits, 50u);
  EXPECT_LT(hits, 160u);
  const hw::FaultInjector cold(0xFA01, 0.0);
  for (std::uint64_t n = 0; n < 100; ++n)
    EXPECT_FALSE(cold.should_fault(n));
}

// --- co-processor fault physics ----------------------------------------------

struct CoprocFixture {
  const Curve& c = Curve::k163();
  Scalar k = dense_key(c);
  std::vector<int> bits = padded_bits(c, k);
  hw::Coprocessor coproc;

  CoprocFixture() : coproc(energy_only()) {}
  static hw::CoprocessorConfig energy_only() {
    hw::CoprocessorConfig hc;
    hc.record_cycles = false;
    return hc;
  }
  hw::PointMultResult run() {
    return coproc.point_mult(bits, c.base_point().x, {}, nullptr);
  }
};

TEST(CoprocFaults, SelectGlitchDropsExactlyOneCycle) {
  CoprocFixture f;
  const auto clean = f.run();
  ASSERT_EQ(clean.exec.cycles, f.coproc.point_mult_cycles(f.bits.size(), {}));

  for (const std::size_t slot : {std::size_t{0}, std::size_t{5}}) {
    hw::FaultSpec g;
    g.kind = hw::FaultKind::kSelectGlitch;
    g.slot = slot;
    f.coproc.arm_fault(g);
    const auto glitched = f.run();
    EXPECT_TRUE(f.coproc.fault_fired());
    // The suppressed SELSET is one missing cycle — even when the step is
    // computationally absorbed. This is the coherence check's signal.
    EXPECT_EQ(glitched.exec.cycles, clean.exec.cycles - 1) << slot;
    f.coproc.disarm_fault();
  }
}

TEST(CoprocFaults, SelectGlitchAbsorptionTracksKeyBitTransition) {
  CoprocFixture f;
  const auto clean = f.run();
  // Slot s processes padded bit s+1 under stale select = bit s's value
  // (the leading 1 set select before slot 0... slot 0's stale select is
  // the INIT state, select 0). Absorbed iff no transition.
  for (std::size_t s = 0; s + 2 < 14; ++s) {
    hw::FaultSpec g;
    g.kind = hw::FaultKind::kSelectGlitch;
    g.slot = s;
    f.coproc.arm_fault(g);
    const auto glitched = f.run();
    f.coproc.disarm_fault();
    const int stale = s == 0 ? 0 : f.bits[s];
    const bool absorbed = glitched.x_affine == clean.x_affine;
    EXPECT_EQ(absorbed, f.bits[s + 1] == stale) << "slot " << s;
  }
}

TEST(CoprocFaults, SkipInstructionShortensTheRun) {
  CoprocFixture f;
  const auto clean = f.run();
  hw::FaultSpec g;
  g.kind = hw::FaultKind::kSkipInstruction;
  g.slot = 400;
  f.coproc.arm_fault(g);
  const auto skipped = f.run();
  EXPECT_TRUE(f.coproc.fault_fired());
  EXPECT_LT(skipped.exec.cycles, clean.exec.cycles);
  f.coproc.disarm_fault();
  // One-shot physics: a glitch is a single event — re-running without
  // re-arming executes clean.
  const auto after = f.run();
  EXPECT_EQ(after.exec.cycles, clean.exec.cycles);
  EXPECT_EQ(after.x_affine, clean.x_affine);
}

TEST(CoprocFaults, StuckAtPressesEveryRunUntilDisarm) {
  CoprocFixture f;
  const auto clean = f.run();
  hw::FaultSpec g;
  g.kind = hw::FaultKind::kStuckAt;
  g.reg = hw::Reg::kXP;
  g.bit = 3;
  g.stuck_value = !f.c.base_point().x.bit(3);  // guaranteed corruption
  f.coproc.arm_fault(g);
  const auto r1 = f.run();
  EXPECT_TRUE(f.coproc.fault_fired());
  EXPECT_FALSE(r1.x_affine == clean.x_affine);
  // Unlike the glitches, damage persists run after run.
  const auto r2 = f.run();
  EXPECT_FALSE(r2.x_affine == clean.x_affine);
  f.coproc.disarm_fault();
  const auto r3 = f.run();
  EXPECT_EQ(r3.x_affine, clean.x_affine);
}

TEST(CoprocFaults, BitFlipKeepsCycleCountButCorruptsState) {
  CoprocFixture f;
  const auto clean = f.run();
  hw::FaultSpec g;
  g.kind = hw::FaultKind::kBitFlip;
  g.cycle = clean.exec.cycles / 2;
  g.reg = hw::Reg::kX1;
  g.bit = 42;
  f.coproc.arm_fault(g);
  const auto flipped = f.run();
  EXPECT_TRUE(f.coproc.fault_fired());
  // An SEU never changes the schedule — only the data. The coherence
  // check's cycle half is blind to it; the ladder-invariant canary is the
  // detector that catches it.
  EXPECT_EQ(flipped.exec.cycles, clean.exec.cycles);
  EXPECT_FALSE(flipped.x_affine == clean.x_affine);
  f.coproc.disarm_fault();
}

// --- the guarded victim ------------------------------------------------------

struct VictimFixture {
  const Curve& c = Curve::k163();
  Scalar k = dense_key(c);
  hw::Coprocessor coproc{CoprocFixture::energy_only()};
  std::optional<sc::BaseBlindingPair> pair;
  Scalar pair_key{};
  Xoshiro256 rng{77};

  sc::VictimRelease run(const sc::CountermeasureConfig& cm) {
    return sc::guarded_coproc_mult(c, cm, coproc, k, c.base_point(), rng,
                                   pair, pair_key);
  }
};

TEST(GuardedVictim, CleanRunReleasesTheTrueProduct) {
  VictimFixture f;
  const Point ref =
      medsec::ecc::montgomery_ladder(f.c, f.k.mod(f.c.order()),
                                     f.c.base_point());
  for (const auto& cm :
       {sc::CountermeasureConfig::none(), sc::CountermeasureConfig::validated(),
        sc::CountermeasureConfig::infective()}) {
    const auto rel = f.run(cm);
    EXPECT_TRUE(rel.released);
    EXPECT_FALSE(rel.detected);
    EXPECT_FALSE(rel.infected);
    EXPECT_EQ(rel.x, ref.x);
  }
}

TEST(GuardedVictim, CoherenceCheckSuppressesGlitchedRelease) {
  VictimFixture f;
  hw::FaultSpec g;
  g.kind = hw::FaultKind::kSelectGlitch;
  g.slot = 4;
  // Undefended: the glitched run releases SOMETHING (correct or garbage —
  // the safe-error oracle).
  f.coproc.arm_fault(g);
  const auto bare = f.run(sc::CountermeasureConfig::none());
  EXPECT_TRUE(bare.released);
  EXPECT_FALSE(bare.detected);
  // Detection-only hardening: the missing SELSET cycle trips the
  // coherence check and nothing leaves the device.
  f.coproc.arm_fault(g);
  const auto guarded = f.run(sc::CountermeasureConfig::validated());
  EXPECT_TRUE(guarded.detected);
  EXPECT_FALSE(guarded.released);
}

TEST(GuardedVictim, InfectiveResponseReleasesKeyIndependentGarbage) {
  VictimFixture f;
  const Point ref =
      medsec::ecc::montgomery_ladder(f.c, f.k.mod(f.c.order()),
                                     f.c.base_point());
  hw::FaultSpec g;
  g.kind = hw::FaultKind::kSelectGlitch;
  g.slot = 4;
  f.coproc.arm_fault(g);
  const auto rel = f.run(sc::CountermeasureConfig::infective());
  EXPECT_TRUE(rel.detected);
  EXPECT_TRUE(rel.released);  // the suppress/release oracle is gone...
  EXPECT_TRUE(rel.infected);
  EXPECT_FALSE(rel.x == ref.x);  // ...and the value says nothing about k
}

// --- the attack engines ------------------------------------------------------

TEST(FaultAttacks, SafeErrorRecoversKeyFromUndefendedVictim) {
  const Curve& c = Curve::k163();
  const Scalar k = dense_key(c);
  const auto r =
      sc::safe_error_attack(c, sc::CountermeasureConfig::none(), k, 12, 2024);
  EXPECT_TRUE(r.key_recovered);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
  EXPECT_EQ(r.shots, 12u);
  // RPC (the paper's shipped config) does not touch the select schedule.
  const auto rpc = sc::safe_error_attack(
      c, sc::CountermeasureConfig::rpc_only(), k, 12, 2024);
  EXPECT_TRUE(rpc.key_recovered);
}

TEST(FaultAttacks, SafeErrorDiesAgainstDetectors) {
  const Curve& c = Curve::k163();
  const Scalar k = dense_key(c);
  for (const auto& cm : {sc::CountermeasureConfig::validated(),
                         sc::CountermeasureConfig::infective()}) {
    const auto r = sc::safe_error_attack(c, cm, k, 12, 2024);
    EXPECT_FALSE(r.key_recovered) << cm.name();
    // The oracle is dead: no shot ever reads as absorbed, the attacker
    // is guessing coins.
    EXPECT_EQ(r.informative_shots, 0u) << cm.name();
    EXPECT_LT(r.accuracy, 1.0) << cm.name();
  }
}

TEST(FaultAttacks, InvalidPointRecoversKeyWithoutValidation) {
  const Curve& c = Curve::k163();
  const Scalar k = dense_key(c);
  const auto r = sc::invalid_point_attack(c, sc::CountermeasureConfig::none(),
                                          k, 12, 2024);
  EXPECT_TRUE(r.key_recovered);
  EXPECT_GT(r.informative_shots, 0u);
}

TEST(FaultAttacks, InvalidPointDiesAgainstValidationAndInfective) {
  const Curve& c = Curve::k163();
  const Scalar k = dense_key(c);
  for (const auto& cm : {sc::CountermeasureConfig::validated(),
                         sc::CountermeasureConfig::infective()}) {
    const auto r = sc::invalid_point_attack(c, cm, k, 12, 2024);
    EXPECT_FALSE(r.key_recovered) << cm.name();
    EXPECT_EQ(r.informative_shots, 0u) << cm.name();
  }
}

// --- the eval matrix's fault rows --------------------------------------------

TEST(EvalFaults, VerdictTableBareBreaksHardenedHolds) {
  const Curve& c = Curve::k163();
  const Scalar k = dense_key(c);
  sc::EvalConfig cfg;
  cfg.countermeasures = {
      sc::CountermeasureConfig::none(), sc::CountermeasureConfig::rpc_only(),
      sc::CountermeasureConfig::validated(),
      sc::CountermeasureConfig::infective()};
  cfg.attacks = {sc::EvalAttack::kFaultSafeError,
                 sc::EvalAttack::kFaultInvalidPoint};
  cfg.bits_to_attack = 12;
  cfg.seed = 2024;
  const auto m = sc::run_eval_matrix(c, k, cfg);
  ASSERT_EQ(m.cells.size(), 8u);

  const auto cell = [&](const std::string& attack,
                        const std::string& cm) -> const sc::EvalCell& {
    for (const auto& e : m.cells)
      if (e.attack == attack && e.countermeasure == cm) return e;
    ADD_FAILURE() << "missing cell " << attack << " x " << cm;
    return m.cells.front();
  };
  const std::string validated = sc::CountermeasureConfig::validated().name();
  const std::string infective = sc::CountermeasureConfig::infective().name();

  for (const char* atk : {"fault-safe-error", "fault-invalid-point"}) {
    // Bare and the paper's shipped rpc-only chip: the key falls.
    EXPECT_FALSE(cell(atk, "none").defense_holds) << atk;
    EXPECT_TRUE(cell(atk, "none").key_recovered) << atk;
    EXPECT_FALSE(cell(atk, "rpc").defense_holds) << atk;
    // The fault-hardened rows hold with a dead oracle.
    EXPECT_TRUE(cell(atk, validated).defense_holds) << atk;
    EXPECT_EQ(cell(atk, validated).informative_shots, 0u) << atk;
    EXPECT_TRUE(cell(atk, infective).defense_holds) << atk;
    EXPECT_EQ(cell(atk, infective).informative_shots, 0u) << atk;
  }
  EXPECT_DOUBLE_EQ(cell("fault-safe-error", "none").accuracy, 1.0);
}

TEST(EvalConfig, ValidateFailsLoudlyOnIncoherentGrids) {
  const sc::EvalConfig empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  sc::EvalConfig ok;
  ok.countermeasures = {sc::CountermeasureConfig::rpc_only()};
  ok.attacks = {sc::EvalAttack::kFaultSafeError};
  EXPECT_NO_THROW(ok.validate());

  auto bad_lane = ok;
  bad_lane.lane_backends = {"scalar", "not-a-backend"};
  EXPECT_THROW(bad_lane.validate(), std::invalid_argument);
  try {
    bad_lane.validate();
  } catch (const std::invalid_argument& e) {
    // The compiled-in list rides the message (the PR 7 backend contract).
    EXPECT_NE(std::string(e.what()).find("scalar, bitsliced, clmul"),
              std::string::npos);
  }

  auto headless = ok;
  sc::CountermeasureConfig infective_blind;
  infective_blind.infective_computation = true;  // no detector armed
  headless.countermeasures = {infective_blind};
  EXPECT_THROW(headless.validate(), std::invalid_argument);

  auto wide_blind = ok;
  wide_blind.countermeasures[0].scalar_blinding = true;
  wide_blind.countermeasures[0].scalar_blind_bits = 65;
  EXPECT_THROW(wide_blind.validate(), std::invalid_argument);

  auto no_dummies = ok;
  no_dummies.countermeasures[0].shuffle_schedule = true;
  no_dummies.countermeasures[0].dummy_iterations = 0;
  EXPECT_THROW(no_dummies.validate(), std::invalid_argument);

  auto no_traces = ok;
  no_traces.traces = 0;
  EXPECT_THROW(no_traces.validate(), std::invalid_argument);

  // run_eval_matrix validates before any campaign runs.
  EXPECT_THROW(
      sc::run_eval_matrix(Curve::k163(), Scalar{3}, sc::EvalConfig{}),
      std::invalid_argument);
}

// --- session recovery --------------------------------------------------------

core::CountermeasureConfig detecting_config() {
  core::CountermeasureConfig c;
  c.ladder.validate_points = true;
  c.ladder.coherence_check = true;
  c.record_cycles = false;
  return c;
}

TEST(SessionRecovery, TransientGlitchRetriesAndRecovers) {
  const Curve& c = Curve::k163();
  const Scalar k = dense_key(c);
  const Point ref = medsec::ecc::scalar_mult(c, k, c.base_point());
  const core::SecureEccProcessor proc(c, detecting_config(), 0x5E55);
  auto sess = proc.open_session(1);

  const auto clean = sess.point_mult(k, c.base_point());
  EXPECT_EQ(clean.result, ref);
  EXPECT_EQ(clean.faults_detected, 0u);
  EXPECT_EQ(clean.retries, 0u);

  hw::FaultSpec g;
  g.kind = hw::FaultKind::kSelectGlitch;
  g.slot = 9;
  sess.arm_fault(g);
  const auto out = sess.point_mult(k, c.base_point());
  // One detection, one recovery re-execution, correct release — and the
  // backoff shows up in the cycle/time ledger.
  EXPECT_EQ(out.result, ref);
  EXPECT_EQ(out.faults_detected, 1u);
  EXPECT_EQ(out.retries, 1u);
  EXPECT_GT(out.cycles, 2 * clean.cycles);
  sess.disarm_fault();
}

TEST(SessionRecovery, PersistentStuckAtExhaustsBudgetAndThrows) {
  const Curve& c = Curve::k163();
  const Scalar k = dense_key(c);
  auto cfg = detecting_config();
  cfg.fault_retry_budget = 2;
  const core::SecureEccProcessor proc(c, cfg, 0x5E55);
  auto sess = proc.open_session(2);

  hw::FaultSpec g;
  g.kind = hw::FaultKind::kStuckAt;
  g.reg = hw::Reg::kXP;
  g.bit = 7;
  g.stuck_value = !c.base_point().x.bit(7);
  sess.arm_fault(g);
  EXPECT_THROW(sess.point_mult(k, c.base_point()), std::logic_error);
  // Service (disarm) restores the session — registers were zeroized, the
  // blinds re-randomized, and the next run is clean.
  sess.disarm_fault();
  const auto out = sess.point_mult(k, c.base_point());
  EXPECT_EQ(out.result, medsec::ecc::scalar_mult(c, k, c.base_point()));
  EXPECT_EQ(out.faults_detected, 0u);
}

// --- TRNG health gate --------------------------------------------------------

TEST(TrngHealth, HealthySourcePassesAndSeedsTheDrbg) {
  rng::TrngModel::Params p;
  p.seed = 11;
  rng::HealthGatedTrng trng(p);
  std::vector<std::uint8_t> buf(64);
  EXPECT_TRUE(trng.harvest(buf));
  EXPECT_TRUE(trng.healthy());
  rng::HealthGatedTrng fresh(p);
  EXPECT_TRUE(rng::seed_drbg_from_trng(fresh).has_value());
}

TEST(TrngHealth, StuckAtTripsRepetitionCountAndDrbgRefuses) {
  for (const int stuck : {0, 1}) {
    rng::TrngModel::Params p;
    p.fault = rng::TrngFault::kStuckAt;
    p.stuck_value = stuck;
    rng::HealthGatedTrng trng(p);
    std::vector<std::uint8_t> buf(64);
    EXPECT_FALSE(trng.harvest(buf)) << stuck;
    EXPECT_FALSE(trng.healthy());
    rng::HealthGatedTrng fresh(p);
    EXPECT_FALSE(rng::seed_drbg_from_trng(fresh).has_value()) << stuck;
  }
}

TEST(TrngHealth, EntropyStarvationTripsTheGate) {
  rng::TrngModel::Params p;
  p.seed = 11;
  p.fault = rng::TrngFault::kStarved;
  rng::HealthGatedTrng trng(p);
  // Starvation = near-total serial correlation: runs longer than the
  // repetition-count cutoff appear almost immediately.
  std::vector<std::uint8_t> buf(256);
  EXPECT_FALSE(trng.harvest(buf));
}

TEST(TrngHealth, HardenedLadderRefusesBlindsFromFailedSource) {
  const Curve& c = Curve::k163();
  // Healthy pipeline: blinds flow and the hardened plan builds.
  rng::TrngModel::Params good;
  good.seed = 5;
  rng::GatedTrngSource healthy(good);
  ASSERT_TRUE(healthy.healthy());
  std::optional<sc::BaseBlindingPair> pair;
  Scalar pair_key{};
  const auto plan = sc::plan_hardened_coproc_mult(
      c, sc::CountermeasureConfig::full(), Scalar{12345}, c.base_point(),
      healthy, pair, pair_key);
  EXPECT_FALSE(plan.key_bits.empty());

  // Stuck source: the gate latches at seeding and every blind draw —
  // hence any hardened plan — is refused, not degraded.
  rng::TrngModel::Params bad = good;
  bad.fault = rng::TrngFault::kStuckAt;
  rng::GatedTrngSource gated(bad);
  EXPECT_FALSE(gated.healthy());
  std::optional<sc::BaseBlindingPair> pair2;
  Scalar pair_key2{};
  EXPECT_THROW(sc::plan_hardened_coproc_mult(
                   c, sc::CountermeasureConfig::full(), Scalar{12345},
                   c.base_point(), gated, pair2, pair_key2),
               std::runtime_error);
}

// --- device quarantine under concurrency ------------------------------------

TEST(DeviceQuarantine, ConcurrentFaultReportsQuarantineFaultingDevice) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(9);
  engine::DeviceRegistry reg(c);
  const std::uint32_t bad = reg.enroll(proto::schnorr_keygen(c, rng).X);
  const std::uint32_t good = reg.enroll(proto::schnorr_keygen(c, rng).X);

  // Eight front-end threads at once, each opening sessions the way a shard
  // factory does (admit, then serve): device `bad` comes back with an
  // unrecovered fault every time, device `good` never does.
  std::vector<std::thread> threads;
  std::atomic<int> admitted_bad{0}, refused{0}, crossings{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const std::uint32_t device = t % 2 == 0 ? bad : good;
      for (int i = 0; i < 4; ++i) {
        if (!reg.admit(device)) {
          ++refused;
          continue;
        }
        if (device == bad) {
          ++admitted_bad;
          if (reg.report_unrecovered_fault(bad)) ++crossings;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_TRUE(reg.quarantined(bad));
  EXPECT_FALSE(reg.quarantined(good));
  EXPECT_FALSE(reg.admit(bad).has_value());
  EXPECT_TRUE(reg.admit(good).has_value());
  EXPECT_EQ(crossings.load(), 1);  // exactly one report crossed the line
  // Refusals only start once the threshold is crossed, and only for the
  // faulting device.
  EXPECT_GE(admitted_bad.load(),
            static_cast<int>(engine::DeviceRegistry::kFaultThreshold));
  EXPECT_EQ(admitted_bad.load() + refused.load(), 16);
}

// --- the end-to-end fault drill ----------------------------------------------

engine::FaultDrillConfig drill_config() {
  engine::FaultDrillConfig cfg;
  cfg.sessions = 256;
  cfg.devices = 16;
  cfg.fault_rate = 0.05;
  cfg.seed = 0xFA017D21;
  return cfg;
}

TEST(FaultDrill, NothingFaultyEverLeavesADevice) {
  const auto r = engine::run_fault_drill(Curve::k163(), drill_config());
  EXPECT_EQ(r.sessions, 256u);
  // The headline: zero faulty releases, under real injected faults.
  EXPECT_EQ(r.faulty_released, 0u);
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(r.recovered, 0u);            // transient glitches recover
  EXPECT_GT(r.unrecovered, 0u);          // stuck-ats exhaust the budget
  EXPECT_GT(r.devices_quarantined, 0u);  // ...and quarantine their device
  EXPECT_GT(r.refused, 0u);              // which then refuses sessions
  EXPECT_EQ(r.clean + r.recovered + r.unrecovered + r.refused, r.sessions);
  // Every released result passed the referee, so every handshake ran on a
  // correct point product and accepted.
  EXPECT_EQ(r.protocol_accepted, r.clean + r.recovered);
  EXPECT_EQ(r.protocol_failed, 0u);
}

TEST(FaultDrill, ThousandSessionCampaignReleasesNothingFaulty) {
  // The acceptance campaign: >=1k sessions across the full fleet at the
  // deployment fault rate, default config all the way down.
  const engine::FaultDrillConfig cfg;
  const auto r = engine::run_fault_drill(Curve::k163(), cfg);
  EXPECT_GE(r.sessions, 1024u);
  EXPECT_EQ(r.faulty_released, 0u);
  EXPECT_EQ(r.protocol_failed, 0u);
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(r.recovered, 0u);
  EXPECT_GT(r.devices_quarantined, 0u);
  EXPECT_EQ(r.clean + r.recovered + r.unrecovered + r.refused, r.sessions);
  EXPECT_EQ(r.digest, 0x599960488dbd75d0ull)
      << std::hex << "digest 0x" << r.digest;
}

TEST(FaultDrill, DigestIsThreadCountInvariantAndGolden) {
  auto cfg = drill_config();
  const auto base = engine::run_fault_drill(Curve::k163(), cfg);
  cfg.threads = 1;
  const auto serial = engine::run_fault_drill(Curve::k163(), cfg);
  cfg.threads = 7;
  const auto wide = engine::run_fault_drill(Curve::k163(), cfg);
  EXPECT_EQ(base.digest, serial.digest);
  EXPECT_EQ(base.digest, wide.digest);
  EXPECT_EQ(base.faulty_released, 0u);
  // Golden pin: the full outcome stream (fault verdicts, released points,
  // protocol verdicts) is a format commitment — an engine change that
  // shifts any session's outcome must deliberately re-pin this.
  EXPECT_EQ(base.digest, kGoldenDrillDigest)
      << std::hex << "digest 0x" << base.digest;
}

}  // namespace
