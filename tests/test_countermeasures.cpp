// Tests for the countermeasure subsystem: scalar blinding over the
// widened fixed-length ladder, base-point blinding pairs, shuffled
// schedules, lane/scalar bit-identity — and the paper-style acceptance
// matrix: the white-box CPA campaign that recovers the key against the
// bare ladder must collapse to a coin flip under scalar blinding, with
// the ladder's TVLA t-max dropping below the 4.5 threshold.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include <memory>

#include "ciphers/aes128.h"
#include "core/secure_processor.h"
#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "ecc/ladder_many.h"
#include "gf2m/backend.h"
#include "protocol/ecies.h"
#include "protocol/peeters_hermans.h"
#include "protocol/schnorr.h"
#include "rng/xoshiro.h"
#include "sidechannel/countermeasures.h"
#include "sidechannel/dpa.h"
#include "sidechannel/eval.h"
#include "sidechannel/spa.h"
#include "sidechannel/trace_sim.h"
#include "sidechannel/tvla.h"

namespace {

using medsec::bigint::U192;
using medsec::ecc::Curve;
using medsec::ecc::Fe;
using medsec::ecc::LadderState;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::ecc::WideScalar;
using medsec::rng::Xoshiro256;
namespace sc = medsec::sidechannel;

Point random_subgroup_point(const Curve& c, Xoshiro256& rng) {
  return c.scalar_mult_reference(rng.uniform_nonzero(c.order()),
                                 c.base_point());
}

int fe_weight(const Fe& v) {
  return std::popcount(v.limb(0)) + std::popcount(v.limb(1)) +
         std::popcount(v.limb(2));
}

// --- scalar blinding over the widened ladder --------------------------------

TEST(ScalarBlinding, BlindScalarActsLikeK) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    Xoshiro256 rng(1);
    for (int i = 0; i < 4; ++i) {
      const Scalar k = rng.uniform_nonzero(c->order());
      const Point p = random_subgroup_point(*c, rng);
      const Point expect = c->scalar_mult_reference(k, p);
      for (const std::uint64_t r :
           {std::uint64_t{0}, std::uint64_t{1}, rng.next_u64()}) {
        const WideScalar kp = sc::blind_scalar(*c, k, r);
        const std::size_t iters = sc::blinded_ladder_iterations(*c, 64);
        EXPECT_EQ(medsec::ecc::montgomery_ladder_fixed(*c, kp, iters, p),
                  expect)
            << c->name() << " r=" << r;
      }
    }
  }
}

TEST(ScalarBlinding, FixedLadderMatchesClassicOnPaddedScalar) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(2);
  const Scalar k = rng.uniform_nonzero(c.order());
  const Point p = random_subgroup_point(c, rng);
  const Scalar padded = medsec::ecc::constant_length_scalar(c, k);
  // The fixed ladder over the padded scalar at its exact bit length walks
  // the same orbit as the classic entry (one extra leading-zero-free
  // iteration replaces the consumed leading 1).
  EXPECT_EQ(medsec::ecc::montgomery_ladder_fixed(
                c, padded.resize<256>(), padded.bit_length(), p),
            medsec::ecc::montgomery_ladder(c, k, p));
  // Iteration counts that do not cover the scalar are rejected.
  EXPECT_THROW(medsec::ecc::montgomery_ladder_fixed(
                   c, padded.resize<256>(), padded.bit_length() - 1, p),
               std::invalid_argument);
}

TEST(ScalarBlinding, WideLanesMatchScalarFixedLadder) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(3);
  constexpr std::size_t kLanes = 5;
  const std::size_t iters = sc::blinded_ladder_iterations(c, 32);

  std::vector<WideScalar> ks(kLanes);
  std::vector<Point> ps(kLanes);
  std::vector<std::pair<Fe, Fe>> rands(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    ks[i] = sc::blind_scalar(c, rng.uniform_nonzero(c.order()),
                             sc::draw_blind(rng, 32));
    ps[i] = random_subgroup_point(c, rng);
    U192 v;
    for (std::size_t l = 0; l < 3; ++l) v.set_limb(l, rng.next_u64());
    rands[i].first = Fe::from_bits(v) + Fe::one();  // nonzero w.h.p.
    rands[i].second = Fe::sqr(rands[i].first);
    ASSERT_FALSE(rands[i].first.is_zero());
    ASSERT_FALSE(rands[i].second.is_zero());
  }

  // Scalar reference: per-lane montgomery_ladder_fixed_raw with the same
  // randomizers, observations recorded per iteration.
  std::vector<std::vector<int>> want_hw(kLanes);
  std::vector<LadderState> want(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    medsec::ecc::LadderOptions lo;
    lo.known_randomizers = rands[i];
    lo.observer = [&](const medsec::ecc::LadderObservation& ob) {
      want_hw[i].push_back(fe_weight(ob.x1) + fe_weight(ob.z1) +
                           fe_weight(ob.x2) + fe_weight(ob.z2));
    };
    want[i] =
        medsec::ecc::montgomery_ladder_fixed_raw(c, ks[i], iters, ps[i], lo);
  }

  // Lane path with per-iteration taps.
  std::vector<std::vector<int>> got_hw(kLanes);
  medsec::ecc::BatchLadderOptions bo;
  bo.randomizers = rands.data();
  bo.observer = [&](std::size_t, const medsec::ecc::LadderLanes& s) {
    for (std::size_t i = 0; i < kLanes; ++i)
      got_hw[i].push_back(s.hamming_weight(i));
  };
  medsec::ecc::LadderManyWorkspace ws;
  std::vector<LadderState> got(kLanes);
  medsec::ecc::ladder_many_wide_into(c, ks.data(), iters, ps.data(), kLanes,
                                     bo, ws, got.data());

  for (std::size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(got[i].x1, want[i].x1) << i;
    EXPECT_EQ(got[i].z1, want[i].z1) << i;
    EXPECT_EQ(got[i].x2, want[i].x2) << i;
    EXPECT_EQ(got[i].z2, want[i].z2) << i;
    EXPECT_EQ(got_hw[i], want_hw[i]) << i;
  }
}

// --- base-point blinding ----------------------------------------------------

TEST(BaseBlinding, PairCorrectsAndUpdates) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(4);
  const Scalar k = rng.uniform_nonzero(c.order());
  auto pair = sc::BaseBlindingPair::create(c, k, rng);
  for (int i = 0; i < 3; ++i) {
    // S = k·R must hold through updates.
    EXPECT_EQ(c.scalar_mult_reference(k, pair.mask()), pair.correction());
    const Point before = pair.mask();
    pair.update(c);
    EXPECT_EQ(pair.mask(), c.dbl(before));
  }
}

// --- the hardened engine ----------------------------------------------------

TEST(HardenedLadder, EveryConfigComputesKP) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(5);
  const Scalar k = rng.uniform_nonzero(c.order());
  const Point p = random_subgroup_point(c, rng);
  const Point expect = c.scalar_mult_reference(k, p);

  for (const sc::CountermeasureConfig& cfg :
       {sc::CountermeasureConfig::none(), sc::CountermeasureConfig::rpc_only(),
        sc::CountermeasureConfig::scalar_blinded(),
        sc::CountermeasureConfig::full()}) {
    sc::HardenedLadder hl(c, cfg);
    for (int rep = 0; rep < 3; ++rep) {
      std::size_t slots = 0;
      const Point got = hl.mult(
          k, p, rng, [&](const medsec::ecc::LadderObservation&) { ++slots; });
      EXPECT_EQ(got, expect) << cfg.name() << " rep " << rep;
      EXPECT_EQ(slots, hl.trace_length()) << cfg.name();
    }
  }
}

// --- protocol wiring --------------------------------------------------------

TEST(HardenedProtocols, SchnorrEciesAndPhRunUnderFullCountermeasures) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(30);
  namespace proto = medsec::protocol;
  const auto cm = sc::CountermeasureConfig::full();

  // Schnorr: hardened prover against a normal verifier.
  {
    const auto kp = proto::schnorr_keygen(c, rng);
    sc::HardenedLadder hl(c, cm);
    proto::SchnorrProver prover(c, kp, rng, &hl);
    proto::SchnorrVerifier verifier(c, kp.X, rng);
    proto::Transcript transcript;
    EXPECT_TRUE(proto::drive_session(prover, verifier, transcript));
    EXPECT_TRUE(verifier.accepted());
    // 1 commitment mult + 2 hidden base-blinding provisioning ladders
    // (the full config pays them per ephemeral scalar — and the ledger
    // must say so).
    EXPECT_EQ(prover.ledger().ecpm, 3u);
  }

  // ECIES: hardened uploader, normal receiver, payload round-trips.
  {
    const auto& aes = medsec::ciphers::kAes128Suite;
    const auto kp = proto::ecies_keygen(c, rng);
    const std::vector<std::uint8_t> telemetry{'h', 'r', '=', '6', '2'};
    sc::HardenedLadder hl(c, cm);
    proto::EciesUploader up(c, kp.Y, telemetry, aes, rng, &hl);
    proto::EciesReceiver rx(c, kp.y, aes);
    proto::Transcript transcript;
    EXPECT_TRUE(proto::drive_session(up, rx, transcript));
    ASSERT_TRUE(rx.delivered());
    EXPECT_EQ(rx.plaintext(), telemetry);
  }

  // Peeters–Hermans: hardened tag still resolves to its DB slot.
  {
    auto reader = proto::ph_setup_reader(c, rng);
    const auto tag = proto::ph_register_tag(c, reader, rng);
    sc::HardenedLadder hl(c, cm);
    proto::PhTagMachine tag_sm(c, tag, rng, &hl);
    proto::PhReaderMachine reader_sm(c, reader, rng);
    proto::Transcript transcript;
    EXPECT_TRUE(proto::drive_session(tag_sm, reader_sm, transcript));
    ASSERT_TRUE(reader_sm.identity().has_value());
    EXPECT_EQ(*reader_sm.identity(), tag.registered_index);
    // 2 protocol mults + 2 provisioning ladders (the respond-side mult
    // reuses the pair: same session scalar r).
    EXPECT_EQ(tag_sm.ledger().ecpm, 4u);
  }
}

// --- the acceptance matrix (deterministic seeds) ----------------------------

TEST(CountermeasureMatrix, ScalarBlindingCollapsesWhiteBoxCpaToChance) {
  // The strongest §7 adversary — white-box, randomizers known — against
  // the same 300-trace budget: bare ladder falls, blinded ladder holds.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(11);
  const Scalar k = rng.uniform_nonzero(c.order());
  sc::DpaConfig dc;
  dc.bits_to_attack = 12;
  sc::AlgorithmicSimConfig simc;
  simc.seed = 77;

  simc.countermeasures = sc::CountermeasureConfig::none();
  const auto bare = sc::ladder_dpa_attack(
      c, sc::generate_dpa_traces(c, k, 300,
                                 sc::RpcScenario::kEnabledKnownRandomness,
                                 simc),
      dc);
  EXPECT_TRUE(bare.full_success) << "accuracy " << bare.accuracy;

  simc.countermeasures = sc::CountermeasureConfig::scalar_blinded();
  const auto blinded = sc::ladder_dpa_attack(
      c, sc::generate_dpa_traces(c, k, 300,
                                 sc::RpcScenario::kEnabledKnownRandomness,
                                 simc),
      dc);
  EXPECT_FALSE(blinded.full_success);
  // Chance level: 12 coin flips — well inside [0.1, 0.9], far from the
  // bare attack's 1.0.
  EXPECT_LT(blinded.accuracy, 0.9) << "accuracy " << blinded.accuracy;
}

TEST(CountermeasureMatrix, ScalarBlindingDropsLadderTvlaBelowThreshold) {
  // Fixed-vs-random TVLA on the ladder traces: fixed group pins (k, P),
  // random group draws a fresh scalar per trace. Unprotected, the fixed
  // group's statistics stick out far beyond |t| = 4.5; with scalar
  // blinding every execution walks a fresh bit pattern and the two
  // groups become indistinguishable.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(12);
  const Scalar k = rng.uniform_nonzero(c.order());

  const auto group = [&](const sc::CountermeasureConfig& cm, bool fixed,
                         std::uint64_t seed) {
    sc::AlgorithmicSimConfig simc;
    simc.seed = seed;
    simc.fixed_base_point = c.base_point();
    simc.countermeasures = cm;
    simc.randomize_scalar = !fixed;
    return sc::generate_dpa_traces(c, k, 120, sc::RpcScenario::kDisabled,
                                   simc)
        .traces;
  };

  const auto bare_cfg = sc::CountermeasureConfig::none();
  const auto bare = sc::tvla_fixed_vs_random(group(bare_cfg, true, 100),
                                             group(bare_cfg, false, 200));
  EXPECT_TRUE(bare.leaks());
  EXPECT_GT(bare.max_abs_t, 4.5);

  const auto blind_cfg = sc::CountermeasureConfig::scalar_blinded();
  const auto blinded = sc::tvla_fixed_vs_random(group(blind_cfg, true, 300),
                                                group(blind_cfg, false, 400));
  EXPECT_LT(blinded.max_abs_t, 4.5) << "max |t| " << blinded.max_abs_t;
}

TEST(CountermeasureMatrix, EveryConfigBeatsKnownInputCpa) {
  // Every non-trivial countermeasure on its own defeats the standard
  // known-input CPA at a budget where the bare ladder falls.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(13);
  const Scalar k = rng.uniform_nonzero(c.order());
  sc::DpaConfig dc;
  dc.bits_to_attack = 12;

  sc::AlgorithmicSimConfig simc;
  simc.seed = 2024;
  simc.countermeasures = sc::CountermeasureConfig::none();
  const auto bare = sc::ladder_dpa_attack(
      c, sc::generate_dpa_traces(c, k, 400, sc::RpcScenario::kDisabled, simc),
      dc);
  ASSERT_TRUE(bare.full_success);

  sc::CountermeasureConfig base_only;
  base_only.base_point_blinding = true;
  sc::CountermeasureConfig shuffle_only;
  shuffle_only.shuffle_schedule = true;
  for (const sc::CountermeasureConfig& cfg :
       {sc::CountermeasureConfig::rpc_only(),
        sc::CountermeasureConfig::scalar_blinded(), base_only, shuffle_only,
        sc::CountermeasureConfig::full()}) {
    simc.countermeasures = cfg;
    const auto r = sc::ladder_dpa_attack(
        c,
        sc::generate_dpa_traces(c, k, 400, sc::RpcScenario::kDisabled, simc),
        dc);
    EXPECT_FALSE(r.full_success) << cfg.name();
    EXPECT_LT(r.accuracy, 0.9) << cfg.name() << " " << r.accuracy;
  }
}

TEST(CountermeasureMatrix, CampaignIsGeometryInvariantUnderCountermeasures) {
  // The campaign determinism contract survives the countermeasure layer:
  // 1 thread / 1-lane blocks and max fan-out produce bit-identical
  // experiments for a blinded + masked config.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(14);
  const Scalar k = rng.uniform_nonzero(c.order());
  sc::CountermeasureConfig cm;
  cm.scalar_blinding = true;
  cm.base_point_blinding = true;
  cm.randomize_projective = true;

  sc::AlgorithmicSimConfig one;
  one.seed = 5;
  one.countermeasures = cm;
  one.threads = 1;
  one.lanes = 1;
  sc::AlgorithmicSimConfig wide = one;
  wide.threads = 0;
  wide.lanes = 0;

  const auto a = sc::generate_dpa_traces(
      c, k, 40, sc::RpcScenario::kEnabledSecretRandomness, one);
  const auto b = sc::generate_dpa_traces(
      c, k, 40, sc::RpcScenario::kEnabledSecretRandomness, wide);
  ASSERT_EQ(a.traces.traces.size(), b.traces.traces.size());
  for (std::size_t j = 0; j < a.traces.traces.size(); ++j)
    EXPECT_EQ(a.traces.traces[j], b.traces.traces[j]) << j;
  for (std::size_t j = 0; j < a.base_points.size(); ++j)
    EXPECT_EQ(a.base_points[j], b.base_points[j]) << j;
}

// --- the evaluation engine --------------------------------------------------

TEST(EvalMatrix, SmallGridRunsAndSerializes) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(40);
  const Scalar k = rng.uniform_nonzero(c.order());

  sc::EvalConfig cfg;
  cfg.countermeasures = {sc::CountermeasureConfig::none(),
                         sc::CountermeasureConfig::scalar_blinded()};
  cfg.attacks = {sc::EvalAttack::kCpaWhiteBox, sc::EvalAttack::kTvla};
  cfg.traces = 300;
  cfg.tvla_traces_per_group = 60;
  cfg.seed = 2024;
  const auto m = sc::run_eval_matrix(c, k, cfg);
  ASSERT_EQ(m.cells.size(), 4u);

  const auto cell = [&](const char* attack, const char* cm) {
    for (const auto& x : m.cells)
      if (x.attack == attack && x.countermeasure == cm) return x;
    ADD_FAILURE() << "missing " << attack << " x " << cm;
    return m.cells.front();
  };
  EXPECT_FALSE(cell("cpa-whitebox", "none").defense_holds);
  EXPECT_TRUE(cell("cpa-whitebox", "blind").defense_holds);
  EXPECT_TRUE(cell("tvla", "blind").defense_holds);
  EXPECT_LT(cell("tvla", "blind").tvla_max_t, 4.5);

  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"schema\":\"medsec-eval-matrix-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"countermeasure\":\"blind\""), std::string::npos);

  EXPECT_THROW(sc::run_eval_matrix(c, k, sc::EvalConfig{}),
               std::invalid_argument);
}

TEST(EvalMatrix, LeavesLaneDispatchAuto) {
  // The matrix runs on the active lane backend and must not pin it: after
  // a run, switching the scalar backend still moves the lanes.
  namespace gf = medsec::gf2m;
  const gf::Backend prev = gf::active_backend();
  gf::reset_lane_backend();
  if (gf::backend_available(gf::Backend::kClmul))
    gf::set_backend(gf::Backend::kClmul);
  const std::string lanes = gf::lane_backend_name(gf::active_lane_backend());

  const Curve& c = Curve::k163();
  Xoshiro256 rng(41);
  sc::EvalConfig cfg;
  cfg.countermeasures = {sc::CountermeasureConfig::none()};
  cfg.attacks = {sc::EvalAttack::kTvla};
  cfg.tvla_traces_per_group = 8;
  cfg.threads = 1;
  const auto m = sc::run_eval_matrix(c, rng.uniform_nonzero(c.order()), cfg);
  ASSERT_EQ(m.cells.size(), 1u);
  EXPECT_EQ(m.cells[0].lane_backend, lanes);

  gf::set_backend(gf::Backend::kKaratsuba);
  EXPECT_EQ(gf::active_lane_backend(), gf::LaneBackend::kLaneScalar);
  gf::set_backend(prev);
}

TEST(HardenedLadder, ConfigNamesAreStable) {
  EXPECT_EQ(sc::CountermeasureConfig::none().name(), "none");
  EXPECT_EQ(sc::CountermeasureConfig::rpc_only().name(), "rpc");
  EXPECT_EQ(sc::CountermeasureConfig::scalar_blinded().name(), "blind");
  EXPECT_EQ(sc::CountermeasureConfig::full().name(),
            "rpc+blind+base+shuffle");
}

// --- the co-processor / secure-processor wiring -----------------------------

TEST(SecureProcessorCountermeasures, EveryLadderConfigComputesKP) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(20);
  const Scalar k = rng.uniform_nonzero(c.order());
  const Point p = random_subgroup_point(c, rng);
  const Point expect = c.scalar_mult_reference(k, p);

  namespace core = medsec::core;
  for (const core::CountermeasureConfig& cfg :
       {core::CountermeasureConfig::protected_default(),
        core::CountermeasureConfig::unprotected(),
        core::CountermeasureConfig::hardened()}) {
    core::SecureEccProcessor proc(c, cfg, /*seed=*/0xC0FFEE);
    for (int rep = 0; rep < 2; ++rep)
      EXPECT_EQ(proc.point_mult(k, p).result, expect)
          << cfg.ladder.name() << " rep " << rep;
  }
}

TEST(SecureProcessorCountermeasures, BlindedAndShuffledCostShowsInCycles) {
  // The countermeasures are design decisions with a measurable price:
  // blinding adds blind_bits+1 iterations, shuffling adds the jitter
  // units — both visible in the cycle telemetry, neither data-dependent.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(21);
  const Scalar k = rng.uniform_nonzero(c.order());
  namespace core = medsec::core;

  core::SecureEccProcessor plain(c,
                                 core::CountermeasureConfig::unprotected());
  core::CountermeasureConfig hardened_cfg =
      core::CountermeasureConfig::unprotected();
  hardened_cfg.ladder = sc::CountermeasureConfig::full();
  core::SecureEccProcessor hardened(c, hardened_cfg);

  const auto base = plain.point_mult(k, c.base_point());
  const auto hard = hardened.point_mult(k, c.base_point());
  EXPECT_EQ(base.result, hard.result);
  EXPECT_GT(hard.cycles, base.cycles);

  // Constant-time property survives: the same config costs the same
  // cycle count for a different key.
  const Scalar k2 = rng.uniform_nonzero(c.order());
  EXPECT_EQ(hardened.point_mult(k2, c.base_point()).cycles, hard.cycles);
}

// --- the SPA vectors under a shuffled schedule ------------------------------

TEST(SpaShuffle, ShuffledScheduleDefeatsBothSpaVectors) {
  // The §6 SPA attacks assume cycle positions learned by profiling stay
  // meaningful on the victim. With the shuffled schedule the victim's
  // real iterations shift by a fresh random jitter pattern every
  // execution, so both classifiers fall to coin-flip territory even with
  // the circuit-level countermeasures OFF.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(22);
  const Scalar k = rng.uniform_nonzero(c.order());

  // Profiling phase on the attacker's own (unshuffled) device.
  sc::CycleSimConfig prof;
  prof.coproc.secure.balanced_mux_encoding = false;
  prof.coproc.secure.uniform_clock_gating = false;
  prof.leakage.noise_sigma = 100.0;
  const auto schedule = sc::profile_schedule(sc::capture_cycle_trace(
      c, rng.uniform_nonzero(c.order()), c.base_point(), prof));

  // Victim: same leaky circuit, but shuffled scheduling.
  sc::CycleSimConfig victim_cfg = prof;
  sc::CountermeasureConfig cm;
  cm.shuffle_schedule = true;
  cm.dummy_iterations = 24;
  victim_cfg.countermeasures = cm;
  const auto victim =
      sc::capture_averaged_cycle_trace(c, k, c.base_point(), victim_cfg, 16);

  const auto mux = sc::mux_control_spa(victim, schedule);
  EXPECT_LT(mux.accuracy, 0.75) << mux.accuracy;
  EXPECT_GT(mux.accuracy, 0.25) << mux.accuracy;
  const auto gating = sc::clock_gating_spa(victim, schedule);
  EXPECT_LT(gating.accuracy, 0.75) << gating.accuracy;
}

TEST(CycleSim, BlindedCycleTraceRunsTheWidenedMicrocode) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(23);
  const Scalar k = rng.uniform_nonzero(c.order());

  sc::CycleSimConfig plain_cfg;
  const auto plain = sc::capture_cycle_trace(c, k, c.base_point(), plain_cfg);

  sc::CycleSimConfig blind_cfg;
  sc::CountermeasureConfig cm;
  cm.scalar_blinding = true;
  cm.randomize_projective = true;
  blind_cfg.countermeasures = cm;
  const auto blinded =
      sc::capture_cycle_trace(c, k, c.base_point(), blind_cfg);

  // blind_bits + 1 extra iterations' worth of cycles.
  EXPECT_GT(blinded.samples.size(), plain.samples.size());
  EXPECT_EQ(blinded.samples.size(), blinded.records.size());
}

}  // namespace
