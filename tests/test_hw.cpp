// Tests for the hardware model layer: digit-serial MALU bit-exactness,
// co-processor vs. algorithmic ladder cross-check, constant-time properties,
// area model sanity, and the energy calibration against the paper's chip.
#include <gtest/gtest.h>

#include <cmath>

#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "hw/coprocessor.h"
#include "hw/digit_serial.h"
#include "hw/gates.h"
#include "hw/radio.h"
#include "hw/technology.h"
#include "rng/xoshiro.h"
#include "sidechannel/countermeasures.h"

namespace {

using medsec::bigint::U192;
using medsec::ecc::Curve;
using medsec::ecc::montgomery_ladder;
using medsec::ecc::Point;
using medsec::ecc::recover_from_ladder;
using medsec::ecc::Scalar;
using medsec::gf2m::Gf163;
using medsec::rng::Xoshiro256;
using medsec::sidechannel::coproc_key_bits;
namespace hw = medsec::hw;

Gf163 random_fe(Xoshiro256& rng) {
  U192 v;
  for (std::size_t i = 0; i < 3; ++i) v.set_limb(i, rng.next_u64());
  return Gf163::from_bits(v);
}

// --- digit-serial multiplier --------------------------------------------------

class MaluBitExact : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MaluBitExact, MatchesSoftwareFieldMultiplication) {
  const hw::DigitSerialMultiplier malu(GetParam());
  Xoshiro256 rng(42 + GetParam());
  for (int i = 0; i < 25; ++i) {
    const Gf163 a = random_fe(rng);
    const Gf163 b = random_fe(rng);
    const hw::MaluResult r = malu.multiply(a, b);
    EXPECT_EQ(r.product, Gf163::mul(a, b))
        << "d=" << GetParam() << " sample " << i;
    EXPECT_EQ(r.cycles, malu.cycles_per_mult());
    EXPECT_EQ(r.activity.size(), r.cycles);
  }
}

TEST_P(MaluBitExact, EdgeOperands) {
  const hw::DigitSerialMultiplier malu(GetParam());
  const Gf163 one = Gf163::one();
  const Gf163 top = Gf163{0, 0, 1ull << 34};  // x^162
  EXPECT_TRUE(malu.multiply(Gf163::zero(), top).product.is_zero());
  EXPECT_EQ(malu.multiply(one, top).product, top);
  EXPECT_EQ(malu.multiply(top, one).product, top);
  EXPECT_EQ(malu.multiply(top, top).product, Gf163::sqr(top));
}

INSTANTIATE_TEST_SUITE_P(DigitSizes, MaluBitExact,
                         ::testing::Values(1, 2, 3, 4, 8, 16),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

TEST(Malu, CycleCountIsCeilMOverD) {
  EXPECT_EQ(hw::DigitSerialMultiplier(1).cycles_per_mult(), 163u);
  EXPECT_EQ(hw::DigitSerialMultiplier(2).cycles_per_mult(), 82u);
  EXPECT_EQ(hw::DigitSerialMultiplier(4).cycles_per_mult(), 41u);
  EXPECT_EQ(hw::DigitSerialMultiplier(8).cycles_per_mult(), 21u);
  EXPECT_EQ(hw::DigitSerialMultiplier(16).cycles_per_mult(), 11u);
}

TEST(Malu, RejectsBadDigitSize) {
  EXPECT_THROW(hw::DigitSerialMultiplier(0), std::invalid_argument);
  EXPECT_THROW(hw::DigitSerialMultiplier(64), std::invalid_argument);
}

TEST(Malu, AreaGrowsWithDigitSize) {
  double prev = 0;
  for (std::size_t d : {1, 2, 4, 8, 16}) {
    const double a = hw::DigitSerialMultiplier(d).area_ge();
    EXPECT_GT(a, prev) << "d=" << d;
    prev = a;
  }
}

TEST(Malu, DigitSweepShapes) {
  // §5's trade-off: latency falls with d, area rises with d, and the
  // area-energy product has an interior optimum at the paper's d = 4.
  const auto sweep = hw::digit_size_sweep(hw::Technology::umc130());
  ASSERT_EQ(sweep.size(), 5u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LT(sweep[i].cycles_per_mult, sweep[i - 1].cycles_per_mult);
    EXPECT_GT(sweep[i].area_ge, sweep[i - 1].area_ge);
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < sweep.size(); ++i)
    if (sweep[i].area_energy_product < sweep[best].area_energy_product)
      best = i;
  EXPECT_EQ(sweep[best].digit_size, 4u)
      << "paper: 163x4 achieves the optimal area-energy product";
}

// --- gate inventory -----------------------------------------------------------

TEST(Gates, PaperNumbersArePresent) {
  EXPECT_DOUBLE_EQ(hw::inventory("SHA-1").gate_equivalents, 5527.0);
  EXPECT_DOUBLE_EQ(hw::inventory("ECC-163 core").gate_equivalents, 12000.0);
  EXPECT_THROW(hw::inventory("DES"), std::out_of_range);
}

TEST(Gates, EccCoreModelNearPublishedFigure) {
  // The structural model at the paper's d = 4 should land near the ~12 kGE
  // the paper quotes (within 15% — it is a first-order model).
  const double ge = hw::ecc_coprocessor_ge(163, 4);
  EXPECT_NEAR(ge, 12000.0, 0.15 * 12000.0) << "model GE = " << ge;
}

TEST(Gates, HashIsNotCheapComparedToEcc) {
  // §4's protocol-design point: SHA-1 is nearly half an ECC core.
  const double sha = hw::inventory("SHA-1").gate_equivalents;
  const double ecc = hw::inventory("ECC-163 core").gate_equivalents;
  EXPECT_GT(sha / ecc, 0.4);
}

// --- co-processor correctness -------------------------------------------------

class CoprocVsLadder : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CoprocVsLadder, PointMultMatchesAlgorithmicLadder) {
  const Curve& c = Curve::k163();
  hw::CoprocessorConfig cfg;
  cfg.digit_size = GetParam();
  hw::Coprocessor cop(cfg);
  Xoshiro256 rng(7 + GetParam());
  for (int i = 0; i < 4; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    const auto r =
        cop.point_mult(coproc_key_bits(c, k), c.base_point().x, {}, nullptr);
    const Point expect = montgomery_ladder(c, k, c.base_point());
    ASSERT_FALSE(r.result_is_infinity);
    ASSERT_FALSE(expect.infinity);
    EXPECT_EQ(r.x_affine, expect.x) << "k=" << k.to_hex();
    // The projective outputs feed software y-recovery (insecure zone).
    const Point rec = recover_from_ladder(c, c.base_point(), r.x1, r.z1,
                                          r.x2, r.z2);
    EXPECT_EQ(rec, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(DigitSizes, CoprocVsLadder, ::testing::Values(1, 4, 16),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

TEST(Coprocessor, RpcGivesSameResultDifferentIntermediates) {
  const Curve& c = Curve::k163();
  hw::Coprocessor cop;
  Xoshiro256 rng(11);
  const Scalar k = rng.uniform_nonzero(c.order());
  const auto bits = coproc_key_bits(c, k);

  hw::PointMultOptions plain;
  hw::PointMultOptions rpc;
  rpc.z_randomizers = {random_fe(rng), random_fe(rng)};

  const auto r0 = cop.point_mult(bits, c.base_point().x, plain, nullptr);
  const auto r1 = cop.point_mult(bits, c.base_point().x, rpc, nullptr);
  EXPECT_EQ(r0.x_affine, r1.x_affine);
  // Projective representations must differ (the DPA story).
  EXPECT_FALSE(r0.z1 == r1.z1);
}

TEST(Coprocessor, SmallScalarsMatchReference) {
  const Curve& c = Curve::k163();
  hw::Coprocessor cop;
  for (std::uint64_t k = 1; k <= 8; ++k) {
    const auto r = cop.point_mult(coproc_key_bits(c, Scalar{k}),
                                  c.base_point().x, {}, nullptr);
    const Point expect = c.scalar_mult_reference(Scalar{k}, c.base_point());
    EXPECT_EQ(r.x_affine, expect.x) << "k=" << k;
  }
}

TEST(Coprocessor, KZeroYieldsInfinity) {
  const Curve& c = Curve::k163();
  hw::Coprocessor cop;
  const auto r = cop.point_mult(coproc_key_bits(c, Scalar{}), c.base_point().x,
                                {}, nullptr);
  EXPECT_TRUE(r.result_is_infinity);
}

TEST(Coprocessor, RejectsBadInputs) {
  hw::Coprocessor cop;
  const Curve& c = Curve::k163();
  EXPECT_THROW(cop.point_mult({}, c.base_point().x, {}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(cop.point_mult({0, 1, 1}, c.base_point().x, {}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(cop.point_mult({1, 0, 1}, Gf163::zero(), {}, nullptr),
               std::invalid_argument);
  hw::PointMultOptions opt;
  opt.z_randomizers = {Gf163::zero(), Gf163::one()};
  EXPECT_THROW(cop.point_mult({1, 0}, c.base_point().x, opt, nullptr),
               std::invalid_argument);
}

// --- constant-time properties ---------------------------------------------------

TEST(Coprocessor, CycleCountIsKeyIndependent) {
  // §7: "the computation time of a point multiplication is the same for
  // different key values" — the intrinsic timing countermeasure.
  const Curve& c = Curve::k163();
  hw::Coprocessor cop;
  Xoshiro256 rng(13);
  std::size_t cycles = 0;
  for (const Scalar& k :
       {Scalar{1}, Scalar{2}, rng.uniform_nonzero(c.order()),
        rng.uniform_nonzero(c.order())}) {
    const auto r =
        cop.point_mult(coproc_key_bits(c, k), c.base_point().x, {}, nullptr);
    if (cycles == 0) cycles = r.exec.cycles;
    EXPECT_EQ(r.exec.cycles, cycles) << "k=" << k.to_hex();
  }
}

TEST(Coprocessor, LatencyTableMatchesExecution) {
  hw::Coprocessor cop;
  using hw::Op;
  using hw::Reg;
  const std::vector<std::pair<Op, hw::Instruction>> cases = {
      {Op::kMul, {Op::kMul, Reg::kT, Reg::kXP, Reg::kXP, {}, 0}},
      {Op::kSqr, {Op::kSqr, Reg::kT, Reg::kXP, Reg::kXP, {}, 0}},
      {Op::kAdd, {Op::kAdd, Reg::kT, Reg::kXP, Reg::kX1, {}, 0}},
      {Op::kMov, {Op::kMov, Reg::kT, Reg::kXP, Reg::kXP, {}, 0}},
      {Op::kLdi, {Op::kLdi, Reg::kT, Reg::kT, Reg::kT, Gf163::one(), 0}},
      {Op::kSelSet, {Op::kSelSet, Reg::kT, Reg::kT, Reg::kT, {}, 1}},
  };
  for (const auto& [op, ins] : cases) {
    const auto r = cop.execute({ins}, nullptr);
    EXPECT_EQ(r.cycles, cop.latency(op));
  }
}

TEST(Coprocessor, MicrocodeUsesOnlySixRegisters) {
  // The paper's §4 register budget. Every microcode stream must fit the
  // six-register file — this test enumerates the register fields.
  for (const auto& prog :
       {medsec::hw::microcode::ladder_step(0),
        medsec::hw::microcode::ladder_step(1),
        medsec::hw::microcode::ladder_init(std::nullopt),
        medsec::hw::microcode::ladder_init(
            std::make_pair(Gf163{3}, Gf163{5})),
        medsec::hw::microcode::affine_conversion()}) {
    for (const auto& ins : prog) {
      EXPECT_LT(static_cast<unsigned>(ins.rd), hw::kNumRegs);
      EXPECT_LT(static_cast<unsigned>(ins.ra), hw::kNumRegs);
      EXPECT_LT(static_cast<unsigned>(ins.rb), hw::kNumRegs);
    }
  }
}

TEST(Coprocessor, LadderStepOpBudgetMatchesHeader) {
  // 5 MUL + 5 SQR + 3 ADD + 1 MOV (+1 SELSET) per iteration on K-163.
  const auto prog = medsec::hw::microcode::ladder_step(0);
  int mul = 0, sqr = 0, add = 0, mov = 0, sel = 0;
  for (const auto& ins : prog) {
    switch (ins.op) {
      case hw::Op::kMul: ++mul; break;
      case hw::Op::kSqr: ++sqr; break;
      case hw::Op::kAdd: ++add; break;
      case hw::Op::kMov: ++mov; break;
      case hw::Op::kSelSet: ++sel; break;
      default: break;
    }
  }
  EXPECT_EQ(mul, 5);
  EXPECT_EQ(sqr, 5);
  EXPECT_EQ(add, 3);
  EXPECT_EQ(mov, 1);
  EXPECT_EQ(sel, 1);
}

// --- energy calibration ---------------------------------------------------------

TEST(Calibration, ReproducesPaperChipNumbers) {
  // §6: 50.4 uW at 847.5 kHz / 1 V; 5.1 uJ and 9.8 point multiplications
  // per second. One calibration (Technology::umc130 + ActivityWeights)
  // must reproduce all three within 10%.
  const Curve& c = Curve::k163();
  hw::Coprocessor cop;  // defaults: d = 4, protected, umc130
  Xoshiro256 rng(17);
  const Scalar k = rng.uniform_nonzero(c.order());
  hw::PointMultOptions opt;
  opt.z_randomizers = {random_fe(rng), random_fe(rng)};
  const auto r = cop.point_mult(coproc_key_bits(c, k), c.base_point().x, opt,
                                nullptr);

  const double pm_per_s = 1.0 / r.seconds;
  RecordProperty("cycles", std::to_string(r.exec.cycles));
  RecordProperty("energy_uJ", std::to_string(r.energy_j * 1e6));
  RecordProperty("power_uW", std::to_string(r.avg_power_w * 1e6));
  RecordProperty("pm_per_s", std::to_string(pm_per_s));

  EXPECT_NEAR(r.energy_j * 1e6, 5.1, 0.51)
      << "modeled energy " << r.energy_j * 1e6 << " uJ vs paper 5.1 uJ";
  EXPECT_NEAR(r.avg_power_w * 1e6, 50.4, 5.04)
      << "modeled power " << r.avg_power_w * 1e6 << " uW vs paper 50.4 uW";
  EXPECT_NEAR(pm_per_s, 9.8, 0.98)
      << "modeled throughput " << pm_per_s << " PM/s vs paper 9.8";
}

// --- radio model ----------------------------------------------------------------

TEST(Radio, EnergyMonotoneInBitsAndDistance) {
  const hw::RadioModel r = hw::RadioModel::ban();
  EXPECT_LT(r.tx_energy_j(100, 1.0), r.tx_energy_j(200, 1.0));
  EXPECT_LT(r.tx_energy_j(100, 1.0), r.tx_energy_j(100, 10.0));
  EXPECT_DOUBLE_EQ(r.rx_energy_j(100), 100 * r.e_elec_j_per_bit);
  EXPECT_GT(r.airtime_s(250'000), 0.99);
}

TEST(Radio, ImplantPathLossDominatesAtDistance) {
  // With exponent 4, distance hurts much more for implants.
  const auto ban = hw::RadioModel::ban();
  const auto imp = hw::RadioModel::implant();
  const double ratio_ban = ban.tx_energy_j(100, 10) / ban.tx_energy_j(100, 1);
  const double ratio_imp = imp.tx_energy_j(100, 10) / imp.tx_energy_j(100, 1);
  EXPECT_GT(ratio_imp, ratio_ban);
}

}  // namespace
