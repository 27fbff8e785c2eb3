// Tests for the core SecureEccProcessor facade and the ISA audit.
#include <gtest/gtest.h>

#include "core/isa_audit.h"
#include "core/secure_processor.h"
#include "ecc/ladder.h"
#include "ecc/scalar_mult.h"
#include "rng/xoshiro.h"

namespace {

using medsec::core::CountermeasureConfig;
using medsec::core::SecureEccProcessor;
using medsec::ecc::Curve;
using medsec::ecc::Fe;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::rng::Xoshiro256;

TEST(SecureProcessor, MatchesAlgorithmicLadder) {
  const Curve& c = Curve::k163();
  SecureEccProcessor proc(c, CountermeasureConfig::protected_default());
  Xoshiro256 rng(1);
  for (int i = 0; i < 3; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    const auto out = proc.point_mult(k, c.base_point());
    EXPECT_EQ(out.result, medsec::ecc::montgomery_ladder(c, k, c.base_point()));
    EXPECT_GT(out.energy_j, 0.0);
    EXPECT_GT(out.cycles, 80000u);
  }
}

TEST(SecureProcessor, RejectsInvalidInputPoints) {
  const Curve& c = Curve::k163();
  SecureEccProcessor proc(c, CountermeasureConfig::protected_default());
  EXPECT_THROW(proc.point_mult(Scalar{3}, Point::at_infinity()),
               std::invalid_argument);
  Point off = c.base_point();
  off.y += Fe::one();
  EXPECT_THROW(proc.point_mult(Scalar{3}, off), std::invalid_argument);
  const Point two_torsion = Point::affine(Fe::zero(), Fe::sqrt(c.b()));
  EXPECT_THROW(proc.point_mult(Scalar{3}, two_torsion),
               std::invalid_argument);
}

TEST(SecureProcessor, EnergyNearPaperFigure) {
  const Curve& c = Curve::k163();
  SecureEccProcessor proc(c, CountermeasureConfig::protected_default());
  Xoshiro256 rng(2);
  const auto out = proc.point_mult(rng.uniform_nonzero(c.order()),
                                   c.base_point());
  EXPECT_NEAR(out.energy_j * 1e6, 5.1, 0.55);
  EXPECT_NEAR(out.avg_power_w * 1e6, 50.4, 5.1);
}

TEST(SecureProcessor, ZeroizationClearsWorkingRegisters) {
  const Curve& c = Curve::k163();
  SecureEccProcessor proc(c, CountermeasureConfig::protected_default());
  Xoshiro256 rng(3);
  proc.point_mult(rng.uniform_nonzero(c.order()), c.base_point());
  using medsec::hw::Reg;
  for (const Reg r : {Reg::kZ1, Reg::kX2, Reg::kZ2, Reg::kT, Reg::kXP})
    EXPECT_TRUE(proc.coprocessor().reg(r).is_zero())
        << medsec::hw::reg_name(r);
  EXPECT_FALSE(proc.coprocessor().reg(Reg::kX1).is_zero());  // the result
}

TEST(SecureProcessor, UnprotectedConfigSkipsZeroization) {
  const Curve& c = Curve::k163();
  SecureEccProcessor proc(c, CountermeasureConfig::unprotected());
  Xoshiro256 rng(4);
  proc.point_mult(rng.uniform_nonzero(c.order()), c.base_point());
  // At least one working register retains state: the ablation baseline.
  using medsec::hw::Reg;
  bool residue = false;
  for (const Reg r : {Reg::kZ1, Reg::kX2, Reg::kZ2, Reg::kT, Reg::kXP})
    residue = residue || !proc.coprocessor().reg(r).is_zero();
  EXPECT_TRUE(residue);
}

TEST(SecureProcessor, RpcChangesNothingFunctionally) {
  const Curve& c = Curve::k163();
  CountermeasureConfig with = CountermeasureConfig::protected_default();
  CountermeasureConfig without = with;
  without.ladder.randomize_projective = false;
  SecureEccProcessor p1(c, with), p2(c, without);
  Xoshiro256 rng(6);
  const Scalar k = rng.uniform_nonzero(c.order());
  EXPECT_EQ(p1.point_mult(k, c.base_point()).result,
            p2.point_mult(k, c.base_point()).result);
}

TEST(SecureProcessor, SessionsAreIndependentAndReentrant) {
  const Curve& c = Curve::k163();
  const SecureEccProcessor proc(c, CountermeasureConfig::protected_default());
  Xoshiro256 rng(7);
  const Scalar k1 = rng.uniform_nonzero(c.order());
  const Scalar k2 = rng.uniform_nonzero(c.order());

  // Two sessions interleaved: each owns its register file and DRBG, so
  // neither perturbs the other.
  auto s1 = proc.open_session(1);
  auto s2 = proc.open_session(2);
  const auto r1 = s1.point_mult(k1, c.base_point());
  const auto r2 = s2.point_mult(k2, c.base_point());
  const auto r1b = s1.point_mult(k1, c.base_point());
  EXPECT_EQ(r1.result, medsec::ecc::montgomery_ladder(c, k1, c.base_point()));
  EXPECT_EQ(r2.result, medsec::ecc::montgomery_ladder(c, k2, c.base_point()));
  EXPECT_EQ(r1b.result, r1.result);
  // Each result register still holds its own session's product.
  using medsec::hw::Reg;
  EXPECT_EQ(s1.coprocessor().reg(Reg::kX1), r1.result.x);
  EXPECT_EQ(s2.coprocessor().reg(Reg::kX1), r2.result.x);

  // Distinct session seeds draw distinct Z-randomizer streams, but the
  // randomization never changes the functional result.
  auto s3 = proc.open_session(3);
  EXPECT_EQ(s3.point_mult(k1, c.base_point()).result, r1.result);
}

TEST(IsaAudit, ProtectedConfigurationPasses) {
  const auto rep = medsec::core::audit_isa(Curve::k163());
  EXPECT_TRUE(rep.all_pass());
  EXPECT_EQ(rep.findings.size(), 4u);
  for (const auto& f : rep.findings)
    EXPECT_TRUE(f.pass) << f.check << ": " << f.detail;
}

TEST(IsaAudit, EmptyReportIsNotAPass) {
  medsec::core::IsaAuditReport rep;
  EXPECT_FALSE(rep.all_pass());
}

}  // namespace
