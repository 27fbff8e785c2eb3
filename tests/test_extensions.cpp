// Tests for the extension features: w-NAF scalar multiplication, the
// Frobenius endomorphism (Koblitz structure), EC-Schnorr signatures,
// ECIES hybrid encryption, and fault-injection on the ladder outputs.
#include <gtest/gtest.h>

#include "ciphers/aes128.h"
#include "ciphers/present.h"
#include "ecc/curve.h"
#include "ecc/koblitz.h"
#include "ecc/ladder.h"
#include "ecc/scalar_mult.h"
#include "protocol/ecies.h"
#include "protocol/signature.h"
#include "rng/xoshiro.h"

namespace {

using medsec::ecc::Curve;
using medsec::ecc::Fe;
using medsec::ecc::MultAlgorithm;
using medsec::ecc::MultOptions;
using medsec::ecc::MultStats;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::rng::Xoshiro256;
namespace proto = medsec::protocol;

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

// --- w-NAF ---------------------------------------------------------------------

TEST(Wnaf, DigitsReconstructTheScalar) {
  Xoshiro256 rng(1);
  const Curve& c = Curve::k163();
  for (unsigned width = 2; width <= 6; ++width) {
    const Scalar k = rng.uniform_nonzero(c.order());
    const auto digits = medsec::ecc::wnaf_digits(k, width);
    // Reconstruct sum(d_i * 2^i) in the scalar ring.
    const auto& ring = c.scalar_ring();
    Scalar acc;
    Scalar pow2{1};
    for (const int d : digits) {
      if (d > 0)
        acc = ring.add(acc, ring.mul(pow2, Scalar{static_cast<std::uint64_t>(d)}));
      else if (d < 0)
        acc = ring.sub(acc, ring.mul(pow2, Scalar{static_cast<std::uint64_t>(-d)}));
      pow2 = ring.add(pow2, pow2);
    }
    EXPECT_EQ(acc, k.mod(c.order())) << "width " << width;
  }
}

TEST(Wnaf, NonAdjacencyAndDigitRange) {
  Xoshiro256 rng(2);
  const Curve& c = Curve::k163();
  for (int trial = 0; trial < 5; ++trial) {
    const auto digits =
        medsec::ecc::wnaf_digits(rng.uniform_nonzero(c.order()), 4);
    int last_nonzero = -100;
    for (int i = 0; i < static_cast<int>(digits.size()); ++i) {
      const int d = digits[static_cast<std::size_t>(i)];
      if (d == 0) continue;
      EXPECT_EQ(d % 2 != 0, true) << "digit must be odd";
      EXPECT_LT(std::abs(d), 8);  // < 2^(w-1)
      EXPECT_GE(i - last_nonzero, 4) << "w consecutive positions";
      last_nonzero = i;
    }
  }
}

TEST(Wnaf, MultiplicationAgreesWithLadder) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(3);
  for (int i = 0; i < 8; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    MultOptions w;
    w.algorithm = MultAlgorithm::kWnaf;
    EXPECT_EQ(medsec::ecc::scalar_mult(c, k, c.base_point(), w),
              medsec::ecc::montgomery_ladder(c, k, c.base_point()));
  }
}

TEST(Wnaf, FewerAddsThanDoubleAndAdd) {
  // The classic ~m/5 vs ~m/2 addition count — and the reason neither is
  // used on the device: the *positions* of the adds remain key-dependent.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(4);
  const Scalar k = rng.uniform_nonzero(c.order());
  MultStats da_stats, w_stats;
  MultOptions da, w;
  da.algorithm = MultAlgorithm::kDoubleAndAdd;
  da.stats = &da_stats;
  w.algorithm = MultAlgorithm::kWnaf;
  w.stats = &w_stats;
  medsec::ecc::scalar_mult(c, k, c.base_point(), da);
  medsec::ecc::scalar_mult(c, k, c.base_point(), w);
  EXPECT_LT(w_stats.point_adds, da_stats.point_adds / 2 + 10);
  // Still SPA-leaky: the op pattern is not uniform.
  bool has_zero = false, has_one = false;
  for (const auto b : w_stats.op_pattern) {
    has_zero = has_zero || b == 0;
    has_one = has_one || b == 1;
  }
  EXPECT_TRUE(has_zero && has_one);
}

TEST(Wnaf, RejectsBadWidth) {
  EXPECT_THROW(medsec::ecc::wnaf_digits(Scalar{5}, 1),
               std::invalid_argument);
  EXPECT_THROW(medsec::ecc::wnaf_digits(Scalar{5}, 9),
               std::invalid_argument);
  EXPECT_TRUE(medsec::ecc::wnaf_digits(Scalar{}, 4).empty());
}

// --- tau-adic NAF (Koblitz) -----------------------------------------------------

TEST(TauNaf, DigitsAreSignedBitsAndNonAdjacent) {
  Xoshiro256 rng(20);
  const Curve& c = Curve::k163();
  for (int trial = 0; trial < 5; ++trial) {
    const auto digits =
        medsec::ecc::tau_naf_digits(rng.uniform_nonzero(c.order()), 1);
    EXPECT_LE(digits.size(), 340u);  // ~2m + small slack, unreduced
    for (std::size_t i = 0; i + 1 < digits.size(); ++i) {
      EXPECT_LE(std::abs(digits[i]), 1);
      EXPECT_FALSE(digits[i] != 0 && digits[i + 1] != 0)
          << "adjacent nonzero digits at " << i;
    }
  }
  EXPECT_THROW(medsec::ecc::tau_naf_digits(Scalar{5}, 0),
               std::invalid_argument);
  EXPECT_TRUE(medsec::ecc::tau_naf_digits(Scalar{}, 1).empty());
}

TEST(TauNaf, MultiplicationAgreesWithLadder) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(21);
  for (int i = 0; i < 8; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    EXPECT_EQ(medsec::ecc::tau_naf_mult(c, k, c.base_point()),
              medsec::ecc::montgomery_ladder(c, k, c.base_point()));
  }
  for (std::uint64_t k = 0; k <= 16; ++k)
    EXPECT_EQ(medsec::ecc::tau_naf_mult(c, Scalar{k}, c.base_point()),
              c.scalar_mult_reference(Scalar{k}, c.base_point()))
        << "k=" << k;
}

TEST(TauNaf, UsesNoPointDoublings) {
  // The whole point of the Koblitz structure: doublings are replaced by
  // (nearly free) Frobenius maps.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(22);
  MultStats st;
  medsec::ecc::tau_naf_mult(c, rng.uniform_nonzero(c.order()),
                            c.base_point(), &st);
  EXPECT_EQ(st.point_doubles, 0u);
  // Width-4 windowed TNAF: nonzero digit density ~1/(w+1) = 1/5 of the
  // ~2*163-digit expansion (the classic w=2 TNAF would sit near digits/3).
  EXPECT_GT(st.point_adds, 45u);
  EXPECT_LT(st.point_adds, 90u);
}

TEST(TauNaf, DispatchThroughScalarMult) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(23);
  const Scalar k = rng.uniform_nonzero(c.order());
  MultOptions opt;
  opt.algorithm = MultAlgorithm::kTauNaf;
  EXPECT_EQ(medsec::ecc::scalar_mult(c, k, c.base_point(), opt),
            medsec::ecc::montgomery_ladder(c, k, c.base_point()));
}

// --- Frobenius -------------------------------------------------------------------

TEST(Frobenius, MapsCurvePointsToCurvePoints) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(5);
  Point p = c.base_point();
  for (int i = 0; i < 5; ++i) {
    const Point fp = c.frobenius(p);
    EXPECT_TRUE(c.is_on_curve(fp));
    EXPECT_FALSE(fp == p);
    p = c.dbl(p);
  }
  EXPECT_TRUE(c.frobenius(Point::at_infinity()).infinity);
}

TEST(Frobenius, SatisfiesCharacteristicEquation) {
  // phi^2(P) + 2P == mu * phi(P) with mu = +1 on K-163 (a = 1).
  const Curve& c = Curve::k163();
  ASSERT_EQ(c.frobenius_trace_mu(), 1);
  Xoshiro256 rng(6);
  for (int i = 0; i < 5; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    const Point p = c.scalar_mult_reference(k, c.base_point());
    const Point lhs = c.add(c.frobenius(c.frobenius(p)), c.dbl(p));
    const Point rhs = c.frobenius(p);  // mu = 1
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Frobenius, CommutesWithScalarMultiplication) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(7);
  const Scalar k = rng.uniform_nonzero(c.order());
  const Point p = c.base_point();
  EXPECT_EQ(c.frobenius(c.scalar_mult_reference(k, p)),
            c.scalar_mult_reference(k, c.frobenius(p)));
}

// --- EC-Schnorr signatures ----------------------------------------------------------

struct SignatureFixture : public ::testing::Test {
  const Curve& c = Curve::k163();
  Xoshiro256 rng{8};
  proto::SignatureKeyPair kp = proto::signature_keygen(c, rng);
};

TEST_F(SignatureFixture, SignVerifyRoundTrip) {
  for (const char* msg : {"", "HR=072", "a longer telemetry record with "
                              "several blocks of content in it........"}) {
    proto::EnergyLedger ledger;
    const auto sig = proto::ec_schnorr_sign(c, kp, bytes(msg), rng, &ledger);
    EXPECT_TRUE(proto::ec_schnorr_verify(c, kp.X, bytes(msg), sig)) << msg;
    EXPECT_EQ(ledger.ecpm, 1u);
    EXPECT_EQ(ledger.modmul, 1u);
  }
}

TEST_F(SignatureFixture, RejectsTampering) {
  const auto msg = bytes("dose=1.5u");
  const auto sig = proto::ec_schnorr_sign(c, kp, msg, rng);
  // Different message.
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, bytes("dose=9.5u"), sig));
  // Corrupted components.
  auto bad = sig;
  bad.s = c.scalar_ring().add(bad.s, Scalar{1});
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, msg, bad));
  bad = sig;
  bad.e = c.scalar_ring().add(bad.e, Scalar{1});
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, msg, bad));
  // Wrong key.
  const auto other = proto::signature_keygen(c, rng);
  EXPECT_FALSE(proto::ec_schnorr_verify(c, other.X, msg, sig));
  // Degenerate values.
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, msg, {Scalar{}, sig.s}));
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, msg, {sig.e, c.order()}));
}

TEST_F(SignatureFixture, SignaturesAreRandomized) {
  const auto msg = bytes("same message");
  const auto s1 = proto::ec_schnorr_sign(c, kp, msg, rng);
  const auto s2 = proto::ec_schnorr_sign(c, kp, msg, rng);
  EXPECT_FALSE(s1.s == s2.s);  // fresh r each time
  EXPECT_TRUE(proto::ec_schnorr_verify(c, kp.X, msg, s1));
  EXPECT_TRUE(proto::ec_schnorr_verify(c, kp.X, msg, s2));
}

TEST(Signature, B163RoundTripAndTamperingOnTheWnafPath) {
  // B-163 is not a Koblitz curve, so the verifier's s·P − e·X runs
  // double_scalar_mult's wNAF chain instead of the tau-adic one.
  const Curve& c = Curve::b163();
  Xoshiro256 rng(81);
  const auto kp = proto::signature_keygen(c, rng);
  const auto msg = bytes("dose=1.5u");
  const auto sig = proto::ec_schnorr_sign(c, kp, msg, rng);
  EXPECT_TRUE(proto::ec_schnorr_verify(c, kp.X, msg, sig));
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, bytes("dose=9.5u"), sig));
  auto bad = sig;
  bad.s = c.scalar_ring().add(bad.s, Scalar{1});
  EXPECT_FALSE(proto::ec_schnorr_verify(c, kp.X, msg, bad));
  EXPECT_FALSE(proto::ec_schnorr_verify(
      c, proto::signature_keygen(c, rng).X, msg, sig));
}

// --- ECIES ---------------------------------------------------------------------------

struct EciesFixture : public ::testing::Test {
  const Curve& c = Curve::k163();
  Xoshiro256 rng{9};
  proto::EciesKeyPair kp = proto::ecies_keygen(c, rng);
  const medsec::ciphers::CipherSuite& aes = medsec::ciphers::kAes128Suite;
};

TEST_F(EciesFixture, EncryptDecryptRoundTrip) {
  for (std::size_t len : {0u, 1u, 16u, 33u, 200u}) {
    std::vector<std::uint8_t> pt(len);
    rng.fill(pt);
    proto::EnergyLedger ledger;
    const auto ct = proto::ecies_encrypt(c, kp.Y, pt, aes, rng, &ledger);
    EXPECT_EQ(ledger.ecpm, 2u) << "ephemeral + shared point mult";
    const auto back = proto::ecies_decrypt(c, kp.y, ct, aes);
    ASSERT_TRUE(back.has_value()) << len;
    EXPECT_EQ(*back, pt);
  }
}

TEST_F(EciesFixture, RejectsTamperingAndWrongKey) {
  const auto pt = bytes("glucose=5.4mmol/L");
  auto ct = proto::ecies_encrypt(c, kp.Y, pt, aes, rng);
  auto bad = ct;
  bad.body[0] ^= 1;
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, bad, aes));
  bad = ct;
  bad.tag[0] ^= 1;
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, bad, aes));
  bad = ct;
  bad.ephemeral = c.dbl(bad.ephemeral);  // different valid point
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, bad, aes));
  const auto other = proto::ecies_keygen(c, rng);
  EXPECT_FALSE(proto::ecies_decrypt(c, other.y, ct, aes));
}

TEST_F(EciesFixture, RejectsInvalidEphemeralPoint) {
  const auto pt = bytes("x");
  auto ct = proto::ecies_encrypt(c, kp.Y, pt, aes, rng);
  // Small-subgroup / off-curve injection at the trust boundary.
  ct.ephemeral = Point::affine(Fe::zero(), Fe::sqrt(c.b()));
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, ct, aes));
  ct.ephemeral = Point::at_infinity();
  EXPECT_FALSE(proto::ecies_decrypt(c, kp.y, ct, aes));
}

TEST_F(EciesFixture, WorksWithLightweightCipher) {
  const auto& present = medsec::ciphers::kPresent80Suite;
  const auto pt = bytes("spo2=97%");
  const auto ct = proto::ecies_encrypt(c, kp.Y, pt, present, rng);
  EXPECT_EQ(ct.tag.size(), 8u);
  const auto back = proto::ecies_decrypt(c, kp.y, ct, present);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, pt);
}

TEST_F(EciesFixture, EncryptToInvalidKeyThrows) {
  EXPECT_THROW(
      proto::ecies_encrypt(c, Point::at_infinity(), bytes("x"), aes, rng),
      std::invalid_argument);
}

// --- fault injection on the ladder outputs -----------------------------------------

TEST(FaultInjection, CorruptedProjectiveOutputTripsTheCanary) {
  // The paper's fault-attack practice: validate before releasing a
  // result. recover_from_ladder re-checks the curve equation, so a fault
  // anywhere in the ladder state is caught instead of leaking a point on
  // a weaker curve (Biehl-Meyer-Mueller style).
  const Curve& c = Curve::k163();
  Xoshiro256 rng(10);
  const Scalar k = rng.uniform_nonzero(c.order());
  medsec::ecc::LadderState s =
      medsec::ecc::ladder_initial_state(c.b(), c.base_point().x);
  const Scalar padded = medsec::ecc::constant_length_scalar(c, k);
  for (std::size_t i = padded.bit_length() - 1; i-- > 0;)
    medsec::ecc::ladder_iteration(c.b(), c.base_point().x, s,
                                  padded.bit(i) ? 1 : 0);

  // Unfaulted state recovers fine.
  EXPECT_NO_THROW(medsec::ecc::recover_from_ladder(c, c.base_point(), s.x1,
                                                   s.z1, s.x2, s.z2));
  // Single-bit faults in each register must be detected.
  for (int reg = 0; reg < 4; ++reg) {
    Fe x1 = s.x1, z1 = s.z1, x2 = s.x2, z2 = s.z2;
    const Fe flip{1ull << 17};
    (reg == 0 ? x1 : reg == 1 ? z1 : reg == 2 ? x2 : z2) += flip;
    EXPECT_THROW(
        medsec::ecc::recover_from_ladder(c, c.base_point(), x1, z1, x2, z2),
        std::logic_error)
        << "fault in register " << reg << " escaped the canary";
  }
}

}  // namespace
