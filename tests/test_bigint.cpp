// Unit and property tests for the fixed-width big-integer substrate.
#include <gtest/gtest.h>

#include <vector>

#include "bigint/biguint.h"
#include "bigint/modring.h"
#include "rng/xoshiro.h"

namespace {

using medsec::bigint::BigUInt;
using medsec::bigint::ModRing;
using medsec::bigint::U192;
using medsec::bigint::U384;
using medsec::rng::Xoshiro256;

// The K-163 group order, used as a realistic 163-bit odd (prime) modulus.
const char* kOrderHex = "4000000000000000000020108A2E0CC0D99F8A5EF";

U192 random_u192(Xoshiro256& rng) {
  U192 v;
  for (std::size_t i = 0; i < U192::kLimbs; ++i) v.set_limb(i, rng.next_u64());
  return v;
}

TEST(BigUInt, HexRoundTrip) {
  const auto v = U192::from_hex(kOrderHex);
  EXPECT_EQ(v.to_hex(), "4000000000000000000020108a2e0cc0d99f8a5ef");
  EXPECT_EQ(U192::from_hex("0").to_hex(), "0");
  EXPECT_EQ(U192::from_hex("0x1f").to_hex(), "1f");
  EXPECT_EQ(U192::from_hex("00000001").to_hex(), "1");
}

TEST(BigUInt, FromHexRejectsBadInput) {
  EXPECT_THROW(U192::from_hex(""), std::invalid_argument);
  EXPECT_THROW(U192::from_hex("xyz"), std::invalid_argument);
  // 49 hex digits = 196 bits > 192.
  EXPECT_THROW(U192::from_hex("1000000000000000000000000000000000000000000000000"),
               std::invalid_argument);
}

TEST(BigUInt, BitLength) {
  EXPECT_EQ(U192{}.bit_length(), 0u);
  EXPECT_EQ(U192{1}.bit_length(), 1u);
  EXPECT_EQ(U192{0xFF}.bit_length(), 8u);
  EXPECT_EQ(U192::from_hex(kOrderHex).bit_length(), 163u);
}

TEST(BigUInt, BitAccess) {
  U192 v;
  v.set_bit(100, true);
  EXPECT_TRUE(v.bit(100));
  EXPECT_FALSE(v.bit(99));
  v.set_bit(100, false);
  EXPECT_TRUE(v.is_zero());
}

TEST(BigUInt, AddSubRoundTrip) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 200; ++i) {
    const U192 a = random_u192(rng);
    const U192 b = random_u192(rng);
    U192 s = a;
    const auto carry = s.add_in_place(b);
    U192 back = s;
    const auto borrow = back.sub_in_place(b);
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);  // overflow iff the subtraction re-borrows
  }
}

TEST(BigUInt, CompareIsConsistentWithSub) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 200; ++i) {
    const U192 a = random_u192(rng);
    const U192 b = random_u192(rng);
    U192 d = a;
    const auto borrow = d.sub_in_place(b);
    EXPECT_EQ(borrow == 1, a < b);
  }
}

TEST(BigUInt, ShiftInverse) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    const U192 a = random_u192(rng);
    for (std::size_t s : {1u, 7u, 63u, 64u, 65u, 130u}) {
      // (a >> s) << s clears the low s bits only.
      const U192 r = (a >> s) << s;
      for (std::size_t bit = s; bit < 192; ++bit)
        EXPECT_EQ(r.bit(bit), a.bit(bit));
      for (std::size_t bit = 0; bit < s; ++bit) EXPECT_FALSE(r.bit(bit));
    }
  }
}

TEST(BigUInt, WideningMulMatchesShiftAdd) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 50; ++i) {
    const U192 a = random_u192(rng);
    const U192 b = random_u192(rng);
    const U384 prod = widening_mul(a, b);
    // Reference: schoolbook via shift-and-add on 384-bit values.
    U384 ref;
    const U384 wide_a = a.resize<384>();
    for (std::size_t bit = 0; bit < 192; ++bit) {
      if (b.bit(bit)) ref.add_in_place(wide_a.shl(bit));
    }
    EXPECT_EQ(prod, ref);
  }
}

TEST(BigUInt, ModBasics) {
  const U192 m{100};
  EXPECT_EQ(U192{1234}.mod(m), U192{34});
  EXPECT_EQ(U192{99}.mod(m), U192{99});
  EXPECT_EQ(U192{100}.mod(m), U192{0});
  EXPECT_THROW(U192{5}.mod(U192{}), std::invalid_argument);
}

TEST(BigUInt, ModAgainstU64) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t m = rng.next_u64() | 1;
    EXPECT_EQ(U192{a}.mod(U192{m}), U192{a % m});
  }
}

TEST(BigUInt, SelectIsBranchFreeSemantics) {
  const U192 a{123}, b{456};
  EXPECT_EQ(U192::select(0, a, b), a);
  EXPECT_EQ(U192::select(1, a, b), b);
}

class ModRingTest : public ::testing::Test {
 protected:
  ModRing<192> ring_{U192::from_hex(kOrderHex)};
  Xoshiro256 rng_{99};

  U192 random_residue() { return random_u192(rng_).mod(ring_.modulus()); }
};

TEST_F(ModRingTest, RejectsEvenOrZeroModulus) {
  EXPECT_THROW(ModRing<192>(U192{}), std::invalid_argument);
  EXPECT_THROW(ModRing<192>(U192{10}), std::invalid_argument);
}

TEST_F(ModRingTest, AddSubInverse) {
  for (int i = 0; i < 200; ++i) {
    const U192 a = random_residue();
    const U192 b = random_residue();
    EXPECT_EQ(ring_.sub(ring_.add(a, b), b), a);
    EXPECT_EQ(ring_.add(ring_.sub(a, b), b), a);
  }
}

TEST_F(ModRingTest, NegAddsToZero) {
  for (int i = 0; i < 100; ++i) {
    const U192 a = random_residue();
    EXPECT_TRUE(ring_.add(a, ring_.neg(a)).is_zero());
  }
}

TEST_F(ModRingTest, MulCommutativeAssociativeDistributive) {
  for (int i = 0; i < 50; ++i) {
    const U192 a = random_residue();
    const U192 b = random_residue();
    const U192 c = random_residue();
    EXPECT_EQ(ring_.mul(a, b), ring_.mul(b, a));
    EXPECT_EQ(ring_.mul(ring_.mul(a, b), c), ring_.mul(a, ring_.mul(b, c)));
    EXPECT_EQ(ring_.mul(a, ring_.add(b, c)),
              ring_.add(ring_.mul(a, b), ring_.mul(a, c)));
  }
}

TEST_F(ModRingTest, InverseTimesSelfIsOne) {
  for (int i = 0; i < 100; ++i) {
    U192 a = random_residue();
    if (a.is_zero()) a = U192{1};
    const auto inv = ring_.inv(a);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(ring_.mul(a, *inv), U192{1});
  }
}

TEST_F(ModRingTest, InverseOfZeroFails) {
  EXPECT_FALSE(ring_.inv(U192{}).has_value());
}

TEST_F(ModRingTest, FermatLittleTheorem) {
  // a^(p-1) == 1 mod p for the prime group order.
  U192 exp = ring_.modulus();
  exp.sub_in_place(U192{1});
  for (int i = 0; i < 10; ++i) {
    U192 a = random_residue();
    if (a.is_zero()) a = U192{2};
    EXPECT_EQ(ring_.pow(a, exp), U192{1});
  }
}

TEST_F(ModRingTest, PowMatchesRepeatedMul) {
  const U192 a = random_residue();
  U192 acc{1};
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(ring_.pow(a, U192{e}), acc);
    acc = ring_.mul(acc, a);
  }
}

// --- Barrett reduction against the shift-subtract oracle ---------------------

U384 random_u384(Xoshiro256& rng) {
  U384 v;
  for (std::size_t i = 0; i < U384::kLimbs; ++i) v.set_limb(i, rng.next_u64());
  return v;
}

U192 all_ones_192() {
  return U192::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffff");
}

/// reduce / reduce_wide must equal BigUInt::mod, on seeded random inputs
/// and on the edges where Barrett's quotient estimate is exact, short by
/// one or short by two.
void check_reduction_matches_mod(const U192& m, bool expect_barrett) {
  const ModRing<192> ring(m);
  ASSERT_EQ(ring.uses_barrett(), expect_barrett) << m.to_hex();
  const U384 mw = m.resize<384>();
  const auto wide = [&](const U384& x) {
    ASSERT_EQ(ring.reduce_wide(x), x.mod(mw).resize<192>())
        << "m=" << m.to_hex() << " x=" << x.to_hex();
  };
  const auto narrow = [&](const U192& x) {
    ASSERT_EQ(ring.reduce(x), x.mod(m))
        << "m=" << m.to_hex() << " x=" << x.to_hex();
    wide(x.resize<384>());
  };

  Xoshiro256 rng(0xBA44E77);
  for (int i = 0; i < 10000; ++i) {
    narrow(random_u192(rng));
    wide(random_u384(rng));
  }

  const U192 m1 = m - U192{1};
  for (const U192& x : {U192{}, U192{1}, m1, m, m + U192{1}, all_ones_192()})
    narrow(x);
  wide(widening_mul(m1, m1));  // (m-1)^2, the largest product of residues
  U384 ones;
  for (std::size_t i = 0; i < U384::kLimbs; ++i) ones.set_limb(i, ~0ULL);
  wide(ones);  // 2^384 - 1
  // c·m and its neighbours for small, limb-boundary and random c.
  std::vector<U192> cs = {U192{1}, U192{2}, U192{3}, U192{~0ULL},
                          U192{1}.shl(64), U192{1}.shl(128), all_ones_192()};
  for (int i = 0; i < 64; ++i) cs.push_back(random_u192(rng));
  for (const U192& c : cs) {
    const U384 cm = widening_mul(c, m);
    wide(cm);
    wide(cm + U384{1});
    if (!cm.is_zero()) wide(cm - U384{1});
  }
}

TEST(Barrett, MatchesModOnK163Order) {
  check_reduction_matches_mod(U192::from_hex(kOrderHex), true);
}

TEST(Barrett, MatchesModOnB163Order) {
  check_reduction_matches_mod(
      U192::from_hex("40000000000000000000292FE77E70C12A4234C33"), true);
}

TEST(Barrett, MatchesModAtTheLimbBoundaryAndFullWidth) {
  // 2^128 + 1: the smallest shape with a nonzero top limb; 2^192 - 237:
  // a full-width modulus, where add() carries out of the top limb.
  check_reduction_matches_mod(U192{1}.shl(128) + U192{1}, true);
  check_reduction_matches_mod(all_ones_192() - U192{236}, true);
}

TEST(Barrett, SmallModulusFallsBackToLongDivision) {
  // 2^127 - 1 leaves the top limb empty: Barrett's precondition fails and
  // the ring reduces with BigUInt::mod.
  check_reduction_matches_mod(U192{1}.shl(127) - U192{1}, false);
}

TEST(Barrett, AddSubNegMatchWideReference) {
  for (const U192& m : {U192::from_hex(kOrderHex), all_ones_192() - U192{236},
                        U192{1}.shl(127) - U192{1}}) {
    const ModRing<192> ring(m);
    const U384 mw = m.resize<384>();
    Xoshiro256 rng(0xADD5);
    for (int i = 0; i < 2000; ++i) {
      const U192 a = random_u192(rng).mod(m);
      const U192 b = i == 0 ? m - U192{1} : random_u192(rng).mod(m);
      const U384 aw = a.resize<384>(), bw = b.resize<384>();
      ASSERT_EQ(ring.add(a, b), (aw + bw).mod(mw).resize<192>());
      ASSERT_EQ(ring.sub(a, b), (aw + mw - bw).mod(mw).resize<192>());
      ASSERT_EQ(ring.neg(a), (mw - aw).mod(mw).resize<192>());
    }
    EXPECT_TRUE(ring.neg(U192{}).is_zero());
  }
}

TEST(BigUInt, BitLengthOfEveryLimbBoundary) {
  EXPECT_EQ(U192{}.bit_length(), 0u);
  for (std::size_t b = 0; b < 192; ++b) {
    const U192 p = U192{1}.shl(b);
    EXPECT_EQ(p.bit_length(), b + 1);
    EXPECT_EQ((p | U192{1}).bit_length(), b + 1);
    if (b > 0) {
      EXPECT_EQ((p - U192{1}).bit_length(), b);
    }
  }
}

}  // namespace
