// Unit, property and cross-check tests for the elliptic-curve layer.
#include <gtest/gtest.h>

#include <vector>

#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "ecc/scalar_mult.h"
#include "rng/xoshiro.h"

namespace {

using medsec::bigint::U192;
using medsec::ecc::Curve;
using medsec::ecc::Fe;
using medsec::ecc::LadderOptions;
using medsec::ecc::montgomery_ladder;
using medsec::ecc::MultAlgorithm;
using medsec::ecc::MultOptions;
using medsec::ecc::MultStats;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::ecc::scalar_mult;
using medsec::rng::Xoshiro256;

Scalar random_scalar(Xoshiro256& rng, const Curve& c) {
  return rng.uniform_nonzero(c.order());
}

// --- curve structure ---------------------------------------------------------

TEST(Curve, BasePointsAreOnCurve) {
  EXPECT_TRUE(Curve::k163().is_on_curve(Curve::k163().base_point()));
  EXPECT_TRUE(Curve::b163().is_on_curve(Curve::b163().base_point()));
}

TEST(Curve, BasePointHasStatedOrder) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    const Point ng = c->scalar_mult_reference(c->order(), c->base_point());
    EXPECT_TRUE(ng.infinity) << c->name();
    // ... and not any smaller power of two of it (order is prime, so it is
    // enough to check (n-1)G != infinity).
    Scalar n1 = c->order();
    n1.sub_in_place(Scalar{1});
    EXPECT_FALSE(c->scalar_mult_reference(n1, c->base_point()).infinity);
  }
}

TEST(Curve, AdditionGroupLaws) {
  const Curve& c = Curve::k163();
  const Point g = c.base_point();
  const Point g2 = c.dbl(g);
  const Point g3 = c.add(g2, g);

  // Identity.
  EXPECT_EQ(c.add(g, Point::at_infinity()), g);
  EXPECT_EQ(c.add(Point::at_infinity(), g), g);
  // Inverse.
  EXPECT_TRUE(c.add(g, c.negate(g)).infinity);
  // Commutativity.
  EXPECT_EQ(c.add(g, g2), c.add(g2, g));
  // Associativity: (G + G) + G == G + (G + G).
  EXPECT_EQ(c.add(c.add(g, g), g), c.add(g, c.add(g, g)));
  EXPECT_EQ(g3, c.add(g, g2));
  // Doubling consistency.
  EXPECT_EQ(c.dbl(g), c.add(g, g));
}

TEST(Curve, NegationIsInvolution) {
  const Curve& c = Curve::k163();
  const Point g = c.base_point();
  EXPECT_EQ(c.negate(c.negate(g)), g);
  EXPECT_TRUE(c.is_on_curve(c.negate(g)));
}

TEST(Curve, ScalarMultHomomorphism) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(100);
  for (int i = 0; i < 5; ++i) {
    const Scalar k1 = random_scalar(rng, c);
    const Scalar k2 = random_scalar(rng, c);
    const Point p1 = c.scalar_mult_reference(k1, c.base_point());
    const Point p2 = c.scalar_mult_reference(k2, c.base_point());
    const Scalar ksum = c.scalar_ring().add(k1, k2);
    const Point psum = c.scalar_mult_reference(ksum, c.base_point());
    EXPECT_EQ(c.add(p1, p2), psum);
  }
}

TEST(Curve, SmallMultiplesAgree) {
  const Curve& c = Curve::k163();
  const Point g = c.base_point();
  Point acc = Point::at_infinity();
  for (std::uint64_t k = 1; k <= 20; ++k) {
    acc = c.add(acc, g);
    EXPECT_EQ(c.scalar_mult_reference(Scalar{k}, g), acc) << "k=" << k;
    EXPECT_TRUE(c.is_on_curve(acc));
  }
}

TEST(Curve, ValidateSubgroupPoint) {
  const Curve& c = Curve::k163();
  EXPECT_TRUE(c.validate_subgroup_point(c.base_point()));
  EXPECT_FALSE(c.validate_subgroup_point(Point::at_infinity()));
  // A random (x, y) not on the curve must fail.
  Point bogus = c.base_point();
  bogus.y += Fe::one();
  EXPECT_FALSE(c.validate_subgroup_point(bogus));
  // The order-2 point (0, sqrt(b)) is on the curve but not in the subgroup.
  const Point two_torsion = Point::affine(Fe::zero(), Fe::sqrt(c.b()));
  EXPECT_TRUE(c.is_on_curve(two_torsion));
  EXPECT_FALSE(c.validate_subgroup_point(two_torsion));
}

TEST(Curve, CompressDecompressRoundTrip) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(101);
  Point p = c.base_point();
  for (int i = 0; i < 10; ++i) {
    const auto comp = c.compress(p);
    const auto back = c.decompress(comp);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
    p = c.dbl(p);
  }
}

TEST(Curve, DecompressRejectsNonResidue) {
  const Curve& c = Curve::k163();
  // Find an x with no curve point: z^2 + z = x + a + b/x^2 unsolvable.
  int rejected = 0;
  for (std::uint64_t x0 = 2; x0 < 40 && rejected == 0; ++x0) {
    const auto r = c.decompress({Fe{x0}, 0});
    if (!r.has_value()) ++rejected;
  }
  EXPECT_EQ(rejected, 1);
}

// --- Montgomery ladder vs reference ------------------------------------------

class LadderTest : public ::testing::TestWithParam<const Curve*> {};

TEST_P(LadderTest, MatchesReferenceOnRandomScalars) {
  const Curve& c = *GetParam();
  Xoshiro256 rng(200);
  for (int i = 0; i < 10; ++i) {
    const Scalar k = random_scalar(rng, c);
    const Point ref = c.scalar_mult_reference(k, c.base_point());
    const Point lad = montgomery_ladder(c, k, c.base_point());
    EXPECT_EQ(lad, ref) << c.name() << " k=" << k.to_hex();
  }
}

TEST_P(LadderTest, SmallScalars) {
  const Curve& c = *GetParam();
  for (std::uint64_t k = 1; k <= 16; ++k) {
    EXPECT_EQ(montgomery_ladder(c, Scalar{k}, c.base_point()),
              c.scalar_mult_reference(Scalar{k}, c.base_point()))
        << "k=" << k;
  }
}

TEST_P(LadderTest, EdgeScalars) {
  const Curve& c = *GetParam();
  const Point g = c.base_point();
  // k = 0 (mod n) -> infinity.
  EXPECT_TRUE(montgomery_ladder(c, Scalar{}, g).infinity);
  EXPECT_TRUE(montgomery_ladder(c, c.order(), g).infinity);
  // k = n - 1 -> -G (exercises the Z2 == 0 recovery branch).
  Scalar n1 = c.order();
  n1.sub_in_place(Scalar{1});
  EXPECT_EQ(montgomery_ladder(c, n1, g), c.negate(g));
  // k = n + 1 reduces to 1 -> G.
  Scalar np1 = c.order();
  np1.add_in_place(Scalar{1});
  EXPECT_EQ(montgomery_ladder(c, np1, g), g);
}

INSTANTIATE_TEST_SUITE_P(Curves, LadderTest,
                         ::testing::Values(&Curve::k163(), &Curve::b163()),
                         [](const auto& info) { return info.param->name() == "K-163" ? "K163" : "B163"; });

TEST(Ladder, RandomizedProjectiveCoordinatesGiveSameResult) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(300);
  Xoshiro256 rpc_rng(301);
  for (int i = 0; i < 10; ++i) {
    const Scalar k = random_scalar(rng, c);
    LadderOptions opt;
    opt.randomize_z = true;
    opt.rng = &rpc_rng;
    EXPECT_EQ(montgomery_ladder(c, k, c.base_point(), opt),
              montgomery_ladder(c, k, c.base_point()));
  }
}

TEST(Ladder, RpcRandomizesIntermediates) {
  // Same key, two executions: with RPC the internal (X, Z) pairs must
  // differ (this is exactly why DPA's intermediate predictions fail),
  // while the projective ratio X/Z stays equal.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(302);
  const Scalar k = random_scalar(rng, c);

  std::vector<Fe> run1_x, run2_x;
  std::vector<Fe> run1_ratio, run2_ratio;
  auto run = [&](std::vector<Fe>& xs, std::vector<Fe>& ratios) {
    LadderOptions opt;
    opt.randomize_z = true;
    opt.rng = &rng;
    opt.observer = [&](const medsec::ecc::LadderObservation& ob) {
      xs.push_back(ob.x1);
      ratios.push_back(Fe::mul(ob.x1, Fe::inv(ob.z1)));
    };
    montgomery_ladder(c, k, c.base_point(), opt);
  };
  run(run1_x, run1_ratio);
  run(run2_x, run2_ratio);
  ASSERT_EQ(run1_x.size(), run2_x.size());
  ASSERT_FALSE(run1_x.empty());
  std::size_t equal_x = 0;
  for (std::size_t i = 0; i < run1_x.size(); ++i) {
    if (run1_x[i] == run2_x[i]) ++equal_x;
    EXPECT_EQ(run1_ratio[i], run2_ratio[i]);  // same underlying point
  }
  EXPECT_EQ(equal_x, 0u);  // representations never coincide
}

TEST(Ladder, KnownRandomizersReproduceWhiteBoxScenario) {
  // §7: "the countermeasure is enabled, but the randomness is known" —
  // fixing the randomizers makes intermediates deterministic again.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(303);
  const Scalar k = random_scalar(rng, c);
  LadderOptions opt;
  opt.known_randomizers = std::make_pair(Fe{0x1234}, Fe{0x5678});
  std::vector<Fe> xs1, xs2;
  opt.observer = [&](const medsec::ecc::LadderObservation& ob) {
    xs1.push_back(ob.x1);
  };
  montgomery_ladder(c, k, c.base_point(), opt);
  opt.observer = [&](const medsec::ecc::LadderObservation& ob) {
    xs2.push_back(ob.x1);
  };
  montgomery_ladder(c, k, c.base_point(), opt);
  EXPECT_EQ(xs1.size(), xs2.size());
  for (std::size_t i = 0; i < xs1.size(); ++i) EXPECT_EQ(xs1[i], xs2[i]);
}

TEST(Ladder, RejectsOrderTwoBasePoint) {
  const Curve& c = Curve::k163();
  const Point two_torsion = Point::affine(Fe::zero(), Fe::sqrt(c.b()));
  EXPECT_THROW(montgomery_ladder(c, Scalar{3}, two_torsion),
               std::invalid_argument);
}

TEST(Ladder, RpcWithoutRngThrows) {
  const Curve& c = Curve::k163();
  LadderOptions opt;
  opt.randomize_z = true;
  EXPECT_THROW(montgomery_ladder(c, Scalar{3}, c.base_point(), opt),
               std::invalid_argument);
}

// --- scalar_mult dispatch and instrumentation --------------------------------

TEST(ScalarMult, AllAlgorithmsAgree) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(400);
  Xoshiro256 rpc_rng(401);
  for (int i = 0; i < 5; ++i) {
    const Scalar k = random_scalar(rng, c);
    MultOptions da, ml, rpc;
    da.algorithm = MultAlgorithm::kDoubleAndAdd;
    ml.algorithm = MultAlgorithm::kMontgomeryLadder;
    rpc.algorithm = MultAlgorithm::kLadderRpc;
    rpc.rng = &rpc_rng;
    const Point r1 = scalar_mult(c, k, c.base_point(), da);
    const Point r2 = scalar_mult(c, k, c.base_point(), ml);
    const Point r3 = scalar_mult(c, k, c.base_point(), rpc);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(r2, r3);
  }
}

TEST(ScalarMult, DoubleAndAddLeaksHammingWeightInOpCount) {
  const Curve& c = Curve::k163();
  // Two same-length keys with very different Hamming weight.
  Scalar light;  // 1000...01 — few ones
  light.set_bit(162, true);
  light.set_bit(0, true);
  Scalar heavy;  // 163 ones
  for (std::size_t i = 0; i < 163; ++i) heavy.set_bit(i, true);
  heavy = heavy.mod(c.order());

  MultStats s_light, s_heavy;
  MultOptions o1, o2;
  o1.algorithm = o2.algorithm = MultAlgorithm::kDoubleAndAdd;
  o1.stats = &s_light;
  o2.stats = &s_heavy;
  scalar_mult(c, light, c.base_point(), o1);
  scalar_mult(c, heavy, c.base_point(), o2);
  // The op-slot count (runtime proxy) differs: the timing side channel.
  EXPECT_LT(s_light.op_slots, s_heavy.op_slots);
  EXPECT_EQ(s_light.point_adds, 2u);
}

TEST(ScalarMult, LadderOpCountIndependentOfKeyValue) {
  // The ladder pads every scalar to a fixed order.bit_length()+1 bits, so
  // the slot count is a curve constant even for tiny keys — the property
  // the paper's chip gets from a fixed iteration schedule (§7, timing).
  const Curve& c = Curve::k163();
  Xoshiro256 rng(500);
  std::vector<Scalar> keys = {Scalar{1}, Scalar{2}, Scalar{0xffff}};
  for (int i = 0; i < 10; ++i) keys.push_back(random_scalar(rng, c));
  for (const Scalar& k : keys) {
    MultStats st;
    MultOptions o;
    o.algorithm = MultAlgorithm::kMontgomeryLadder;
    o.stats = &st;
    scalar_mult(c, k, c.base_point(), o);
    EXPECT_EQ(st.op_slots, 163u);          // == order.bit_length(), always
    EXPECT_EQ(st.ladder_iterations, 163u);
  }
}

// --- scalar recoding ---------------------------------------------------------

/// The bit-serial wNAF recoder wnaf_digits replaced (one BigUInt shift and
/// one bit test per digit), kept as the oracle for the limb version.
std::vector<int> wnaf_reference(const Scalar& k0, unsigned width) {
  std::vector<int> out;
  Scalar k = k0;
  const std::uint64_t modulus = 1ull << width;   // 2^w
  const std::int64_t half = 1ll << (width - 1);  // 2^(w-1)
  while (!k.is_zero()) {
    int digit = 0;
    if (k.bit(0)) {
      const std::int64_t r =
          static_cast<std::int64_t>(k.limb(0) & (modulus - 1));
      digit = static_cast<int>(
          r >= half ? r - static_cast<std::int64_t>(modulus) : r);
      if (digit > 0) {
        k.sub_in_place(Scalar{static_cast<std::uint64_t>(digit)});
      } else {
        k.add_in_place(Scalar{static_cast<std::uint64_t>(-digit)});
      }
    }
    out.push_back(digit);
    k = k >> 1;
  }
  return out;
}

TEST(ScalarMult, WnafDigitsMatchBitSerialReference) {
  const Scalar& n = Curve::k163().order();
  std::vector<Scalar> ks = {Scalar{0}, Scalar{1}, Scalar{1}.shl(162),
                            n - Scalar{1}, Scalar{1}.shl(163) - Scalar{1}};
  Xoshiro256 rng(0x3AF);
  for (int i = 0; i < 10000; ++i) {
    Scalar k;
    for (std::size_t l = 0; l < Scalar::kLimbs; ++l)
      k.set_limb(l, rng.next_u64());
    // Alternate full-width draws with protocol-sized (163-bit) scalars.
    if (i % 2 == 0) k = k & (Scalar{1}.shl(163) - Scalar{1});
    ks.push_back(k);
  }
  for (unsigned width = 2; width <= 8; ++width)
    for (const Scalar& k : ks)
      ASSERT_EQ(medsec::ecc::wnaf_digits(k, width), wnaf_reference(k, width))
          << "w=" << width << " k=" << k.to_hex();
}

TEST(Ladder, ConstantLengthScalarHasFixedLengthAndResidue) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    const Scalar& n = c->order();
    const Scalar ks[] = {
        Scalar{0},          Scalar{1},
        n - Scalar{1},      n,
        Scalar{1}.shl(162), Scalar{1}.shl(163) - Scalar{1},
        Scalar::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffff")};
    for (const Scalar& k : ks) {
      const Scalar padded = medsec::ecc::constant_length_scalar(*c, k);
      EXPECT_EQ(padded.bit_length(), n.bit_length() + 1)
          << c->name() << " k=" << k.to_hex();
      EXPECT_EQ(padded.mod(n), k.mod(n)) << c->name() << " k=" << k.to_hex();
    }
  }
}

}  // namespace
