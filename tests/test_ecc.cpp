// Unit, property and cross-check tests for the elliptic-curve layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ecc/curve.h"
#include "ecc/fixed_base.h"
#include "ecc/koblitz.h"
#include "ecc/ladder.h"
#include "ecc/scalar_mult.h"
#include "rng/xoshiro.h"

namespace {

using medsec::bigint::U192;
using medsec::ecc::Curve;
using medsec::ecc::Fe;
using medsec::ecc::LadderOptions;
using medsec::ecc::LdPoint;
using medsec::ecc::montgomery_ladder;
using medsec::ecc::MsmTerm;
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
  // Both curves: the decoder skips its multiplication by b on K-163 only.
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    Point p = c->base_point();
    for (int i = 0; i < 10; ++i) {
      const auto comp = c->compress(p);
      const auto back = c->decompress(comp);
      ASSERT_TRUE(back.has_value()) << c->name();
      EXPECT_EQ(*back, p) << c->name();
      p = c->dbl(p);
    }
  }
}

TEST(Curve, DecompressRejectsNonResidue) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    // Find an x with no curve point: z^2 + z = x + a + b/x^2 unsolvable.
    int rejected = 0;
    for (std::uint64_t x0 = 2; x0 < 40 && rejected == 0; ++x0) {
      const auto r = c->decompress({Fe{x0}, 0});
      if (!r.has_value()) ++rejected;
    }
    EXPECT_EQ(rejected, 1) << c->name();
  }
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

// --- tau-adic k·G + l·Q (K-163) ---------------------------------------------

/// v mod n for a signed 128-bit v.
Scalar signed_mod_n(const Curve& c, __int128 v) {
  const unsigned __int128 m = v < 0 ? -static_cast<unsigned __int128>(v)
                                    : static_cast<unsigned __int128>(v);
  Scalar s;
  s.set_limb(0, static_cast<std::uint64_t>(m));
  s.set_limb(1, static_cast<std::uint64_t>(m >> 64));
  s = c.scalar_ring().reduce(s);
  return v < 0 ? c.scalar_ring().neg(s) : s;
}

/// k's width-4 TNAF after reduction mod n and mod delta: the digits the
/// tau path of double_scalar_mult adds.
std::vector<int> reduced_tnaf(const Curve& c, const Scalar& k) {
  const medsec::ecc::TauReducer& tau = *medsec::ecc::tau_reducer(c);
  std::int8_t buf[medsec::ecc::TauReducer::kMaxDigits];
  const std::size_t len =
      tau.digits(tau.reduce(c.scalar_ring().reduce(k)), buf);
  return std::vector<int>(buf, buf + len);
}

/// tau's eigenvalue on <G>: the root lambda of x^2 - mu*x + 2 (mod n)
/// with tau(G) = lambda·G.
Scalar frobenius_eigenvalue(const Curve& c) {
  const auto& ring = c.scalar_ring();
  const Scalar& n = c.order();
  // x = (mu +- sqrt(mu^2 - 8)) / 2; n = 3 (mod 4), so sqrt(d) = d^((n+1)/4).
  EXPECT_TRUE(n.bit(0) && n.bit(1));
  const Scalar disc = ring.sub(Scalar{1}, Scalar{8});
  const Scalar root = ring.pow(disc, (n + Scalar{1}) >> 2);
  EXPECT_EQ(ring.mul(root, root), disc);
  const Scalar half = *ring.inv(Scalar{2});
  const Scalar mu =
      c.frobenius_trace_mu() == 1 ? Scalar{1} : ring.neg(Scalar{1});
  for (const Scalar& r : {root, ring.neg(root)}) {
    const Scalar lambda = ring.mul(ring.add(mu, r), half);
    if (c.frobenius(c.base_point()) ==
        c.scalar_mult_reference(lambda, c.base_point()))
      return lambda;
  }
  ADD_FAILURE() << "no root of x^2 - mu*x + 2 acts as tau on G";
  return Scalar{};
}

TEST(TauAdic, PartialReductionIsShortAndCongruent) {
  const Curve& c = Curve::k163();
  const auto& ring = c.scalar_ring();
  const Scalar& n = c.order();
  const Scalar lambda = frobenius_eigenvalue(c);
  const medsec::ecc::TauReducer* tau = medsec::ecc::tau_reducer(c);
  ASSERT_NE(tau, nullptr);
  std::vector<Scalar> ks = {
      Scalar{0},      Scalar{1},          n - Scalar{1},
      n,              n + Scalar{1},      n + n - Scalar{1},
      Scalar{1}.shl(163),
      Scalar::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffff")};
  Xoshiro256 rng(0x7A0);
  for (int i = 0; i < 10000; ++i) {
    if (i % 4 == 3) {  // scalars >= n reduce mod n first
      Scalar k;
      for (std::size_t l = 0; l < Scalar::kLimbs; ++l)
        k.set_limb(l, rng.next_u64());
      ks.push_back(k);
    } else {
      ks.push_back(rng.uniform_nonzero(n));
    }
  }

  const __int128 bound = static_cast<__int128>(1) << 82;
  std::size_t longest = 0, total = 0;
  for (const Scalar& k : ks) {
    const Scalar want = ring.reduce(k);
    const medsec::ecc::TauElement rho = tau->reduce(want);
    ASSERT_TRUE(rho.r0 < bound && rho.r0 > -bound) << k.to_hex();
    ASSERT_TRUE(rho.r1 < bound && rho.r1 > -bound) << k.to_hex();
    // r0 + r1·lambda = k (mod n): rho acts on <G> as k does.
    ASSERT_EQ(ring.add(signed_mod_n(c, rho.r0),
                       ring.mul(signed_mod_n(c, rho.r1), lambda)),
              want)
        << k.to_hex();

    const std::vector<int> digits = reduced_tnaf(c, k);
    longest = std::max(longest, digits.size());
    total += digits.size();
    Scalar horner;  // sum of digits[j]·lambda^j
    for (std::size_t j = digits.size(); j-- > 0;) {
      const int d = digits[j];
      const Scalar u{static_cast<std::uint64_t>(d < 0 ? -d : d)};
      horner = ring.add(ring.mul(horner, lambda), d < 0 ? ring.neg(u) : u);
      if (d == 0) continue;
      ASSERT_TRUE(d % 2 != 0 && d > -8 && d < 8) << "digit " << d;
      for (std::size_t z = 1; z <= 3 && j + z < digits.size(); ++z)
        ASSERT_EQ(digits[j + z], 0) << "at " << j << "+" << z;
    }
    ASSERT_EQ(horner, want) << k.to_hex();
    if (want.is_zero()) {
      EXPECT_TRUE(digits.empty());
    }
  }
  // N(rho) <= (4/7)n puts rho at ~161 bits; the integer digits (+-1..+-7,
  // so the (1, 3, 5, 7)·P tables serve) add up to ~11.6 digits of tail
  // over log2 N(rho) for the worst small remainders, so no expansion
  // passes 172 digits, and the typical one has ~163 (the unreduced
  // integer expansion has ~330).
  EXPECT_LE(longest, 172u);
  EXPECT_LT(static_cast<double>(total) / ks.size(), 165.0);
}

TEST(TauAdic, DoubleScalarMultMatchesMsmTableAndReference) {
  const Curve& c = Curve::k163();
  const auto& ring = c.scalar_ring();
  const Scalar& n = c.order();
  const Point& g = c.base_point();
  Xoshiro256 rng(0x7A1);

  // got = k1·G + k2·Q on the tau path, against the two-term MsmTable
  // (wNAF, doubling chain) and the affine reference.
  const auto check = [&](const Scalar& k1, const Point& p1, const Scalar& k2,
                         const Point& p2, const Point& want) {
    const MsmTerm terms[2] = {{k1, p1}, {k2, p2}};
    const Point got = medsec::ecc::double_scalar_mult(c, k1, p1, k2, p2);
    EXPECT_EQ(got, medsec::ecc::multi_scalar_mult(c, terms))
        << k1.to_hex() << " " << k2.to_hex();
    EXPECT_EQ(got, want) << k1.to_hex() << " " << k2.to_hex();
  };

  for (int i = 0; i < 1000; ++i) {
    // Q = m·G from the ladder; the reference is (k1 + k2·m)·G.
    const Scalar m = rng.uniform_nonzero(n);
    const Point q = montgomery_ladder(c, m, g);
    Scalar k1 = rng.uniform_nonzero(n), k2 = rng.uniform_nonzero(n);
    if (i % 8 == 7) k2 = k2 + n;  // a scalar >= n
    const Scalar s = ring.add(ring.reduce(k1), ring.mul(ring.reduce(k2), m));
    check(k1, g, k2, q, c.scalar_mult_reference(s, g));
    // p1 != G: both points' odd multiples come from one table build.
    if (i % 16 == 0) check(k2, q, k1, g, c.scalar_mult_reference(s, g));
  }

  // Q in {G, -G, O}, a sum that cancels to O, and zero scalars.
  const Scalar k1 = rng.uniform_nonzero(n), k2 = rng.uniform_nonzero(n);
  const Point o = Point::at_infinity();
  check(k1, g, k2, g, c.scalar_mult_reference(ring.add(k1, k2), g));
  check(k1, g, k2, c.negate(g), c.scalar_mult_reference(ring.sub(k1, k2), g));
  check(k1, g, k2, o, c.scalar_mult_reference(k1, g));
  check(k1, o, k2, g, c.scalar_mult_reference(k2, g));
  check(k1, o, k2, o, o);
  check(k1, c.negate(g), k2, g, c.scalar_mult_reference(ring.sub(k2, k1), g));
  const Scalar m = rng.uniform_nonzero(n);
  const Point q = montgomery_ladder(c, m, g);
  check(ring.neg(ring.mul(k2, m)), g, k2, q, o);  // k1·G = -k2·Q
  check(Scalar{}, g, k2, q, c.scalar_mult_reference(ring.mul(k2, m), g));
  check(k1, g, Scalar{}, q, c.scalar_mult_reference(k1, g));
  check(Scalar{}, g, Scalar{}, q, o);
  check(n, g, n + Scalar{1}, q, q);
}

/// Horner over k's reduced TNAF digits on p with the affine group law:
/// what the tau path would compute for p.
Point reduced_tnaf_eval(const Curve& c, const Scalar& k, const Point& p) {
  Point acc = Point::at_infinity();
  const std::vector<int> digits = reduced_tnaf(c, k);
  for (std::size_t j = digits.size(); j-- > 0;) {
    acc = c.frobenius(acc);
    const int d = digits[j];
    if (d == 0) continue;
    const Scalar u{static_cast<std::uint64_t>(d < 0 ? -d : d)};
    const Point m = c.scalar_mult_reference(u, p);
    acc = c.add(acc, d < 0 ? c.negate(m) : m);
  }
  return acc;
}

TEST(TauAdic, PointOutsideTheSubgroupTakesTheWnafPath) {
  const Curve& c = Curve::k163();
  const Point& g = c.base_point();
  Xoshiro256 rng(0x7A2);
  // Q + (0, sqrt(b)): on the curve, order 2n, refused by the subgroup gate.
  const Point t = Point::affine(Fe::zero(), Fe::sqrt(c.b()));
  const Point q =
      c.add(montgomery_ladder(c, rng.uniform_nonzero(c.order()), g), t);
  ASSERT_TRUE(c.is_on_curve(q));
  ASSERT_FALSE(c.validate_subgroup_point(q));

  int tau_would_miss = 0;
  for (int i = 0; i < 16; ++i) {
    const Scalar k1 = rng.uniform_nonzero(c.order());
    const Scalar k2 = rng.uniform_nonzero(c.order());
    const Point want =
        c.add(c.scalar_mult_reference(k1, g), c.scalar_mult_reference(k2, q));
    EXPECT_EQ(medsec::ecc::double_scalar_mult(c, k1, g, k2, q), want);
    EXPECT_EQ(medsec::ecc::double_scalar_mult(c, k2, q, k1, g), want);
    // k mod delta does not act as k on q, so the tau path would be wrong
    // for some of these scalars: the fallback is needed, not just taken.
    if (reduced_tnaf_eval(c, k2, q) != c.scalar_mult_reference(k2, q))
      ++tau_would_miss;
    EXPECT_EQ(reduced_tnaf_eval(c, k2, g), c.scalar_mult_reference(k2, g));
  }
  EXPECT_GT(tau_would_miss, 0);
}

TEST(TauAdic, B163StaysOnTheMsmTable) {
  const Curve& b = Curve::b163();
  // No reducer (b != 1), so double_scalar_mult builds a two-term MsmTable.
  EXPECT_EQ(medsec::ecc::tau_reducer(b), nullptr);
  EXPECT_NE(medsec::ecc::tau_reducer(Curve::k163()), nullptr);
  Xoshiro256 rng(0x7A3);
  for (int i = 0; i < 4; ++i) {
    const Scalar k1 = rng.uniform_nonzero(b.order());
    const Scalar k2 = rng.uniform_nonzero(b.order());
    const Point q = montgomery_ladder(b, rng.uniform_nonzero(b.order()),
                                      b.base_point());
    EXPECT_EQ(medsec::ecc::double_scalar_mult(b, k1, b.base_point(), k2, q),
              b.add(b.scalar_mult_reference(k1, b.base_point()),
                    b.scalar_mult_reference(k2, q)));
  }
}

// --- formulas without multiplications by a = 1 or b = 1 --------------------

TEST(LopezDahab, FormulasAgreeWithAffineOnBothCurves) {
  // K-163 has a = b = 1, B-163 a = 1 and a general b: each constant-free
  // branch and each general one runs on one of them.
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    Xoshiro256 rng(0x1D);
    Point p = montgomery_ladder(*c, rng.uniform_nonzero(c->order()),
                                c->base_point());
    for (int i = 0; i < 32; ++i) {
      const Point q = montgomery_ladder(*c, rng.uniform_nonzero(c->order()),
                                        c->base_point());
      // A projective P with a random Z: (x·Z, y·Z^2, Z).
      const Fe z = Fe::from_bits(rng.uniform_nonzero(c->order()));
      const LdPoint lp{Fe::mul(p.x, z), Fe::mul(p.y, Fe::sqr(z)), z};
      EXPECT_EQ(medsec::ecc::ld_double(*c, lp).to_affine(), c->dbl(p))
          << c->name();
      EXPECT_EQ(medsec::ecc::ld_add_affine(*c, lp, q).to_affine(),
                c->add(p, q))
          << c->name();
      EXPECT_EQ(medsec::ecc::ld_add_affine(*c, lp, p).to_affine(), c->dbl(p))
          << c->name();
      EXPECT_TRUE(
          medsec::ecc::ld_add_affine(*c, lp, c->negate(p)).is_infinity());
      EXPECT_EQ(medsec::ecc::ld_add_affine(*c, LdPoint::infinity(), q)
                    .to_affine(),
                q);

      // The x-only ladder steps: 2P and P + Q from the difference Q - P.
      Fe x3, z3;
      medsec::ecc::ladder_double(c->b(), lp.X, lp.Z, x3, z3);
      EXPECT_EQ(Fe::mul(x3, Fe::inv(z3)), c->dbl(p).x) << c->name();
      const Point diff = c->add(q, c->negate(p));
      medsec::ecc::ladder_add(diff.x, p.x, Fe::one(), q.x, Fe::one(), x3, z3);
      EXPECT_EQ(Fe::mul(x3, Fe::inv(z3)), c->add(p, q).x) << c->name();
      p = c->add(p, q);
    }
    EXPECT_TRUE(medsec::ecc::ld_double(*c, LdPoint::infinity()).is_infinity());
  }
}

}  // namespace
