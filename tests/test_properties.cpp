// Cross-module property tests: invariants that tie the layers together,
// swept over seeds with TEST_P. These are the "does the whole tower
// agree with itself" checks — four scalar-multiplication implementations
// (affine reference, software ladder, w-NAF, cycle-accurate co-processor)
// must agree bit for bit on the same inputs, serialization must round-trip
// through the protocol boundary validators, and the instrumented paths
// must be deterministic under fixed seeds.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "core/secure_processor.h"
#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "ecc/scalar_mult.h"
#include "gf2m/arch.h"
#include "gf2m/clmul_vec.h"
#include "gf2m/reduce_163.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"
#include "sidechannel/trace_sim.h"

namespace {

using medsec::core::CountermeasureConfig;
using medsec::core::SecureEccProcessor;
using medsec::ecc::Curve;
using medsec::ecc::MultAlgorithm;
using medsec::ecc::MultOptions;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::rng::Xoshiro256;
namespace proto = medsec::protocol;
namespace sc = medsec::sidechannel;

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11, 127, 3301, 77777, 900001),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST_P(SeedSweep, FourScalarMultImplementationsAgree) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(GetParam());
  const Scalar k = rng.uniform_nonzero(c.order());
  const Point p = medsec::ecc::montgomery_ladder(
      c, rng.uniform_nonzero(c.order()), c.base_point());

  const Point reference = c.scalar_mult_reference(k, p);
  const Point ladder = medsec::ecc::montgomery_ladder(c, k, p);
  MultOptions wnaf;
  wnaf.algorithm = MultAlgorithm::kWnaf;
  const Point naf = medsec::ecc::scalar_mult(c, k, p, wnaf);
  SecureEccProcessor proc(c, CountermeasureConfig::protected_default(),
                          GetParam());
  const Point coproc = proc.point_mult(k, p).result;

  EXPECT_EQ(reference, ladder);
  EXPECT_EQ(reference, naf);
  EXPECT_EQ(reference, coproc);
}

TEST_P(SeedSweep, ScalarMultIsGroupHomomorphism) {
  // (k1 + k2)P == k1 P + k2 P and (k1 * k2)P == k1 (k2 P).
  const Curve& c = Curve::k163();
  Xoshiro256 rng(GetParam() ^ 0xABCD);
  const Scalar k1 = rng.uniform_nonzero(c.order());
  const Scalar k2 = rng.uniform_nonzero(c.order());
  const auto& ring = c.scalar_ring();
  const Point g = c.base_point();

  const Point sum_mult =
      medsec::ecc::montgomery_ladder(c, ring.add(k1, k2), g);
  const Point mult_sum = c.add(medsec::ecc::montgomery_ladder(c, k1, g),
                               medsec::ecc::montgomery_ladder(c, k2, g));
  EXPECT_EQ(sum_mult, mult_sum);

  const Point prod_mult =
      medsec::ecc::montgomery_ladder(c, ring.mul(k1, k2), g);
  const Point nested = medsec::ecc::montgomery_ladder(
      c, k1, medsec::ecc::montgomery_ladder(c, k2, g));
  EXPECT_EQ(prod_mult, nested);
}

TEST_P(SeedSweep, WirePointRoundTripOnRandomPoints) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(GetParam() ^ 0x1234);
  const Point p = medsec::ecc::montgomery_ladder(
      c, rng.uniform_nonzero(c.order()), c.base_point());
  const auto dec = proto::decode_point(c, proto::encode_point(c, p));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, p);
  // Negated point encodes to a different y-bit but same x.
  const auto neg = proto::encode_point(c, c.negate(p));
  EXPECT_NE(proto::encode_point(c, p), neg);
}

TEST_P(SeedSweep, PaddedScalarActsLikeOriginal) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(GetParam() ^ 0x5678);
  const Scalar k = rng.uniform_nonzero(c.order());
  const Scalar padded = medsec::ecc::constant_length_scalar(c, k);
  EXPECT_EQ(padded.bit_length(), c.order().bit_length() + 1);
  EXPECT_EQ(padded.mod(c.order()), k.mod(c.order()));
  EXPECT_EQ(c.scalar_mult_reference(padded, c.base_point()),
            c.scalar_mult_reference(k, c.base_point()));
}

TEST_P(SeedSweep, TraceSimulationIsDeterministicPerSeed) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(GetParam());
  const Scalar k = rng.uniform_nonzero(c.order());
  sc::AlgorithmicSimConfig cfg;
  cfg.seed = GetParam();
  const auto a =
      sc::generate_dpa_traces(c, k, 3, sc::RpcScenario::kDisabled, cfg);
  const auto b =
      sc::generate_dpa_traces(c, k, 3, sc::RpcScenario::kDisabled, cfg);
  ASSERT_EQ(a.traces.traces.size(), b.traces.traces.size());
  for (std::size_t i = 0; i < a.traces.traces.size(); ++i)
    EXPECT_EQ(a.traces.traces[i], b.traces.traces[i]);
}

TEST_P(SeedSweep, CoprocessorEnergyIsReproducible) {
  // Same key, same randomizer seed -> identical cycle count and energy;
  // different RPC randomness -> same cycles (constant time!) but
  // different switching energy.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(GetParam());
  const Scalar k = rng.uniform_nonzero(c.order());
  SecureEccProcessor p1(c, CountermeasureConfig::protected_default(), 42);
  SecureEccProcessor p2(c, CountermeasureConfig::protected_default(), 42);
  SecureEccProcessor p3(c, CountermeasureConfig::protected_default(), 43);
  const auto r1 = p1.point_mult(k, c.base_point());
  const auto r2 = p2.point_mult(k, c.base_point());
  const auto r3 = p3.point_mult(k, c.base_point());
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_DOUBLE_EQ(r1.energy_j, r2.energy_j);
  EXPECT_EQ(r1.cycles, r3.cycles);          // timing countermeasure
  EXPECT_NE(r1.energy_j, r3.energy_j);      // data-dependent power remains
  EXPECT_EQ(r1.result, r3.result);
}

TEST_P(SeedSweep, LadderObserverSeesConsistentProjectiveRatios) {
  // Every observation's X1/Z1 must equal the true intermediate multiple
  // of P: the observer hook cannot drift from the arithmetic.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(GetParam() ^ 0x9999);
  const Scalar k = rng.uniform_nonzero(c.order());
  const Scalar padded = medsec::ecc::constant_length_scalar(c, k);

  // Track the expected accumulator value alongside the ladder.
  Scalar acc{1};  // after consuming the leading 1
  std::size_t checked = 0;
  medsec::ecc::LadderOptions opt;
  opt.observer = [&](const medsec::ecc::LadderObservation& ob) {
    acc = c.scalar_ring().add(acc, acc);
    if (ob.key_bit) acc = c.scalar_ring().add(acc, Scalar{1});
    if (checked++ % 40 != 0) return;  // spot-check (inversions are slow)
    if (ob.z1.is_zero()) return;
    const auto x_affine =
        medsec::ecc::Fe::mul(ob.x1, medsec::ecc::Fe::inv(ob.z1));
    const Point expect = c.scalar_mult_reference(acc, c.base_point());
    ASSERT_FALSE(expect.infinity);
    EXPECT_EQ(x_affine, expect.x) << "iteration " << ob.bit_index;
  };
  medsec::ecc::montgomery_ladder(c, k, c.base_point(), opt);
  EXPECT_EQ(checked, 163u);
  EXPECT_EQ(acc, padded.mod(c.order()));
}

TEST_P(SeedSweep, B163LadderAgreesWithReference) {
  // The algorithmic layer is not specialized to the Koblitz curve.
  const Curve& c = Curve::b163();
  Xoshiro256 rng(GetParam() ^ 0xB163);
  const Scalar k = rng.uniform_nonzero(c.order());
  EXPECT_EQ(medsec::ecc::montgomery_ladder(c, k, c.base_point()),
            c.scalar_mult_reference(k, c.base_point()));
}

// --- reduce_163 fold equivalence --------------------------------------------
//
// THE one fold definition (gf2m/reduce_163.h) has three transcriptions:
// the scalar word fold and the YMM/ZMM word-vector folds. These
// properties pin all of them to a naive bit-at-a-time reference
// generated from kPentanomialExps alone, on the reduction's worst
// boundary patterns and a 10k seeded random sweep. Each vector fold is
// checked on the hosts where the lane backend that uses it can run
// (vpclmul256 for the YMM fold, vpclmul512 for the ZMM fold).

namespace gf = medsec::gf2m;

/// Bit-at-a-time reference: clear each coefficient >= 163 from the top
/// down, XORing its pentanomial image in. Slow and obviously correct.
std::array<std::uint64_t, 3> naive_reduce384(
    const std::array<std::uint64_t, 6>& p_in) {
  std::array<std::uint64_t, 6> w = p_in;
  for (std::size_t i = 384; i-- > gf::kFieldBits;) {
    if (((w[i / 64] >> (i % 64)) & 1) == 0) continue;
    w[i / 64] ^= 1ull << (i % 64);
    for (const unsigned e : gf::kPentanomialExps) {
      const std::size_t j = i - gf::kFieldBits + e;
      w[j / 64] ^= 1ull << (j % 64);
    }
  }
  return {w[0], w[1], w[2] & gf::kTopLimbMask};
}

/// The reduction's boundary patterns: all-ones (every fold path active at
/// once), lone top bit (the longest cascade: 383 -> 220 -> 57+e), limb
/// boundaries, alternating words.
std::vector<std::array<std::uint64_t, 6>> fold_boundary_inputs() {
  constexpr std::uint64_t kAlt = 0xAAAAAAAAAAAAAAAAull;
  return {
      {~0ull, ~0ull, ~0ull, ~0ull, ~0ull, ~0ull},
      {0, 0, 0, 0, 0, 1ull << 63},
      {0, 0, 0, 1ull, 0, 0},          // bit 192: first word-folded bit
      {0, 0, 1ull << 35, 0, 0, 0},    // bit 163: first residual-folded bit
      {0, 0, 1ull << 34, 0, 0, 0},    // bit 162: must NOT fold
      {kAlt, ~kAlt, kAlt, ~kAlt, kAlt, ~kAlt},
      {~0ull, 0, ~0ull, 0, ~0ull, 0},
  };
}

TEST(ReduceFold, ScalarMatchesNaiveReferenceOnBoundaries) {
  for (const auto& p : fold_boundary_inputs()) {
    const auto want = naive_reduce384(p);
    std::uint64_t got[3];
    gf::reduce326(p.data(), got);
    EXPECT_EQ(got[0], want[0]);
    EXPECT_EQ(got[1], want[1]);
    EXPECT_EQ(got[2], want[2]);
  }
}

#if MEDSEC_ARCH_X86_64
/// The vector shift fold at width W, with the product in one lane of the
/// word vectors and zeros in the others. The caller carries W's target,
/// as a lane kernel entry does.
template <class W>
[[gnu::always_inline]] inline std::array<std::uint64_t, 3> via_vec_fold(
    const std::array<std::uint64_t, 6>& p, std::size_t lane) {
  typename W::V vp[6], vout[3];
  for (std::size_t w = 0; w < 6; ++w) {
    std::uint64_t lanes[W::kLanes] = {};
    lanes[lane] = p[w];
    std::memcpy(&vp[w], lanes, sizeof lanes);
  }
  gf::reduce326_vec<W>(vp, vout);
  std::array<std::uint64_t, 3> out;
  for (std::size_t w = 0; w < 3; ++w) {
    std::uint64_t lanes[W::kLanes];
    std::memcpy(lanes, &vout[w], sizeof lanes);
    out[w] = lanes[lane];
  }
  return out;
}

[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL256 std::array<std::uint64_t, 3>
via_ymm_fold(const std::array<std::uint64_t, 6>& p, std::size_t lane) {
  return via_vec_fold<gf::vclmul::Ymm>(p, lane);
}

[[gnu::flatten]] MEDSEC_TARGET_VPCLMUL512 std::array<std::uint64_t, 3>
via_zmm_fold(const std::array<std::uint64_t, 6>& p, std::size_t lane) {
  return via_vec_fold<gf::vclmul::Zmm>(p, lane);
}

TEST(ReduceFold, VectorFoldsMatchScalarOnBoundaries) {
  if (!gf::cpu::has_vpclmul256())
    GTEST_SKIP() << "no VPCLMULQDQ+AVX2 on this CPU";
  for (const auto& p : fold_boundary_inputs()) {
    const auto want = naive_reduce384(p);
    for (const std::size_t lane : {0u, 3u}) {
      const auto got4 = via_ymm_fold(p, lane);
      EXPECT_EQ(got4, want);
    }
    if (gf::cpu::has_vpclmul512()) {
      for (const std::size_t lane : {0u, 7u}) {
        const auto got8 = via_zmm_fold(p, lane);
        EXPECT_EQ(got8, want);
      }
    }
  }
}
#endif  // MEDSEC_ARCH_X86_64

TEST(ReduceFold, AllVariantsAgreeOn10kSeededInputs) {
  Xoshiro256 rng(0xF01Dull);
  for (int iter = 0; iter < 10000; ++iter) {
    std::array<std::uint64_t, 6> p;
    for (auto& w : p) w = rng.next_u64();

    const auto want = naive_reduce384(p);
    std::uint64_t scalar[3];
    gf::reduce326(p.data(), scalar);
    ASSERT_EQ(scalar[0], want[0]) << "iter " << iter;
    ASSERT_EQ(scalar[1], want[1]) << "iter " << iter;
    ASSERT_EQ(scalar[2], want[2]) << "iter " << iter;

#if MEDSEC_ARCH_X86_64
    if (gf::cpu::has_vpclmul256()) {
      ASSERT_EQ(via_ymm_fold(p, iter % 4), want) << "iter " << iter;
    }
    if (gf::cpu::has_vpclmul512()) {
      ASSERT_EQ(via_zmm_fold(p, iter % 8), want) << "iter " << iter;
    }
#endif
  }
}

}  // namespace
