// Cross-checks of the pluggable GF(2^163) backends, the batch inversion,
// the multi-squaring tables, the fixed-base comb, and the windowed TNAF —
// every accelerated path against its reference.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "ecc/fixed_base.h"
#include "ecc/koblitz.h"
#include "ecc/ladder.h"
#include "ecc/point_arith.h"
#include "ecc/scalar_mult.h"
#include "engine/batch_verifier.h"
#include "gf2m/backend.h"
#include "gf2m/field_ops.h"
#include "gf2m/gf163_lanes.h"
#include "gf2m/gf2_163.h"
#include "gf2m/gf2_poly.h"
#include "hw/digit_serial.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace {

using medsec::ecc::Curve;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::gf2m::Backend;
using medsec::gf2m::Gf163;
using medsec::gf2m::Gf2Poly;
using medsec::rng::Xoshiro256;

Gf163 random_fe(Xoshiro256& rng) {
  medsec::bigint::U192 v;
  for (std::size_t i = 0; i < 3; ++i) v.set_limb(i, rng.next_u64());
  return Gf163::from_bits(v);
}

Gf2Poly to_poly(const Gf163& a) {
  Gf2Poly p;
  for (std::size_t i = 0; i < 163; ++i)
    if (a.bit(i)) p.set_bit(i);
  return p;
}

const Gf2Poly kFieldPoly = Gf2Poly::from_exponents({163, 7, 6, 3, 0});

/// RAII: restore whatever backend was active when the test started.
struct BackendGuard {
  Backend saved = medsec::gf2m::active_backend();
  ~BackendGuard() { medsec::gf2m::set_backend(saved); }
};

// --- backend registry --------------------------------------------------------

TEST(Backend, KaratsubaAlwaysAvailable) {
  EXPECT_TRUE(medsec::gf2m::backend_available(Backend::kKaratsuba));
  EXPECT_NE(medsec::gf2m::backend_vtable(Backend::kKaratsuba), nullptr);
  EXPECT_EQ(medsec::gf2m::known_backends().size(), 2u);
}

TEST(Backend, SetBackendRoundTrips) {
  BackendGuard guard;
  if (medsec::gf2m::backend_available(Backend::kClmul)) {
    ASSERT_TRUE(medsec::gf2m::set_backend(Backend::kClmul));
    EXPECT_EQ(medsec::gf2m::active_backend(), Backend::kClmul);
  }
  ASSERT_TRUE(medsec::gf2m::set_backend(Backend::kKaratsuba));
  EXPECT_EQ(medsec::gf2m::active_backend(), Backend::kKaratsuba);
  if (!medsec::gf2m::backend_available(Backend::kClmul)) {
    EXPECT_FALSE(medsec::gf2m::set_backend(Backend::kClmul));
    EXPECT_EQ(medsec::gf2m::active_backend(), Backend::kKaratsuba);
  }
}

// --- unreduced product: every backend vs the bitwise polynomial oracle -----

/// Little-endian 64-bit words as an oracle polynomial.
Gf2Poly words_to_poly(const std::uint64_t* w, std::size_t n) {
  Gf2Poly out;
  for (std::size_t i = 0; i < n * 64; ++i)
    if ((w[i / 64] >> (i % 64)) & 1) out.set_bit(i);
  return out;
}

TEST(Backend, UnreducedProductCrossCheck10k) {
  for (const Backend b : medsec::gf2m::known_backends()) {
    const auto* vt = medsec::gf2m::backend_vtable(b);
    if (vt == nullptr) continue;  // clmul on hardware without it
    Xoshiro256 case_rng(202);  // same stream for every backend
    for (int iter = 0; iter < 10000; ++iter) {
      std::uint64_t a[3], c[3];
      for (auto& w : a) w = case_rng.next_u64();
      for (auto& w : c) w = case_rng.next_u64();
      a[2] &= 0x7FFFFFFFFULL;
      c[2] &= 0x7FFFFFFFFULL;
      const Gf2Poly pa = words_to_poly(a, 3), pc = words_to_poly(c, 3);
      std::uint64_t got[6];
      vt->mul(a, c, got);
      ASSERT_EQ(words_to_poly(got, 6), pa * pc)
          << vt->name << " mul, iter " << iter;
      vt->sqr(a, got);
      ASSERT_EQ(words_to_poly(got, 6), pa * pa)
          << vt->name << " sqr, iter " << iter;
    }
  }
}

// --- every pair of basis elements: a proof, not a sample -------------------
//
// mul and sqr are GF(2)-linear in each operand, and mul_add_mul /
// sqr_add_mul are sums of such maps folded once, so agreement on every
// basis pair x^i, x^j (0 <= i, j <= 162) proves a kernel on all inputs.
// The pairs reach every product bit 0..324, so every fold path runs:
// words 3-5 and the residual bits 163..191.

Gf163 basis(unsigned i) {
  std::uint64_t l[3] = {0, 0, 0};
  l[i / 64] = 1ULL << (i % 64);
  return Gf163{l[0], l[1], l[2]};
}

/// x^k mod f for k = 0..324, from the polynomial oracle.
std::vector<Gf163> basis_products() {
  std::vector<Gf163> out;
  for (unsigned k = 0; k <= 2 * 162; ++k) {
    const Gf2Poly r = Gf2Poly::mod(Gf2Poly::from_exponents({k}), kFieldPoly);
    out.push_back(Gf163{r.word(0), r.word(1), r.word(2)});
  }
  return out;
}

TEST(Backend, EveryBasisPairMatchesOracle) {
  BackendGuard guard;
  const std::vector<Gf163> want = basis_products();
  const Gf163 z = Gf163::zero();
  for (const Backend bk : medsec::gf2m::known_backends()) {
    if (!medsec::gf2m::set_backend(bk)) continue;
    const char* name = medsec::gf2m::backend_name(bk);
    for (unsigned i = 0; i < 163; ++i) {
      const Gf163 xi = basis(i);
      ASSERT_EQ(Gf163::sqr(xi), want[2 * i]) << name << " sqr x^" << i;
      ASSERT_EQ(Gf163::sqr_add_mul(xi, z, z), want[2 * i])
          << name << " sqr_add_mul x^" << i;
      for (unsigned j = 0; j < 163; ++j) {
        const Gf163 xj = basis(j);
        ASSERT_EQ(Gf163::mul(xi, xj), want[i + j])
            << name << " mul x^" << i << " x^" << j;
        ASSERT_EQ(Gf163::mul_add_mul(xi, xj, z, z), want[i + j])
            << name << " mul_add_mul (a, b) x^" << i << " x^" << j;
        ASSERT_EQ(Gf163::mul_add_mul(z, z, xi, xj), want[i + j])
            << name << " mul_add_mul (c, d) x^" << i << " x^" << j;
        ASSERT_EQ(Gf163::sqr_add_mul(z, xi, xj), want[i + j])
            << name << " sqr_add_mul (b, c) x^" << i << " x^" << j;
      }
    }
  }
}

TEST(Backend, EveryBasisPairMatchesOracleOnEveryLaneBackend) {
  // All 163 * 163 = 26,569 pairs as one batch: not a multiple of any
  // group width, so every backend's single-lane tail runs too.
  using medsec::gf2m::Gf163xN;
  const std::vector<Gf163> want = basis_products();
  constexpr std::size_t kLanes = 163 * 163;
  Gf163xN a(kLanes), b(kLanes), z(kLanes), out(kLanes);
  for (unsigned i = 0; i < 163; ++i)
    for (unsigned j = 0; j < 163; ++j) {
      a.set(i * 163 + j, basis(i));
      b.set(i * 163 + j, basis(j));
    }
  const auto expect = [&](const char* backend, const char* op, bool square) {
    for (unsigned i = 0; i < 163; ++i)
      for (unsigned j = 0; j < 163; ++j)
        ASSERT_EQ(out.get(i * 163 + j), want[square ? 2 * i : i + j])
            << backend << " " << op << " x^" << i << " x^" << j;
  };
  for (const auto lb : medsec::gf2m::known_lane_backends()) {
    const auto* vt = medsec::gf2m::lane_vtable(lb);
    if (vt == nullptr) continue;  // an ISA this CPU lacks
    vt->mul(a.view(), b.view(), out.span(), kLanes);
    expect(vt->name, "mul", false);
    vt->mul_add_mul(a.view(), b.view(), z.view(), z.view(), out.span(),
                    kLanes);
    expect(vt->name, "mul_add_mul (a, b)", false);
    vt->mul_add_mul(z.view(), z.view(), a.view(), b.view(), out.span(),
                    kLanes);
    expect(vt->name, "mul_add_mul (c, d)", false);
    vt->sqr(a.view(), out.span(), kLanes);
    expect(vt->name, "sqr", true);
    vt->sqr_add_mul(a.view(), z.view(), z.view(), out.span(), kLanes);
    expect(vt->name, "sqr_add_mul (a)", true);
    vt->sqr_add_mul(z.view(), a.view(), b.view(), out.span(), kLanes);
    expect(vt->name, "sqr_add_mul (b, c)", false);
  }
}

TEST(Backend, ReducedMulAgreesAcrossBackendsAndOracle) {
  BackendGuard guard;
  Xoshiro256 rng(303);
  for (int iter = 0; iter < 200; ++iter) {
    const Gf163 a = random_fe(rng);
    const Gf163 b = random_fe(rng);
    const Gf2Poly want = Gf2Poly::mulmod(to_poly(a), to_poly(b), kFieldPoly);
    for (const Backend bk : medsec::gf2m::known_backends()) {
      if (!medsec::gf2m::set_backend(bk)) continue;
      EXPECT_EQ(to_poly(Gf163::mul(a, b)), want)
          << medsec::gf2m::backend_name(bk);
      EXPECT_EQ(Gf163::sqr(a), Gf163::mul(a, a))
          << medsec::gf2m::backend_name(bk);
    }
  }
}

TEST(Backend, NistCurveVectorsOnEveryBackend) {
  BackendGuard guard;
  for (const Backend bk : medsec::gf2m::known_backends()) {
    if (!medsec::gf2m::set_backend(bk)) continue;
    for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
      // The NIST base point satisfies the curve equation and has the
      // published prime order — exercises mul, sqr, inv, and the ladder
      // end-to-end on the standard vectors.
      EXPECT_TRUE(c->is_on_curve(c->base_point()))
          << c->name() << " / " << medsec::gf2m::backend_name(bk);
      EXPECT_TRUE(medsec::ecc::montgomery_ladder(*c, c->order(),
                                                 c->base_point())
                      .infinity)
          << c->name() << " / " << medsec::gf2m::backend_name(bk);
      // Field-level fixed vector: gx * gy, checked against the bitwise
      // polynomial oracle (backend-independent).
      const Gf163 prod = Gf163::mul(c->base_point().x, c->base_point().y);
      EXPECT_EQ(to_poly(prod),
                Gf2Poly::mulmod(to_poly(c->base_point().x),
                                to_poly(c->base_point().y), kFieldPoly))
          << c->name() << " / " << medsec::gf2m::backend_name(bk);
    }
  }
}

// --- fused operations --------------------------------------------------------

TEST(Backend, FusedMulAddMulMatchesSeparateOps) {
  BackendGuard guard;
  Xoshiro256 rng(404);
  for (int iter = 0; iter < 200; ++iter) {
    const Gf163 a = random_fe(rng), b = random_fe(rng);
    const Gf163 c = random_fe(rng), d = random_fe(rng);
    for (const Backend bk : medsec::gf2m::known_backends()) {
      if (!medsec::gf2m::set_backend(bk)) continue;
      EXPECT_EQ(Gf163::mul_add_mul(a, b, c, d),
                Gf163::mul(a, b) + Gf163::mul(c, d))
          << medsec::gf2m::backend_name(bk);
      EXPECT_EQ(Gf163::sqr_add_mul(a, c, d),
                Gf163::sqr(a) + Gf163::mul(c, d))
          << medsec::gf2m::backend_name(bk);
    }
  }
}

// --- multi-squaring tables ---------------------------------------------------

TEST(MultiSqr, SqrNMatchesNaiveSquaringChain) {
  Xoshiro256 rng(505);
  for (const unsigned n :
       {1u, 2u, 4u, 5u, 7u, 10u, 20u, 40u, 45u, 81u, 86u, 162u, 163u}) {
    for (int iter = 0; iter < 10; ++iter) {
      const Gf163 a = random_fe(rng);
      Gf163 want = a;
      for (unsigned i = 0; i < n; ++i) want = Gf163::sqr(want);
      EXPECT_EQ(Gf163::sqr_n(a, n), want) << "n=" << n;
    }
  }
}

TEST(MultiSqr, InverseAndSqrtStillCorrect) {
  BackendGuard guard;
  Xoshiro256 rng(606);
  for (const Backend bk : medsec::gf2m::known_backends()) {
    if (!medsec::gf2m::set_backend(bk)) continue;
    for (int iter = 0; iter < 50; ++iter) {
      Gf163 a = random_fe(rng);
      if (a.is_zero()) a = Gf163::one();
      EXPECT_EQ(Gf163::mul(a, Gf163::inv(a)), Gf163::one())
          << medsec::gf2m::backend_name(bk);
      EXPECT_EQ(Gf163::sqrt(Gf163::sqr(a)), a)
          << medsec::gf2m::backend_name(bk);
    }
  }
}

// --- batch inversion ---------------------------------------------------------

TEST(BatchInv, MatchesElementwiseInversion) {
  Xoshiro256 rng(707);
  std::vector<Gf163> batch(100);
  for (auto& e : batch) {
    e = random_fe(rng);
    if (e.is_zero()) e = Gf163::one();
  }
  std::vector<Gf163> expected;
  expected.reserve(batch.size());
  for (const auto& e : batch) expected.push_back(Gf163::inv(e));
  Gf163::batch_inv(batch.data(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(batch[i], expected[i]) << "index " << i;
}

TEST(BatchInv, ZeroElementsAreSkippedNotPoisoning) {
  Xoshiro256 rng(808);
  // Zeros at the front, middle, and back of the batch.
  for (const std::size_t zero_at : {std::size_t{0}, std::size_t{7},
                                    std::size_t{15}}) {
    std::vector<Gf163> batch(16);
    for (auto& e : batch) {
      e = random_fe(rng);
      if (e.is_zero()) e = Gf163::one();
    }
    batch[zero_at] = Gf163::zero();
    std::vector<Gf163> originals = batch;
    Gf163::batch_inv(batch.data(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i == zero_at) {
        EXPECT_TRUE(batch[i].is_zero());
      } else {
        EXPECT_EQ(Gf163::mul(batch[i], originals[i]), Gf163::one())
            << "index " << i << " zero_at " << zero_at;
      }
    }
  }
}

TEST(BatchInv, DegenerateSizes) {
  Gf163::batch_inv(nullptr, 0);  // must not crash
  Gf163 one_elem[1] = {Gf163{5}};
  Gf163::batch_inv(one_elem, 1);
  EXPECT_EQ(Gf163::mul(one_elem[0], Gf163{5}), Gf163::one());
  Gf163 all_zero[3] = {};
  Gf163::batch_inv(all_zero, 3);
  for (const auto& e : all_zero) EXPECT_TRUE(e.is_zero());
}

TEST(BatchInv, LadderBatchRecoveryMatchesSingle) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(909);
  std::vector<Point> bases;
  std::vector<medsec::ecc::LadderState> states;
  std::vector<Point> expected;
  for (int i = 0; i < 8; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    bases.push_back(c.base_point());
    states.push_back(
        medsec::ecc::montgomery_ladder_raw(c, k, c.base_point()));
    expected.push_back(medsec::ecc::montgomery_ladder(c, k, c.base_point()));
  }
  // Include the degenerate k == 0 (mod n) state: z1 == 0 -> infinity.
  bases.push_back(c.base_point());
  states.push_back(
      medsec::ecc::montgomery_ladder_raw(c, c.order(), c.base_point()));
  expected.push_back(Point::at_infinity());

  const std::vector<Point> got =
      medsec::ecc::recover_from_ladder_batch(c, bases, states);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "index " << i;
}

// --- fixed-base comb ---------------------------------------------------------

TEST(FixedBaseComb, MatchesGenericScalarMult) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    const auto& comb = medsec::ecc::generator_comb(*c);
    Xoshiro256 rng(1010);
    for (int i = 0; i < 25; ++i) {
      const Scalar k = rng.uniform_nonzero(c->order());
      medsec::ecc::MultOptions opt;
      opt.algorithm = medsec::ecc::MultAlgorithm::kMontgomeryLadder;
      const Point want =
          medsec::ecc::scalar_mult(*c, k, c->base_point(), opt);
      EXPECT_EQ(comb.mult(k), want) << c->name();
      EXPECT_EQ(comb.mult_ct(k), want) << c->name();
    }
  }
}

TEST(FixedBaseComb, EdgeScalars) {
  const Curve& c = Curve::k163();
  const auto& comb = medsec::ecc::generator_comb(c);
  EXPECT_TRUE(comb.mult(Scalar{}).infinity);
  EXPECT_TRUE(comb.mult_ct(Scalar{}).infinity);
  EXPECT_EQ(comb.mult(Scalar{1}), c.base_point());
  EXPECT_EQ(comb.mult_ct(Scalar{1}), c.base_point());
  EXPECT_TRUE(comb.mult(c.order()).infinity);
  Scalar nm1 = c.order();
  nm1.sub_in_place(Scalar{1});
  EXPECT_EQ(comb.mult(nm1), c.negate(c.base_point()));
  EXPECT_EQ(comb.mult_ct(nm1), c.negate(c.base_point()));
  Scalar np1 = c.order();
  np1.add_in_place(Scalar{1});
  EXPECT_EQ(comb.mult(np1), c.base_point());
}

TEST(FixedBaseComb, LdScalarMultMatchesReference) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    Xoshiro256 rng(1111);
    for (int i = 0; i < 10; ++i) {
      const Scalar k = rng.uniform_nonzero(c->order());
      const Point p = medsec::ecc::montgomery_ladder(
          *c, rng.uniform_nonzero(c->order()), c->base_point());
      const Point got = medsec::gf2m::with_field_ops([&]<class Ops>(Ops) {
        return medsec::ecc::PointArith<Ops>::scalar_mult_ld(*c, k, p);
      });
      EXPECT_EQ(got, c->scalar_mult_reference(k, p)) << c->name();
    }
  }
}

/// A Curve built from src's parameters (not a copy of src).
std::unique_ptr<Curve> rebuilt(const Curve& src) {
  return std::make_unique<Curve>("rebuilt " + src.name(), src.a(), src.b(),
                                 src.base_point().x, src.base_point().y,
                                 src.order(), src.cofactor());
}

TEST(FixedBaseComb, HeapCurvesGetTheirOwnGeneratorTables) {
  // Heap curves from K-163, then B-163, then K-163 again, each freed before
  // the next is made (so an address may come back): copies, and curves
  // rebuilt from the same parameters. Each finds its own generator's
  // tables — the one set per parameter set.
  for (const bool copy : {true, false}) {
    for (const Curve* src :
         {&Curve::k163(), &Curve::b163(), &Curve::k163()}) {
      const auto c = copy ? std::make_unique<Curve>(*src) : rebuilt(*src);
      const auto& comb = medsec::ecc::generator_comb(*c);
      EXPECT_EQ(comb.base(), src->base_point()) << src->name();
      EXPECT_EQ(comb.mult(Scalar{3}),
                src->scalar_mult_reference(Scalar{3}, src->base_point()))
          << src->name();
      EXPECT_EQ(&comb, &medsec::ecc::generator_comb(*src)) << src->name();
      EXPECT_EQ(medsec::ecc::generator_tau_precomp(*c).base,
                src->base_point());
      EXPECT_EQ(medsec::ecc::tau_reducer(*c), medsec::ecc::tau_reducer(*src));
    }
  }
}

TEST(FixedBaseComb, ConcurrentFirstLookupsAgree) {
  // Fresh curves looked up from four threads at once: every lookup lands
  // on the one comb of its parameter set.
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([t, &wrong] {
      const Curve& src = t % 2 != 0 ? Curve::b163() : Curve::k163();
      for (int i = 0; i < 25; ++i)
        if (&medsec::ecc::generator_comb(*rebuilt(src)) !=
            &medsec::ecc::generator_comb(src))
          ++wrong;
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

// --- per-call dispatch: every top-level operation, every backend -----------
//
// Each entry point reads the active backend once and runs formulas
// instantiated over that backend's kernel. These run the same seeded inputs
// through every available backend and demand identical outputs.

/// The available backends, the active one first.
std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (const Backend b : medsec::gf2m::known_backends())
    if (medsec::gf2m::backend_available(b)) out.push_back(b);
  return out;
}

/// f() evaluated once per available backend.
template <class F>
auto on_each_backend(F&& f) {
  BackendGuard guard;
  std::vector<decltype(f())> out;
  for (const Backend b : available_backends()) {
    EXPECT_TRUE(medsec::gf2m::set_backend(b));
    out.push_back(f());
  }
  return out;
}

template <class T>
void expect_all_equal(const std::vector<T>& results, const char* what) {
  ASSERT_FALSE(results.empty());
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_TRUE(results[i] == results[0])
        << what << ": "
        << medsec::gf2m::backend_name(available_backends()[i])
        << " differs from "
        << medsec::gf2m::backend_name(available_backends()[0]);
}

TEST(Dispatch, MsmBatchShapeAgreesAcrossBackends) {
  // The verifier's random linear combination over a 64-item batch: 64
  // terms with 64-bit coefficients (the c_i·R_i rows), 64 full-width
  // (c_i e_i)·X_i rows and the full-width (sum c_i s_i)·G row.
  const Curve& c = Curve::k163();
  const auto& comb = medsec::ecc::generator_comb(c);
  Xoshiro256 rng(0xD15);
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<medsec::ecc::MsmTerm> terms;
    for (int i = 0; i < 129; ++i) {
      const Scalar k =
          i < 64 ? Scalar{rng.next_u64()} : rng.uniform_nonzero(c.order());
      terms.push_back({k, comb.mult(rng.uniform_nonzero(c.order()))});
    }
    const auto got = on_each_backend(
        [&] { return medsec::ecc::multi_scalar_mult(c, terms); });
    expect_all_equal(got, "multi_scalar_mult");
    if (batch == 0) {
      Point want = Point::at_infinity();
      for (const auto& t : terms)
        want = c.add(want, c.scalar_mult_reference(t.k, t.p));
      EXPECT_EQ(got[0], want);
    }
  }
}

TEST(Dispatch, ScalarMultsAgreeAcrossBackends) {
  const Curve& c = Curve::k163();
  const auto& comb = medsec::ecc::generator_comb(c);
  Xoshiro256 rng(0xD16);
  std::vector<Scalar> ks;
  for (int i = 0; i < 1000; ++i) ks.push_back(rng.uniform_nonzero(c.order()));
  const Point p = comb.mult(rng.uniform_nonzero(c.order()));
  const auto ladder = on_each_backend([&] {
    std::vector<Point> out;
    for (const Scalar& k : ks)
      out.push_back(medsec::ecc::montgomery_ladder(c, k, p));
    return out;
  });
  expect_all_equal(ladder, "montgomery_ladder");
  const auto mult = on_each_backend([&] {
    std::vector<Point> out;
    for (const Scalar& k : ks) out.push_back(comb.mult(k));
    return out;
  });
  expect_all_equal(mult, "FixedBaseComb::mult");
  const auto mult_ct = on_each_backend([&] {
    std::vector<Point> out;
    for (const Scalar& k : ks) out.push_back(comb.mult_ct(k));
    return out;
  });
  expect_all_equal(mult_ct, "FixedBaseComb::mult_ct");
  EXPECT_EQ(mult[0], mult_ct[0]);
}

TEST(Dispatch, DecodeAndInversionAgreeAcrossBackends) {
  const Curve& c = Curve::k163();
  const auto& comb = medsec::ecc::generator_comb(c);
  Xoshiro256 rng(0xD17);
  // 1k wires: points of the subgroup, plus a share of corrupted x
  // coordinates (mostly off-curve or outside the subgroup) and bad prefixes.
  std::vector<std::vector<std::uint8_t>> wires;
  for (int i = 0; i < 1024; ++i) {
    auto w = medsec::protocol::encode_point(
        c, comb.mult(rng.uniform_nonzero(c.order())));
    if (i % 7 == 3) w[1 + rng.uniform(w.size() - 2)] ^= 0x10;
    if (i % 31 == 5) w[0] = 0x04;
    wires.push_back(std::move(w));
  }
  const auto decoded = on_each_backend([&] {
    std::vector<std::optional<Point>> out;
    for (std::size_t i = 0; i < wires.size(); i += 64) {
      const std::vector<std::vector<std::uint8_t>> block(
          wires.begin() + static_cast<std::ptrdiff_t>(i),
          wires.begin() + static_cast<std::ptrdiff_t>(i + 64));
      for (auto& p : medsec::engine::decode_points_batch(c, block))
        out.push_back(std::move(p));
    }
    return out;
  });
  expect_all_equal(decoded, "decode_points_batch");
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < wires.size(); ++i) {
    EXPECT_EQ(decoded[0][i], medsec::protocol::decode_point(c, wires[i]))
        << "wire " << i;
    accepted += decoded[0][i].has_value() ? 1 : 0;
  }
  EXPECT_GT(accepted, wires.size() / 2);
  EXPECT_LT(accepted, wires.size());

  std::vector<Gf163> xs(1024);
  for (auto& x : xs) {
    x = random_fe(rng);
    if (x.is_zero()) x = Gf163::one();
  }
  const auto inv = on_each_backend([&] {
    std::vector<Gf163> out;
    for (const Gf163& x : xs) out.push_back(Gf163::inv(x));
    return out;
  });
  expect_all_equal(inv, "inv");
  const auto batch = on_each_backend([&] {
    std::vector<Gf163> out = xs;
    for (std::size_t i = 0; i < out.size(); i += 64)
      Gf163::batch_inv(out.data() + i, 64);
    return out;
  });
  expect_all_equal(batch, "batch_inv");
  EXPECT_EQ(batch[0], inv[0]);
}

TEST(Dispatch, SetBackendTakesEffectAtTheNextCall) {
  BackendGuard guard;
  const Curve& c = Curve::k163();
  Xoshiro256 rng(0xD18);
  const Scalar k = rng.uniform_nonzero(c.order());
  std::vector<Point> results;
  for (const Backend b : available_backends()) {
    ASSERT_TRUE(medsec::gf2m::set_backend(b));
    EXPECT_EQ(medsec::gf2m::active_backend(), b);
    results.push_back(medsec::ecc::montgomery_ladder(c, k, c.base_point()));
    results.push_back(medsec::ecc::generator_comb(c).mult_ct(k));
  }
  for (const Point& r : results) EXPECT_EQ(r, results[0]);
}

// --- windowed TNAF -----------------------------------------------------------

TEST(WindowTnaf, DigitPropertiesWidth4) {
  Xoshiro256 rng(1212);
  const Curve& c = Curve::k163();
  for (int i = 0; i < 20; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    const auto digits = medsec::ecc::tau_naf_window_digits(k, 1, 4);
    for (std::size_t j = 0; j < digits.size(); ++j) {
      const int d = digits[j];
      EXPECT_LT(d, 8);
      EXPECT_GT(d, -8);
      if (d != 0) {
        EXPECT_EQ((d % 2 + 2) % 2, 1) << "digit must be odd";
        // Next w-1 = 3 digits are zero.
        for (std::size_t z = 1; z <= 3 && j + z < digits.size(); ++z)
          EXPECT_EQ(digits[j + z], 0) << "at " << j << "+" << z;
      }
    }
  }
}

TEST(WindowTnaf, MultAgreesWithLadderAllWidths) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(1313);
  for (int i = 0; i < 10; ++i) {
    const Scalar k = rng.uniform_nonzero(c.order());
    const Point want = medsec::ecc::montgomery_ladder(c, k, c.base_point());
    EXPECT_EQ(medsec::ecc::tau_naf_mult(c, k, c.base_point()), want);
    for (unsigned w = 2; w <= 5; ++w) {
      const medsec::ecc::TauNafPrecomp pre(c, c.base_point(), w);
      EXPECT_EQ(medsec::ecc::tau_naf_mult(c, k, pre), want) << "width " << w;
    }
  }
  // Cached generator table.
  const Scalar k = rng.uniform_nonzero(c.order());
  EXPECT_EQ(medsec::ecc::tau_naf_mult(
                c, k, medsec::ecc::generator_tau_precomp(c)),
            medsec::ecc::montgomery_ladder(c, k, c.base_point()));
}

// --- digit-serial model fast path -------------------------------------------

TEST(DigitSerial, ProductOnlyMatchesCycleModel) {
  Xoshiro256 rng(1414);
  for (const std::size_t d : {1u, 3u, 4u, 8u, 32u}) {
    const medsec::hw::DigitSerialMultiplier malu(d);
    for (int i = 0; i < 20; ++i) {
      const Gf163 a = random_fe(rng);
      const Gf163 b = random_fe(rng);
      EXPECT_EQ(malu.product_only(a, b), malu.multiply(a, b).product)
          << "digit size " << d;
    }
  }
}

}  // namespace
