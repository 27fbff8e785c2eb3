// Tests for the batch field layer (Gf163xN + lane backends) and the
// lockstep batched ladder: every wide backend must be bit-identical to
// the scalar arithmetic, lane by lane, including the reduction edge
// patterns and the per-iteration leakage taps — and the x-only batch
// entry (ladder_x_many) must equal the single one at every batch size.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <vector>

#include "ecc/ladder_many.h"
#include "ecc/scalar_mult.h"
#include "gf2m/backend.h"
#include "gf2m/gf163_lanes.h"
#include "rng/xoshiro.h"

namespace {

using medsec::bigint::U192;
using medsec::gf2m::Gf163;
using medsec::gf2m::Gf163xN;
using medsec::gf2m::LaneBackend;
using medsec::rng::Xoshiro256;
namespace gf = medsec::gf2m;
namespace ecc = medsec::ecc;

Gf163 rand_fe(Xoshiro256& rng) {
  U192 v;
  for (std::size_t i = 0; i < 3; ++i) v.set_limb(i, rng.next_u64());
  return Gf163::from_bits(v);
}

Gf163 bit_fe(unsigned i) {
  std::uint64_t l[3] = {0, 0, 0};
  l[i / 64] = 1ull << (i % 64);
  return Gf163{l[0], l[1], l[2]};
}

/// Random operands plus the reduction edge patterns: top coefficients,
/// limb boundaries, the pentanomial bits, all-ones.
std::vector<Gf163> operand_set(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Gf163> out;
  out.reserve(n);
  const Gf163 edges[] = {
      Gf163::zero(),
      Gf163::one(),
      bit_fe(162),  // top coefficient: every product spills maximally
      bit_fe(161),
      bit_fe(63),
      bit_fe(64),
      bit_fe(127),
      bit_fe(128),
      bit_fe(7) + bit_fe(6) + bit_fe(3) + Gf163::one(),  // x^163 mod f
      Gf163{~0ull, ~0ull, 0x7FFFFFFFFull},               // all 163 ones
      bit_fe(162) + bit_fe(128) + bit_fe(64) + Gf163::one(),
  };
  for (const Gf163& e : edges) out.push_back(e);
  while (out.size() < n) out.push_back(rand_fe(rng));
  return out;
}

class LaneBackends : public ::testing::TestWithParam<LaneBackend> {
 protected:
  void SetUp() override {
    if (!gf::lane_backend_available(GetParam()))
      GTEST_SKIP() << "lane backend unavailable on this CPU";
    ASSERT_TRUE(gf::set_lane_backend(GetParam()));
  }
  void TearDown() override { gf::reset_lane_backend(); }
};

TEST_P(LaneBackends, TenThousandOperandSetsMatchScalar) {
  // >= 10k operand sets per op, including the edge patterns, in several
  // differently-sized batches to cover every backend's group tails.
  const std::size_t kSizes[] = {1, 3, 63, 64, 65, 130, 1024, 8750};
  std::uint64_t seed = 1;
  std::size_t total = 0;
  for (const std::size_t n : kSizes) {
    const auto av = operand_set(n, seed += 11);
    const auto bv = operand_set(n, seed += 11);
    const auto cv = operand_set(n, seed += 11);
    const auto dv = operand_set(n, seed += 11);
    Gf163xN a(n), b(n), c(n), d(n), out(n);
    for (std::size_t i = 0; i < n; ++i) {
      a.set(i, av[i]);
      b.set(i, bv[i]);
      c.set(i, cv[i]);
      d.set(i, dv[i]);
    }

    Gf163xN::mul(a, b, out);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out.get(i), Gf163::mul(av[i], bv[i])) << "mul lane " << i;
    Gf163xN::sqr(a, out);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out.get(i), Gf163::sqr(av[i])) << "sqr lane " << i;
    Gf163xN::mul_add_mul(a, b, c, d, out);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out.get(i), Gf163::mul_add_mul(av[i], bv[i], cv[i], dv[i]))
          << "mul_add_mul lane " << i;
    Gf163xN::sqr_add_mul(a, b, c, out);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out.get(i), Gf163::sqr_add_mul(av[i], bv[i], cv[i]))
          << "sqr_add_mul lane " << i;
    total += n;
  }
  EXPECT_GE(total, 10000u);
}

TEST_P(LaneBackends, OutputMayAliasInput) {
  // Every op with `out` aliasing each of its inputs in turn. 47 lanes run
  // every loop shape: on ZMM two 16-lane groups, one 8-lane group and a
  // 7-lane tail; on YMM 8-lane pairs, one 4-lane group and a 3-lane tail;
  // on clmulwide pairs and one tail. A kernel that stores part of a group
  // before it has loaded all of it fails here.
  const std::size_t n = 47;
  std::array<std::vector<Gf163>, 4> vals;
  for (std::size_t k = 0; k < vals.size(); ++k) vals[k] = operand_set(n, 77 + k);
  using Ins = std::array<Gf163xN, 4>;
  using Lane = std::array<Gf163, 4>;
  struct Op {
    const char* name;
    std::size_t arity;
    void (*run)(const Ins& x, Gf163xN& out);
    Gf163 (*want)(const Lane& v);
  };
  const Op ops[] = {
      {"mul", 2, [](const Ins& x, Gf163xN& o) { Gf163xN::mul(x[0], x[1], o); },
       [](const Lane& v) { return Gf163::mul(v[0], v[1]); }},
      {"sqr", 1, [](const Ins& x, Gf163xN& o) { Gf163xN::sqr(x[0], o); },
       [](const Lane& v) { return Gf163::sqr(v[0]); }},
      {"mul_add_mul", 4,
       [](const Ins& x, Gf163xN& o) {
         Gf163xN::mul_add_mul(x[0], x[1], x[2], x[3], o);
       },
       [](const Lane& v) { return Gf163::mul_add_mul(v[0], v[1], v[2], v[3]); }},
      {"sqr_add_mul", 3,
       [](const Ins& x, Gf163xN& o) {
         Gf163xN::sqr_add_mul(x[0], x[1], x[2], o);
       },
       [](const Lane& v) { return Gf163::sqr_add_mul(v[0], v[1], v[2]); }},
      {"add", 2, [](const Ins& x, Gf163xN& o) { Gf163xN::add(x[0], x[1], o); },
       [](const Lane& v) { return v[0] + v[1]; }},
  };
  for (const Op& op : ops) {
    for (std::size_t k = 0; k < op.arity; ++k) {
      Ins x;
      for (std::size_t j = 0; j < x.size(); ++j) {
        x[j].resize(n);
        for (std::size_t i = 0; i < n; ++i) x[j].set(i, vals[j][i]);
      }
      op.run(x, x[k]);
      for (std::size_t i = 0; i < n; ++i) {
        const Lane v = {vals[0][i], vals[1][i], vals[2][i], vals[3][i]};
        ASSERT_EQ(x[k].get(i), op.want(v))
            << op.name << " with out = input " << k << ", lane " << i;
      }
    }
  }
}

TEST_P(LaneBackends, AddAndCswapMatchPerLaneLoop) {
  // Each backend's add and cswap against the scalar backend's per-lane
  // loops, at sizes around every vector width (4 and 8 lanes) so the
  // tails run, with every choice byte's high bits set in half the lanes
  // (only bit 0 may count).
  const gf::LaneVTable* vt = gf::lane_vtable(GetParam());
  const gf::LaneVTable* ref = gf::lane_vtable(LaneBackend::kLaneScalar);
  Xoshiro256 rng(23);
  for (const std::size_t n : {1u, 3u, 4u, 7u, 8u, 9u, 17u, 64u, 130u}) {
    const auto av = operand_set(n, 300 + n);
    const auto bv = operand_set(n, 400 + n);
    std::vector<std::uint8_t> choice(n);
    for (auto& c : choice) c = static_cast<std::uint8_t>(rng.next_u64());
    Gf163xN a(n), b(n), a_ref(n), b_ref(n), sum(n), sum_ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      a.set(i, av[i]);
      b.set(i, bv[i]);
      a_ref.set(i, av[i]);
      b_ref.set(i, bv[i]);
    }
    vt->add(a.view(), b.view(), sum.span(), n);
    ref->add(a.view(), b.view(), sum_ref.span(), n);
    vt->cswap(choice.data(), a.span(), b.span(), n);
    ref->cswap(choice.data(), a_ref.span(), b_ref.span(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(sum.get(i), sum_ref.get(i)) << "add n " << n << " lane " << i;
      ASSERT_EQ(sum.get(i), av[i] + bv[i]) << "add n " << n << " lane " << i;
      ASSERT_EQ(a.get(i), a_ref.get(i)) << "cswap n " << n << " lane " << i;
      ASSERT_EQ(b.get(i), b_ref.get(i)) << "cswap n " << n << " lane " << i;
      ASSERT_EQ(a.get(i), (choice[i] & 1) ? bv[i] : av[i])
          << "cswap n " << n << " lane " << i;
    }
    vt->add(a.view(), b.view(), a.span(), n);  // out aliases an input
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.get(i), av[i] + bv[i]) << "aliased add n " << n;
  }
}

TEST_P(LaneBackends, BatchedLadderMatchesScalarLadder) {
  // Both curves: the lane and scalar doublings skip the multiplication
  // by b on K-163 (b = 1) and keep it on B-163.
  for (const ecc::Curve* c : {&ecc::Curve::k163(), &ecc::Curve::b163()}) {
    const ecc::Curve& curve = *c;
    Xoshiro256 rng(5);
    const std::size_t n = 37;  // odd: exercises lane-group tails
    std::vector<ecc::Scalar> ks(n);
    std::vector<ecc::Point> ps(n);
    std::vector<std::pair<ecc::Fe, ecc::Fe>> rands(n);
    for (std::size_t i = 0; i < n; ++i) {
      ks[i] = rng.uniform_nonzero(curve.order());
      ps[i] = curve.scalar_mult_reference(rng.uniform_nonzero(curve.order()),
                                          curve.base_point());
      ecc::Fe l1 = rand_fe(rng), l2 = rand_fe(rng);
      if (l1.is_zero()) l1 = ecc::Fe::one();
      if (l2.is_zero()) l2 = ecc::Fe::one();
      rands[i] = {l1, l2};
    }

    for (const bool randomized : {false, true}) {
      ecc::BatchLadderOptions bo;
      if (randomized) bo.randomizers = rands.data();
      std::vector<std::vector<int>> batch_hw(n);
      bo.observer = [&](std::size_t, const ecc::LadderLanes& s) {
        std::vector<int> hw(n);
        s.hamming_weights(hw.data());
        for (std::size_t i = 0; i < n; ++i) {
          batch_hw[i].push_back(hw[i]);
          // bulk form must agree with the per-lane form
          ASSERT_EQ(hw[i], s.hamming_weight(i));
        }
      };
      const auto batch = ecc::ladder_many(curve, ks.data(), ps.data(), n, bo);

      for (std::size_t i = 0; i < n; ++i) {
        ecc::LadderOptions lo;
        if (randomized) lo.known_randomizers = rands[i];
        std::vector<int> scalar_hw;
        lo.observer = [&](const ecc::LadderObservation& ob) {
          int hw = 0;
          for (const ecc::Fe* f : {&ob.x1, &ob.z1, &ob.x2, &ob.z2})
            for (std::size_t l = 0; l < 3; ++l)
              hw += std::popcount(f->limb(l));
          scalar_hw.push_back(hw);
        };
        const ecc::LadderState ref =
            ecc::montgomery_ladder_raw(curve, ks[i], ps[i], lo);
        EXPECT_EQ(ref.x1, batch[i].x1) << "lane " << i;
        EXPECT_EQ(ref.z1, batch[i].z1) << "lane " << i;
        EXPECT_EQ(ref.x2, batch[i].x2) << "lane " << i;
        EXPECT_EQ(ref.z2, batch[i].z2) << "lane " << i;
        EXPECT_EQ(scalar_hw, batch_hw[i]) << "leakage tap mismatch, lane " << i;
        // The lanes and montgomery_ladder_raw share ladder_core.h, so also
        // check x(k·P) against affine double-and-add, which shares no
        // formula with the ladder.
        EXPECT_EQ(batch[i].x1 * ecc::Fe::inv(batch[i].z1),
                  curve.scalar_mult_reference(ks[i], ps[i]).x)
            << curve.name() << " lane " << i;
      }
    }
  }
}

TEST_P(LaneBackends, LadderXManyMatchesLadderXAndScalarMult) {
  // Sizes below, at and above one fused-kernel group (4 or 8 lanes on the
  // wide backends, so 7 and 65 leave tail lanes), two keys interleaved in
  // each batch (PH and ECIES jobs share one), and one job whose product
  // is O; on both curves.
  for (const ecc::Curve* c : {&ecc::Curve::k163(), &ecc::Curve::b163()}) {
    const ecc::Curve& curve = *c;
    Xoshiro256 rng(17);
    const ecc::Scalar keys[2] = {rng.uniform_nonzero(curve.order()),
                                 rng.uniform_nonzero(curve.order())};
    ecc::LadderManyWorkspace ws;  // reused across sizes, as a shard does
    for (const std::size_t n : {1u, 2u, 7u, 8u, 64u, 65u}) {
      std::vector<ecc::Scalar> ks(n);
      std::vector<ecc::Point> qs(n);
      for (std::size_t i = 0; i < n; ++i) {
        ks[i] = keys[i % 2];
        qs[i] = curve.scalar_mult_reference(rng.uniform_nonzero(curve.order()),
                                            curve.base_point());
      }
      if (n > 1) ks[n / 2] = curve.order();  // n·Q = O
      std::vector<std::optional<ecc::Fe>> xs(n);
      ecc::ladder_x_many(curve, ks.data(), qs.data(), n, ws, xs.data());
      for (std::size_t i = 0; i < n; ++i) {
        const std::optional<ecc::Fe> single =
            ecc::ladder_x(curve, ks[i], qs[i]);
        EXPECT_EQ(xs[i], single) << "n " << n << " job " << i;
        const ecc::Point full = ecc::scalar_mult(curve, ks[i], qs[i]);
        EXPECT_EQ(single.has_value(), !full.infinity) << "n " << n;
        if (single) {
          EXPECT_EQ(*single, full.x) << "n " << n << " job " << i;
        }
        // scalar_mult runs the same ladder by default; affine
        // double-and-add shares no formula with it.
        const ecc::Point oracle = curve.scalar_mult_reference(ks[i], qs[i]);
        EXPECT_EQ(xs[i].has_value(), !oracle.infinity) << "n " << n;
        if (xs[i] && !oracle.infinity) {
          EXPECT_EQ(*xs[i], oracle.x)
              << curve.name() << " n " << n << " job " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLaneBackends, LaneBackends,
    ::testing::Values(LaneBackend::kLaneScalar, LaneBackend::kLaneClmulWide,
                      LaneBackend::kLaneVpclmul512,
                      LaneBackend::kLaneVpclmul256),
    [](const auto& info) {
      switch (info.param) {
        case LaneBackend::kLaneScalar:
          return "Scalar";
        case LaneBackend::kLaneClmulWide:
          return "ClmulWide";
        case LaneBackend::kLaneVpclmul512:
          return "Vpclmul512";
        default:
          return "Vpclmul256";
      }
    });

TEST(Gf163xN, SetGetRoundTripAndCswap) {
  Xoshiro256 rng(9);
  const std::size_t n = 130;
  const auto av = operand_set(n, 100);
  const auto bv = operand_set(n, 101);
  Gf163xN a(n), b(n);
  std::vector<std::uint8_t> choice(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, av[i]);
    b.set(i, bv[i]);
    choice[i] = static_cast<std::uint8_t>(rng.next_u64() & 1);
  }
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(a.get(i), av[i]);

  Gf163xN::cswap(choice.data(), a, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.get(i), choice[i] ? bv[i] : av[i]);
    EXPECT_EQ(b.get(i), choice[i] ? av[i] : bv[i]);
  }
}

TEST(Gf163xN, AddIsLaneWiseXor) {
  const std::size_t n = 17;
  const auto av = operand_set(n, 200);
  const auto bv = operand_set(n, 201);
  Gf163xN a(n), b(n), out(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(i, av[i]);
    b.set(i, bv[i]);
  }
  Gf163xN::add(a, b, out);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out.get(i), av[i] + bv[i]);
}

TEST(LaneRegistry, DispatchFollowsScalarBackendAndEnvOverride) {
  // Auto selection maps the scalar backend to its wide counterpart: for
  // clmul, the widest vector backend the host supports.
  const gf::Backend prev = gf::active_backend();
  gf::reset_lane_backend();
  if (gf::backend_available(gf::Backend::kClmul) &&
      gf::lane_backend_available(LaneBackend::kLaneClmulWide)) {
    gf::set_backend(gf::Backend::kClmul);
    const LaneBackend expected =
        gf::lane_backend_available(LaneBackend::kLaneVpclmul512)
            ? LaneBackend::kLaneVpclmul512
        : gf::lane_backend_available(LaneBackend::kLaneVpclmul256)
            ? LaneBackend::kLaneVpclmul256
            : LaneBackend::kLaneClmulWide;
    EXPECT_EQ(gf::active_lane_backend(), expected);
  }
  gf::set_backend(gf::Backend::kKaratsuba);
  EXPECT_EQ(gf::active_lane_backend(), LaneBackend::kLaneScalar);

  // Pinning wins over the scalar backend in both directions; reset
  // restores auto. (clmulwide implies an x86 host with PCLMULQDQ.)
  if (gf::lane_backend_available(LaneBackend::kLaneClmulWide)) {
    ASSERT_TRUE(gf::set_lane_backend(LaneBackend::kLaneClmulWide));
    EXPECT_EQ(gf::active_lane_backend(), LaneBackend::kLaneClmulWide);
    gf::reset_lane_backend();
    EXPECT_EQ(gf::active_lane_backend(), LaneBackend::kLaneScalar);

    gf::set_backend(gf::Backend::kClmul);
    ASSERT_TRUE(gf::set_lane_backend(LaneBackend::kLaneScalar));
    EXPECT_EQ(gf::active_lane_backend(), LaneBackend::kLaneScalar);
    gf::reset_lane_backend();
    EXPECT_NE(gf::active_lane_backend(), LaneBackend::kLaneScalar);
  }

  gf::set_backend(prev);
  gf::reset_lane_backend();

  // Every lane backend reports a name and a nonzero preferred width.
  for (const LaneBackend b : gf::known_lane_backends()) {
    EXPECT_STRNE(gf::lane_backend_name(b), "?");
    if (const auto* vt = gf::lane_vtable(b)) {
      EXPECT_GE(vt->preferred_width, 1u);
      EXPECT_EQ(vt->id, b);
    }
  }
}

TEST(LaneRegistry, NameParsingRoundTripsAndRejectsUnknown) {
  // Every compiled-in backend parses back from its canonical name and
  // reports a real requirement string.
  for (const gf::Backend b : gf::known_backends()) {
    gf::Backend parsed;
    ASSERT_TRUE(gf::backend_from_name(gf::backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
    EXPECT_STRNE(gf::backend_requirement(b), "?");
  }
  for (const LaneBackend b : gf::known_lane_backends()) {
    LaneBackend parsed;
    ASSERT_TRUE(gf::lane_backend_from_name(gf::lane_backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
    EXPECT_STRNE(gf::lane_backend_requirement(b), "?");
  }

  // Aliases accepted by the env overrides.
  LaneBackend lb;
  EXPECT_TRUE(gf::lane_backend_from_name("clmul", lb));
  EXPECT_EQ(lb, LaneBackend::kLaneClmulWide);
  EXPECT_TRUE(gf::lane_backend_from_name("vpclmul", lb));
  EXPECT_EQ(lb, LaneBackend::kLaneVpclmul512);
  gf::Backend sb;
  EXPECT_TRUE(gf::backend_from_name("hw", sb));
  EXPECT_EQ(sb, gf::Backend::kClmul);

  // Unknown names must be reported, not silently mapped (the env-var
  // startup path aborts on these — this is the parse primitive it uses).
  EXPECT_FALSE(gf::lane_backend_from_name("vpclmul521", lb));
  EXPECT_FALSE(gf::lane_backend_from_name("", lb));
  EXPECT_FALSE(gf::lane_backend_from_name("auto", lb));  // not a backend
  EXPECT_FALSE(gf::backend_from_name("clmull", sb));
  // Backends that auto-dispatch could never select are not compiled in:
  // their old names are unknown like any typo.
  EXPECT_FALSE(gf::lane_backend_from_name("bitsliced", lb));
  EXPECT_FALSE(gf::backend_from_name("portable", sb));
}

TEST(LadderMany, RejectsBadInputsAndReusesWorkspace) {
  const ecc::Curve& curve = ecc::Curve::k163();
  Xoshiro256 rng(11);
  ecc::Scalar k = rng.uniform_nonzero(curve.order());
  ecc::Point inf = ecc::Point::at_infinity();
  EXPECT_THROW(ecc::ladder_many(curve, &k, &inf, 1), std::invalid_argument);

  // Workspace reuse across differently-sized batches stays correct.
  ecc::LadderManyWorkspace ws;
  for (const std::size_t n : {5u, 12u, 3u}) {
    std::vector<ecc::Scalar> ks(n);
    std::vector<ecc::Point> ps(n, curve.base_point());
    std::vector<ecc::LadderState> out(n);
    for (std::size_t i = 0; i < n; ++i)
      ks[i] = rng.uniform_nonzero(curve.order());
    ecc::ladder_many_into(curve, ks.data(), ps.data(), n, {}, ws, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      const ecc::LadderState ref =
          ecc::montgomery_ladder_raw(curve, ks[i], ps[i]);
      EXPECT_EQ(ref.x1, out[i].x1);
      EXPECT_EQ(ref.z2, out[i].z2);
    }
  }
}

}  // namespace
