// Tests for the engine layer: interleaved multi-scalar multiplication, the
// cofactor-2 fast subgroup gate, batch point decoding, random-linear-
// combination batch verification, and device enrollment. The serving
// stack end to end lives in test_shards.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <stdexcept>
#include <utility>

#include "ecc/curve.h"
#include "ecc/scalar_mult.h"
#include "engine/batch_verifier.h"
#include "engine/device_registry.h"
#include "protocol/schnorr.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace {

using medsec::ecc::Curve;
using medsec::ecc::Fe;
using medsec::ecc::MsmTerm;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::rng::Xoshiro256;
namespace proto = medsec::protocol;
namespace engine = medsec::engine;

Point random_subgroup_point(const Curve& c, Xoshiro256& rng) {
  return c.scalar_mult_reference(rng.uniform_nonzero(c.order()),
                                 c.base_point());
}

// --- multi-scalar multiplication ---------------------------------------------

TEST(Msm, MatchesReferenceAcrossSizes) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    Xoshiro256 rng(1);
    for (std::size_t n = 0; n <= 6; ++n) {
      std::vector<MsmTerm> terms(n);
      std::vector<Point> products;
      Point expect = Point::at_infinity();
      for (auto& t : terms) {
        t.k = rng.uniform_nonzero(c->order());
        t.p = random_subgroup_point(*c, rng);
        products.push_back(c->scalar_mult_reference(t.k, t.p));
        expect = c->add(expect, products.back());
      }
      EXPECT_EQ(medsec::ecc::multi_scalar_mult(*c, terms), expect)
          << c->name() << " n=" << n;

      // The two phases directly: one table, every run of its terms, plus
      // a base-point term whose scalar is supplied per evaluation.
      const Scalar kb = rng.uniform_nonzero(c->order());
      const Point kb_g = c->scalar_mult_reference(kb, c->base_point());
      const medsec::ecc::MsmTable table(*c, terms, c->base_point());
      for (std::size_t first = 0; first <= n; ++first) {
        Point run = kb_g;
        for (std::size_t last = first; last <= n; ++last) {
          if (last > first) run = c->add(run, products[last - 1]);
          EXPECT_EQ(table.evaluate(first, last, kb), run)
              << c->name() << " n=" << n << " [" << first << ", " << last
              << ")";
        }
      }
      EXPECT_EQ(table.evaluate(0, n, Scalar{}), expect) << c->name();
      EXPECT_THROW(table.evaluate(0, n + 1, kb), std::out_of_range);
    }
  }
}

TEST(Msm, HandlesDegenerateTerms) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(2);
  const Point p = random_subgroup_point(c, rng);
  const Scalar k = rng.uniform_nonzero(c.order());
  // Zero scalars and infinity points contribute nothing.
  const std::vector<MsmTerm> terms{
      {Scalar{}, p}, {k, Point::at_infinity()}, {k, p}};
  EXPECT_EQ(medsec::ecc::multi_scalar_mult(c, terms),
            c.scalar_mult_reference(k, p));
  EXPECT_TRUE(
      medsec::ecc::multi_scalar_mult(c, std::vector<MsmTerm>{}).infinity);
  // Scalars >= order reduce.
  const std::vector<MsmTerm> big{{c.order() + k, p}};
  EXPECT_EQ(medsec::ecc::multi_scalar_mult(c, big),
            c.scalar_mult_reference(k, p));
}

TEST(Msm, DoubleScalarShamir) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(3);
  for (int i = 0; i < 5; ++i) {
    const Point p = random_subgroup_point(c, rng);
    const Point q = random_subgroup_point(c, rng);
    const Scalar a = rng.uniform_nonzero(c.order());
    const Scalar b = rng.uniform_nonzero(c.order());
    EXPECT_EQ(medsec::ecc::double_scalar_mult(c, a, p, b, q),
              c.add(c.scalar_mult_reference(a, p),
                    c.scalar_mult_reference(b, q)));
  }
}

// --- fast subgroup gate ------------------------------------------------------

TEST(SubgroupGate, FastPathAgreesWithExactCheck) {
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    Xoshiro256 rng(4);
    // Subgroup points: both accept.
    for (int i = 0; i < 8; ++i) {
      const Point p = random_subgroup_point(*c, rng);
      EXPECT_TRUE(c->validate_subgroup_point(p));
      EXPECT_TRUE(c->validate_subgroup_point_exact(p));
    }
    // Arbitrary decompressible x values: the two gates must agree, and
    // both cosets must actually occur (on-curve points in and out of the
    // prime-order subgroup).
    int in_subgroup = 0, out_of_subgroup = 0;
    for (int i = 0; in_subgroup + out_of_subgroup < 24 && i < 400; ++i) {
      medsec::bigint::U192 v;
      for (std::size_t l = 0; l < 3; ++l) v.set_limb(l, rng.next_u64());
      const Fe x = Fe::from_bits(v);
      if (x.is_zero()) continue;
      const auto p = c->decompress({x, static_cast<int>(i & 1)});
      if (!p) continue;
      const bool fast = c->validate_subgroup_point(*p);
      const bool exact = c->validate_subgroup_point_exact(*p);
      EXPECT_EQ(fast, exact) << c->name() << " x=" << x.to_hex();
      ++(fast ? in_subgroup : out_of_subgroup);
    }
    EXPECT_GT(in_subgroup, 0) << c->name();
    EXPECT_GT(out_of_subgroup, 0) << c->name();
  }
}

// --- batch point decoding ----------------------------------------------------

TEST(BatchDecode, AgreesWithSingleDecode) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(5);
  std::vector<std::vector<std::uint8_t>> wires;
  // Valid points.
  for (int i = 0; i < 6; ++i)
    wires.push_back(proto::encode_point(c, random_subgroup_point(c, rng)));
  // Infinity, bad prefix, truncation, garbage, order-2 point, random x.
  wires.push_back(std::vector<std::uint8_t>(1 + proto::kFeBytes, 0x00));
  auto bad_prefix = wires[0];
  bad_prefix[0] = 0x07;
  wires.push_back(bad_prefix);
  wires.push_back({0x02, 0xab});
  wires.push_back(std::vector<std::uint8_t>(1 + proto::kFeBytes, 0xff));
  wires.push_back(
      proto::encode_point(c, Point::affine(Fe::zero(), Fe::sqrt(c.b()))));
  for (int i = 0; i < 40; ++i) {
    std::vector<std::uint8_t> w(1 + proto::kFeBytes);
    rng.fill(w);
    w[0] = (i & 1) ? 0x02 : 0x03;
    w[1] &= 0x07;  // keep the top bits plausible
    wires.push_back(w);
  }

  const auto batch = engine::decode_points_batch(c, wires);
  ASSERT_EQ(batch.size(), wires.size());
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const auto single = proto::decode_point(c, wires[i]);
    ASSERT_EQ(batch[i].has_value(), single.has_value()) << "entry " << i;
    if (single) EXPECT_EQ(*batch[i], *single) << "entry " << i;
  }
}

// --- batch verification ------------------------------------------------------

std::pair<proto::SchnorrTranscript, Point> honest_transcript(
    const Curve& c, Xoshiro256& rng) {
  const auto kp = proto::schnorr_keygen(c, rng);
  const auto session = proto::run_schnorr_session(c, kp, rng);
  return {session.view, kp.X};
}

TEST(BatchVerify, AcceptsHonestBatchWithOneMsm) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(6);
  std::vector<proto::SchnorrTranscript> ts;
  std::vector<Point> keys;
  for (int i = 0; i < 16; ++i) {
    auto [t, x] = honest_transcript(c, rng);
    ts.push_back(t);
    keys.push_back(x);
  }
  const auto out = engine::schnorr_verify_batch(c, ts, keys, rng);
  EXPECT_TRUE(out.rlc_passed);
  for (const bool ok : out.ok) EXPECT_TRUE(ok);
}

TEST(BatchVerify, IsolatesForgeriesLikeSingleVerify) {
  // Bisection over one table: every verdict is schnorr_verify's, at every
  // batch size and wherever the forgeries sit.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(7);
  std::vector<proto::SchnorrTranscript> pool;
  std::vector<Point> keys;
  for (int i = 0; i < 65; ++i) {
    auto [t, x] = honest_transcript(c, rng);
    pool.push_back(t);
    keys.push_back(x);
  }
  using Pattern = bool (*)(std::size_t i, std::size_t n);
  const std::pair<const char*, Pattern> patterns[] = {
      {"none", [](std::size_t, std::size_t) { return false; }},
      {"first", [](std::size_t i, std::size_t) { return i == 0; }},
      {"last", [](std::size_t i, std::size_t n) { return i == n - 1; }},
      {"middle", [](std::size_t i, std::size_t n) { return i == n / 2; }},
      {"two adjacent",
       [](std::size_t i, std::size_t n) {
         return i == n / 2 || i + 1 == n / 2;
       }},
      {"opposite halves",
       [](std::size_t i, std::size_t n) {
         return i == n / 4 || i == n / 2 + n / 4;
       }},
      {"every other", [](std::size_t i, std::size_t) { return i % 2 == 0; }},
      {"all", [](std::size_t, std::size_t) { return true; }},
  };
  for (const std::size_t n : {1, 2, 3, 7, 8, 63, 64, 65}) {
    for (const auto& [name, forged] : patterns) {
      for (const bool with_infinity : {false, true}) {
        std::vector<proto::SchnorrTranscript> ts(pool.begin(),
                                                 pool.begin() + n);
        for (std::size_t i = 0; i < n; ++i) {
          if (forged(i, n))
            ts[i].response =
                c.scalar_ring().add(ts[i].response, Scalar{1u + i});
          // Infinity commitments are refused outright, forged or not.
          if (with_infinity && i % 5 == 2)
            ts[i].commitment = Point::at_infinity();
        }
        const auto out = engine::schnorr_verify_batch(
            c, ts, std::span(keys).first(n), rng);
        ASSERT_EQ(out.ok.size(), n);
        bool live_forgery = false;
        for (std::size_t i = 0; i < n; ++i) {
          const bool single = proto::schnorr_verify(c, keys[i], ts[i]);
          EXPECT_EQ(out.ok[i], single)
              << "n=" << n << " " << name << " inf=" << with_infinity
              << " item " << i;
          live_forgery |= !single && !ts[i].commitment.infinity;
        }
        EXPECT_EQ(out.rlc_passed, !live_forgery)
            << "n=" << n << " " << name << " inf=" << with_infinity;
        if (out.rlc_passed) {
          EXPECT_EQ(out.isolation_msms, 0u);
        }
      }
    }
  }
}

TEST(BatchVerifierQueue, FlushesAtBatchSizeAndOnDemand) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(8);
  engine::SchnorrBatchVerifier q(c, 4);
  std::atomic<int> accepted{0}, rejected{0};
  const auto submit = [&](bool forge) {
    const auto kp = proto::schnorr_keygen(c, rng);
    proto::SchnorrProver prover(c, kp, rng);
    proto::SchnorrVerifier verifier(c, kp.X, rng,
                                    proto::SchnorrVerifier::Mode::kDeferred);
    proto::Transcript transcript;
    ASSERT_TRUE(proto::drive_session(prover, verifier, transcript));
    engine::PendingTranscript p;
    p.X = forge ? proto::schnorr_keygen(c, rng).X : kp.X;
    p.commitment_wire = verifier.commitment_wire();
    p.challenge = verifier.challenge();
    p.response = verifier.response();
    p.on_result = [&](bool ok) { ++(ok ? accepted : rejected); };
    q.enqueue(std::move(p));
  };
  for (int i = 0; i < 9; ++i) submit(/*forge=*/false);
  // 9 items, batch 4: two flushes fired, one item pending.
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(accepted.load(), 8);
  submit(/*forge=*/true);
  q.flush();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(accepted.load(), 9);
  EXPECT_EQ(rejected.load(), 1);
  const auto st = q.stats();
  EXPECT_EQ(st.items, 10u);
  EXPECT_EQ(st.batches, 3u);
  EXPECT_EQ(st.accepted, 9u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.rlc_failures, 1u);
}

TEST(BatchVerifierQueue, CountsIsolationMsms) {
  // One forgery among 64 costs one isolation MSM per halving (over 32,
  // 16, 8, 4, 2 and 1 items); a forged batch of one is settled by its
  // failed RLC check alone.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(9);
  const auto pending = [&](bool forge) {
    const auto [t, x] = honest_transcript(c, rng);
    engine::PendingTranscript p;
    p.X = x;
    p.commitment_wire = proto::encode_point(c, t.commitment);
    p.challenge = t.challenge;
    p.response =
        forge ? c.scalar_ring().add(t.response, Scalar{1}) : t.response;
    return p;
  };
  engine::SchnorrBatchVerifier q64(c, 64);
  for (int i = 0; i < 64; ++i) q64.enqueue(pending(i == 41));
  auto st = q64.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.rlc_failures, 1u);
  EXPECT_EQ(st.single_fallbacks, 6u);

  engine::SchnorrBatchVerifier q1(c, 1);
  q1.enqueue(pending(true));
  st = q1.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.rlc_failures, 1u);
  EXPECT_EQ(st.single_fallbacks, 0u);
}

// --- negative paths ----------------------------------------------------------

TEST(BatchVerify, AllForgedBatchRejectsEveryItem) {
  // The RLC equation fails and the bisection runs down to every leaf —
  // with *every* item forged (wrong keys), nothing may slip through on the
  // strength of the batch: 8 forged items, 8 rejections, 1 RLC failure.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(20);
  engine::SchnorrBatchVerifier q(c, 8);
  std::atomic<int> accepted{0}, rejected{0};
  for (int i = 0; i < 8; ++i) {
    const auto kp = proto::schnorr_keygen(c, rng);
    proto::SchnorrProver prover(c, kp, rng);
    proto::SchnorrVerifier verifier(c, kp.X, rng,
                                    proto::SchnorrVerifier::Mode::kDeferred);
    proto::Transcript transcript;
    ASSERT_TRUE(proto::drive_session(prover, verifier, transcript));
    engine::PendingTranscript p;
    p.X = proto::schnorr_keygen(c, rng).X;  // wrong key: forged
    p.commitment_wire = verifier.commitment_wire();
    p.challenge = verifier.challenge();
    p.response = verifier.response();
    p.on_result = [&](bool ok) { ++(ok ? accepted : rejected); };
    q.enqueue(std::move(p));
  }
  q.flush();
  EXPECT_EQ(accepted.load(), 0);
  EXPECT_EQ(rejected.load(), 8);
  EXPECT_EQ(q.stats().rlc_failures, 1u);
  // One isolation MSM per failing run of two or more items: 4 + 2 + 1.
  EXPECT_EQ(q.stats().single_fallbacks, 7u);
}

// --- device registry ---------------------------------------------------------

TEST(DeviceRegistry, DoubleEnrollIsRejected) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(21);
  engine::DeviceRegistry reg(c);
  const auto kp = proto::schnorr_keygen(c, rng);
  const auto idx = reg.enroll(kp.X);
  EXPECT_EQ(reg.admit(idx), kp.X);
  EXPECT_THROW(reg.enroll(kp.X), std::invalid_argument);
  // A different key still enrolls, in the next slot: the rejected attempt
  // took none.
  EXPECT_EQ(reg.enroll(proto::schnorr_keygen(c, rng).X), idx + 1);
  EXPECT_FALSE(reg.admit(idx + 2).has_value());
}

TEST(DeviceRegistry, InvalidKeyIsRejectedAtEnroll) {
  const Curve& c = Curve::k163();
  engine::DeviceRegistry reg(c);
  // The order-2 point (0, sqrt(b)) is on the curve but outside the
  // prime-order subgroup; infinity is no key at all.
  EXPECT_THROW(reg.enroll(Point::affine(Fe::zero(), Fe::sqrt(c.b()))),
               std::invalid_argument);
  EXPECT_THROW(reg.enroll(Point::at_infinity()), std::invalid_argument);
  // Nothing was enrolled, and unknown devices are refused.
  EXPECT_FALSE(reg.admit(0).has_value());
  EXPECT_FALSE(reg.quarantined(0));
}

}  // namespace
