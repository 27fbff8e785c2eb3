// Tests for the engine layer: interleaved multi-scalar multiplication, the
// cofactor-2 fast subgroup gate, batch point decoding, random-linear-
// combination batch verification, and device enrollment. The serving
// stack end to end lives in test_shards.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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
      // one, two or three points whose scalars are supplied per
      // evaluation (the generator first, as the batch verifier passes it).
      // Each run takes base b's scalar or zero, by the run's bounds, so
      // zero scalars meet every run too.
      std::vector<Point> bases{c->base_point()};
      for (std::size_t nb = 1; nb <= 3; ++nb) {
        if (nb > 1) bases.push_back(random_subgroup_point(*c, rng));
        std::vector<Scalar> kb;
        std::vector<Point> kb_p;
        for (const Point& b : bases) {
          kb.push_back(rng.uniform_nonzero(c->order()));
          kb_p.push_back(c->scalar_mult_reference(kb.back(), b));
        }
        const medsec::ecc::MsmTable table(*c, terms, bases);
        for (std::size_t first = 0; first <= n; ++first) {
          Point run = Point::at_infinity();
          for (std::size_t last = first; last <= n; ++last) {
            if (last > first) run = c->add(run, products[last - 1]);
            std::vector<Scalar> ks(nb);
            Point want = run;
            for (std::size_t b = 0; b < nb; ++b) {
              if ((first + last + b) % 3 == 2) continue;  // zero scalar
              ks[b] = kb[b];
              want = c->add(want, kb_p[b]);
            }
            EXPECT_EQ(table.sum(first, last, ks), want)
                << c->name() << " n=" << n << " bases=" << nb << " ["
                << first << ", " << last << ")";
          }
        }
        EXPECT_EQ(table.sum(0, n, std::vector<Scalar>(nb)), expect)
            << c->name();
        EXPECT_THROW(table.sum(0, n + 1, kb), std::out_of_range);
        EXPECT_THROW(table.sum(0, n, std::span(kb).first(nb - 1)),
                     std::invalid_argument);
      }
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
  // An infinite base adds nothing; more than kMaxBases bases is refused.
  const std::vector<Point> bases{Point::at_infinity(), p};
  const medsec::ecc::MsmTable table(c, terms, bases);
  EXPECT_EQ(table.sum(0, terms.size(), std::vector<Scalar>{k, k}),
            c.scalar_mult_reference(c.scalar_ring().add(k, k), p));
  EXPECT_THROW(medsec::ecc::MsmTable(
                   c, terms,
                   std::vector<Point>(medsec::ecc::MsmTable::kMaxBases + 1, p)),
               std::invalid_argument);
}

TEST(Msm, DoubleScalarShamir) {
  // K-163 runs tau-adic, B-163 on the two-term MsmTable.
  for (const Curve* c : {&Curve::k163(), &Curve::b163()}) {
    Xoshiro256 rng(3);
    for (int i = 0; i < 5; ++i) {
      const Point p = random_subgroup_point(*c, rng);
      const Point q = random_subgroup_point(*c, rng);
      const Scalar a = rng.uniform_nonzero(c->order());
      const Scalar b = rng.uniform_nonzero(c->order());
      EXPECT_EQ(medsec::ecc::double_scalar_mult(*c, a, p, b, q),
                c->add(c->scalar_mult_reference(a, p),
                       c->scalar_mult_reference(b, q)))
          << c->name();
    }
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
  for (const Curve* curve : {&Curve::k163(), &Curve::b163()}) {
    const Curve& c = *curve;  // the decoders skip the b multiply on K-163
    Xoshiro256 rng(5);
    std::vector<std::vector<std::uint8_t>> wires;
    // Valid points.
    for (int i = 0; i < 6; ++i)
      wires.push_back(proto::encode_point(c, random_subgroup_point(c, rng)));
    // Every reject class: infinity, bad prefix, truncation, garbage, the
    // order-2 point, a valid prefix with bit 163 of x set, one byte too
    // many. Then random x.
    wires.push_back(std::vector<std::uint8_t>(1 + proto::kFeBytes, 0x00));
    auto bad_prefix = wires[0];
    bad_prefix[0] = 0x07;
    wires.push_back(bad_prefix);
    wires.push_back({0x02, 0xab});
    wires.push_back(std::vector<std::uint8_t>(1 + proto::kFeBytes, 0xff));
    wires.push_back(
        proto::encode_point(c, Point::affine(Fe::zero(), Fe::sqrt(c.b()))));
    auto high_bit = wires[0];
    high_bit[0] = 0x02;
    high_bit[1] |= 0x08;  // x's top byte holds bits 160..167
    wires.push_back(high_bit);
    auto too_long = wires[0];
    too_long.push_back(0x00);  // 23 bytes
    wires.push_back(too_long);
    const std::size_t rejects_end = wires.size();
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
      ASSERT_EQ(batch[i].has_value(), single.has_value())
          << c.name() << " entry " << i;
      if (single) {
        EXPECT_EQ(*batch[i], *single) << c.name() << " entry " << i;
      }
      if (i < 6) {
        EXPECT_TRUE(single.has_value()) << c.name() << " entry " << i;
      } else if (i < rejects_end) {
        EXPECT_FALSE(single.has_value()) << c.name() << " entry " << i;
      }
    }
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
  // batch size, wherever the forgeries sit and however the items share
  // keys (a key two or more items share is one base of the table).
  const Curve& c = Curve::k163();
  Xoshiro256 rng(7);
  const auto a = proto::schnorr_keygen(c, rng);
  const auto b = proto::schnorr_keygen(c, rng);
  // -X = (x, x + y) on a binary curve: the same x as X, another key.
  const proto::SchnorrKeyPair minus_a{c.scalar_ring().neg(a.x),
                                      c.negate(a.X)};
  std::vector<proto::SchnorrKeyPair> sixteen;
  for (int i = 0; i < 16; ++i) sixteen.push_back(proto::schnorr_keygen(c, rng));
  static_assert(medsec::ecc::MsmTable::kMaxBases - 1 < 16);
  using KeyPattern = std::function<proto::SchnorrKeyPair(std::size_t i)>;
  const std::pair<const char*, KeyPattern> key_patterns[] = {
      {"distinct", [&](std::size_t) { return proto::schnorr_keygen(c, rng); }},
      {"one key", [&](std::size_t) { return a; }},
      {"two alternating", [&](std::size_t i) { return i % 2 ? b : a; }},
      {"one repeated among distinct",
       [&](std::size_t i) {
         return i % 3 == 1 ? a : proto::schnorr_keygen(c, rng);
       }},
      {"X and -X alternating",
       [&](std::size_t i) { return i % 2 ? minus_a : a; }},
      // More shared keys than the table has bases: the rest keep their
      // own terms.
      {"sixteen in turn", [&](std::size_t i) { return sixteen[i % 16]; }},
  };
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
  // The bisection's MSM count per (n, forgery pattern, infinity) case,
  // from the first key pattern: it must not depend on how keys are shared.
  std::vector<std::size_t> isolation_msms;
  for (std::size_t kp = 0; kp < std::size(key_patterns); ++kp) {
    const auto& [key_name, key_of] = key_patterns[kp];
    std::vector<proto::SchnorrTranscript> pool;
    std::vector<Point> keys;
    for (std::size_t i = 0; i < 65; ++i) {
      const auto key = key_of(i);
      pool.push_back(proto::run_schnorr_session(c, key, rng).view);
      keys.push_back(key.X);
    }
    // schnorr_verify of item i, by whether it is forged and whether its
    // commitment is infinity: the transcript depends on nothing else.
    std::vector<std::optional<bool>> single_cache(65 * 4);
    std::size_t case_index = 0;
    for (const std::size_t n : {1, 2, 3, 7, 8, 63, 64, 65}) {
      for (const auto& [name, forged] : patterns) {
        for (const bool with_infinity : {false, true}) {
          std::vector<proto::SchnorrTranscript> ts(pool.begin(),
                                                   pool.begin() + n);
          std::vector<bool> single(n);
          for (std::size_t i = 0; i < n; ++i) {
            if (forged(i, n))
              ts[i].response =
                  c.scalar_ring().add(ts[i].response, Scalar{1u + i});
            // Infinity commitments are refused outright, forged or not.
            const bool infinity = with_infinity && i % 5 == 2;
            if (infinity) ts[i].commitment = Point::at_infinity();
            auto& cached = single_cache[4 * i + 2 * forged(i, n) + infinity];
            if (!cached) cached = proto::schnorr_verify(c, keys[i], ts[i]);
            single[i] = *cached;
          }
          const auto out = engine::schnorr_verify_batch(
              c, ts, std::span(keys).first(n), rng);
          const std::string where = std::string(key_name) +
                                    " n=" + std::to_string(n) + " " + name +
                                    " inf=" + std::to_string(with_infinity);
          ASSERT_EQ(out.ok.size(), n);
          bool live_forgery = false;
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(out.ok[i], single[i]) << where << " item " << i;
            live_forgery |= !single[i] && !ts[i].commitment.infinity;
          }
          EXPECT_EQ(out.rlc_passed, !live_forgery) << where;
          if (out.rlc_passed) {
            EXPECT_EQ(out.isolation_msms, 0u) << where;
          }
          if (kp == 0) {
            isolation_msms.push_back(out.isolation_msms);
          } else {
            EXPECT_EQ(out.isolation_msms, isolation_msms[case_index])
                << where;
          }
          ++case_index;
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

TEST(BatchVerifierQueue, CallbackMayEnqueueIntoTheNextFlush) {
  // A flush moves its items out before it decides them, so a callback that
  // enqueues fills the fresh queue: its item waits for the next flush, and
  // pending() counts it alone, not the batch whose callbacks are running.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(10);
  engine::SchnorrBatchVerifier q(c, 2);
  const auto pending = [&](std::function<void(bool)> on_result) {
    const auto [t, x] = honest_transcript(c, rng);
    engine::PendingTranscript p;
    p.X = x;
    p.commitment_wire = proto::encode_point(c, t.commitment);
    p.challenge = t.challenge;
    p.response = t.response;
    p.on_result = std::move(on_result);
    return p;
  };
  std::vector<std::size_t> seen;  // pending() inside each callback
  int late = 0;                   // verdicts of the re-enqueued item
  q.enqueue(pending([&](bool ok) {
    EXPECT_TRUE(ok);
    q.enqueue(pending([&](bool ok2) { late += ok2 ? 1 : -1; }));
    seen.push_back(q.pending());
  }));
  q.enqueue(pending([&](bool ok) {
    EXPECT_TRUE(ok);
    seen.push_back(q.pending());
  }));
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(late, 0);
  q.flush();
  EXPECT_EQ(late, 1);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.stats().batches, 2u);
  EXPECT_EQ(q.stats().accepted, 3u);
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
