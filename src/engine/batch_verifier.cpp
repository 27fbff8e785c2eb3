#include "engine/batch_verifier.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <variant>

#include "ecc/point_arith.h"
#include "ecc/scalar_mult.h"
#include "protocol/wire.h"

namespace medsec::engine {

namespace {
using ecc::Curve;
using ecc::Point;
using ecc::Scalar;

/// The keys that two or more live items share, each folded into one base
/// of the MSM table: bases[0] is the generator, bases[b] for b >= 1 the
/// negation of the b-th shared key (the most used first, ties by first
/// use; at most MsmTable::kMaxBases - 1 of them), and base_of[j] is live
/// item j's base, or 0 when its key keeps its own term. Keys are whole
/// points: X and −X share x but not y, so they are two keys.
struct KeyFold {
  std::vector<Point> bases;
  std::vector<std::size_t> base_of;
};

KeyFold fold_shared_keys(const Curve& curve, std::span<const Point> keys,
                         std::span<const std::size_t> live) {
  const std::size_t m = live.size();
  KeyFold fold{{curve.base_point()}, std::vector<std::size_t>(m, 0)};

  // Items sorted by key (stable: each group leads with its first use).
  using Words = std::array<std::uint64_t, 7>;
  std::vector<Words> words(m);
  for (std::size_t j = 0; j < m; ++j) {
    const Point& key = keys[live[j]];
    if (key.infinity) {
      words[j] = {1, 0, 0, 0, 0, 0, 0};
    } else {
      words[j] = {0,           key.x.limb(0), key.x.limb(1), key.x.limb(2),
                  key.y.limb(0), key.y.limb(1), key.y.limb(2)};
    }
  }
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return words[a] < words[b];
                   });

  struct Group {
    std::size_t begin, end;  ///< its items: order[begin, end)
  };
  std::vector<Group> shared;
  for (std::size_t g = 0; g < m;) {
    std::size_t e = g + 1;
    while (e < m && words[order[e]] == words[order[g]]) ++e;
    if (e - g >= 2) shared.push_back({g, e});
    g = e;
  }
  std::sort(shared.begin(), shared.end(), [&](const Group& a, const Group& b) {
    if (a.end - a.begin != b.end - b.begin)
      return a.end - a.begin > b.end - b.begin;
    return order[a.begin] < order[b.begin];
  });
  if (shared.size() > ecc::MsmTable::kMaxBases - 1)
    shared.resize(ecc::MsmTable::kMaxBases - 1);
  for (const Group& g : shared) {
    for (std::size_t k = g.begin; k < g.end; ++k)
      fold.base_of[order[k]] = fold.bases.size();
    fold.bases.push_back(curve.negate(keys[live[order[g.begin]]]));
  }
  return fold;
}

}  // namespace

std::vector<std::optional<Point>> decode_points_batch(
    const Curve& curve, const std::vector<std::vector<std::uint8_t>>& encoded) {
  std::vector<std::optional<Point>> out(encoded.size());

  // Parse every entry as decode_point does; the field work (one shared
  // inversion, root selection, subgroup gate) then runs in one call on one
  // field backend.
  std::vector<std::size_t> index;
  std::vector<Curve::Compressed> slots;
  index.reserve(encoded.size());
  slots.reserve(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    if (const auto c = protocol::parse_point(encoded[i])) {
      index.push_back(i);
      slots.push_back(*c);
    }
  }

  const auto points = gf2m::with_field_ops([&]<class Ops>(Ops) {
    return ecc::PointArith<Ops>::decode_batch(curve, slots);
  });
  for (std::size_t s = 0; s < slots.size(); ++s) out[index[s]] = points[s];
  return out;
}

BatchVerifyOutcome schnorr_verify_batch(
    const Curve& curve,
    std::span<const protocol::SchnorrTranscript> transcripts,
    std::span<const Point> keys, rng::RandomSource& rng) {
  if (transcripts.size() != keys.size())
    throw std::invalid_argument("schnorr_verify_batch: size mismatch");
  const std::size_t n = transcripts.size();
  BatchVerifyOutcome out;
  out.ok.assign(n, false);
  if (n == 0) return out;
  std::vector<bool>& ok = out.ok;

  const auto& ring = curve.scalar_ring();

  // Random linear combination over the live items j (the ones with a
  // finite commitment), with D_j = s_j·P − R_j − e_j·X_j:
  //   sum_j c_j·D_j = (sum c_j s_j)·P − sum c_j·R_j − sum (c_j e_j)·X_j.
  std::vector<std::size_t> live;  // indices folded into the combination
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!transcripts[i].commitment.infinity) live.push_back(i);
  if (live.empty()) return out;  // infinity commitments: rejected outright
  const std::size_t m = live.size();

  // Item j owns the terms [first_term[j], first_term[j + 1]) of one MSM
  // table: c_j·(−R_j), then (c_j e_j)·(−X_j) unless X_j is shared. A
  // shared key is one base of the table, (sum c_j e_j)·(−X) over the items
  // under it, as P is with sum c_j s_j. So the sum over any run of items
  // is one evaluation, whose base scalars are differences of the prefix
  // sums: prefix[j * nb + b] sums base b's scalars over the items < j.
  // Nonzero 64-bit coefficients keep the R_j terms short (64 add rows in
  // the interleaved MSM) at a 2^-64 per-check forgery bound.
  const KeyFold fold = fold_shared_keys(curve, keys, live);
  const std::size_t nb = fold.bases.size();
  std::vector<ecc::MsmTerm> terms;
  terms.reserve(2 * m);
  std::vector<std::size_t> first_term(m + 1);
  std::vector<Scalar> prefix((m + 1) * nb);
  for (std::size_t j = 0; j < m; ++j) {
    std::uint64_t c64;
    do {
      c64 = rng.next_u64();
    } while (c64 == 0);
    const Scalar c{c64};
    const protocol::SchnorrTranscript& t = transcripts[live[j]];
    const Scalar ce = ring.mul(c, t.challenge);
    first_term[j] = terms.size();
    terms.push_back({c, curve.negate(t.commitment)});
    const Scalar* row = prefix.data() + j * nb;
    Scalar* next = prefix.data() + (j + 1) * nb;
    std::copy_n(row, nb, next);
    next[0] = ring.add(row[0], ring.mul(c, t.response));
    if (const std::size_t b = fold.base_of[j]; b != 0)
      next[b] = ring.add(row[b], ce);
    else
      terms.push_back({ce, curve.negate(keys[live[j]])});
  }
  first_term[m] = terms.size();
  const ecc::MsmTable table(curve, terms, fold.bases);
  const auto run_sum = [&](std::size_t lo, std::size_t hi) {
    std::array<Scalar, ecc::MsmTable::kMaxBases> ks;
    for (std::size_t b = 0; b < nb; ++b)
      ks[b] = ring.sub(prefix[hi * nb + b], prefix[lo * nb + b]);
    return table.sum(first_term[lo], first_term[hi],
                     std::span(ks.data(), nb));
  };

  // Bisection (Pastuszak, Michałek, Pieprzyk and Seberry, PKC 2000): a
  // run whose sum is O is accepted; a failing run of two or more items
  // costs one MSM for its left half, and its right half's sum is the run's
  // minus the left's. Every point is in the prime-order subgroup and
  // c_j != 0, so c_j·D_j = O exactly when item j verifies: a one-item run
  // IS the single verdict. Each check is itself an RLC whose coefficients
  // were drawn after the transcripts were fixed, so a run holding a
  // forgery passes with probability <= 2^-64, over at most 2m − 1 checks
  // for m live items.
  struct Run {
    std::size_t lo, hi;
    Point sum;
  };
  std::vector<Run> runs{{0, m, run_sum(0, m)}};
  out.rlc_passed = runs.front().sum.infinity;
  while (!runs.empty()) {
    const Run r = runs.back();
    runs.pop_back();
    if (r.sum.infinity) {
      for (std::size_t j = r.lo; j < r.hi; ++j) ok[live[j]] = true;
    } else if (r.hi - r.lo > 1) {
      const std::size_t mid = r.lo + (r.hi - r.lo) / 2;
      const Point left = run_sum(r.lo, mid);
      ++out.isolation_msms;
      runs.push_back({mid, r.hi, curve.add(r.sum, curve.negate(left))});
      runs.push_back({r.lo, mid, left});
    }
  }
  return out;
}

SchnorrBatchVerifier::SchnorrBatchVerifier(const Curve& curve,
                                           std::size_t batch_size,
                                           std::uint64_t rlc_seed)
    : curve_(&curve),
      batch_size_(batch_size == 0 ? 1 : batch_size),
      rng_(rlc_seed) {}

void SchnorrBatchVerifier::enqueue(DeferredCheck check) {
  if (std::holds_alternative<protocol::SchnorrClaim>(check.work)) {
    queue_.push_back(std::move(check));
    stats_.add<&BatchVerifierStats::items>();
  } else {
    ladders_.push_back(std::move(check));
    stats_.add<&BatchVerifierStats::ladders>();
  }
  drain(batch_size_);
}

void SchnorrBatchVerifier::enqueue(PendingTranscript t) {
  enqueue(DeferredCheck{
      protocol::SchnorrClaim{t.X, std::move(t.commitment_wire), t.challenge,
                             t.response},
      std::move(t.on_result)});
}

void SchnorrBatchVerifier::flush() { drain(1); }

void SchnorrBatchVerifier::drain(std::size_t min_items) {
  const std::size_t n = pending();
  if (n == 0 || n < min_items) return;
  // Swap out first: a callback that enqueues fills the fresh queues.
  std::vector<DeferredCheck> ts;
  std::vector<DeferredCheck> ls;
  ts.swap(queue_);
  ls.swap(ladders_);
  if (!ts.empty()) verify_transcripts(ts);
  if (!ls.empty()) run_ladders(ls);
}

void SchnorrBatchVerifier::verify_transcripts(
    std::vector<DeferredCheck>& batch) {
  // Shared-inversion decode of every commitment in the batch.
  std::vector<std::vector<std::uint8_t>> wires;
  wires.reserve(batch.size());
  for (auto& t : batch)
    wires.push_back(
        std::move(std::get<protocol::SchnorrClaim>(t.work).commitment_wire));
  const auto points = decode_points_batch(*curve_, wires);

  std::vector<protocol::SchnorrTranscript> transcripts;
  std::vector<Point> keys;
  std::vector<std::size_t> origin;  // batch index per live transcript
  std::size_t decode_failures = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!points[i]) {
      ++decode_failures;
      continue;
    }
    const auto& claim = std::get<protocol::SchnorrClaim>(batch[i].work);
    transcripts.push_back(protocol::SchnorrTranscript{
        *points[i], claim.challenge, claim.response});
    keys.push_back(claim.X);
    origin.push_back(i);
  }

  const BatchVerifyOutcome outcome =
      schnorr_verify_batch(*curve_, transcripts, keys, rng_);

  std::vector<bool> accepted(batch.size(), false);
  for (std::size_t j = 0; j < origin.size(); ++j)
    accepted[origin[j]] = outcome.ok[j];

  std::size_t n_accepted = 0;
  for (const bool a : accepted) n_accepted += a ? 1 : 0;
  stats_.add<&BatchVerifierStats::batches>();
  stats_.add<&BatchVerifierStats::accepted>(n_accepted);
  stats_.add<&BatchVerifierStats::rejected>(batch.size() - n_accepted);
  stats_.add<&BatchVerifierStats::decode_failures>(decode_failures);
  if (!outcome.rlc_passed) {
    stats_.add<&BatchVerifierStats::rlc_failures>();
    stats_.add<&BatchVerifierStats::single_fallbacks>(outcome.isolation_msms);
  }

  for (std::size_t i = 0; i < batch.size(); ++i)
    if (batch[i].on_result) batch[i].on_result(accepted[i]);
}

void SchnorrBatchVerifier::run_ladders(std::vector<DeferredCheck>& batch) {
  // One lane batch over every job whose point the ladder accepts; any
  // other point is refused without running (the machines gate theirs, so
  // only a hand-built job gets here).
  std::vector<ecc::Scalar> ks;
  std::vector<ecc::Point> qs;
  std::vector<std::size_t> origin;  // batch index per ladder input
  ks.reserve(batch.size());
  qs.reserve(batch.size());
  origin.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& job = std::get<protocol::LadderJob>(batch[i].work);
    if (job.q.infinity || job.q.x.is_zero()) continue;
    ks.push_back(job.k);
    qs.push_back(job.q);
    origin.push_back(i);
  }
  std::vector<std::optional<ecc::Fe>> xs(origin.size());
  ecc::ladder_x_many(*curve_, ks.data(), qs.data(), ks.size(), ladder_ws_,
                     xs.data());

  // The continuations: a throw refuses its own session only.
  std::vector<bool> accepted(batch.size(), false);
  for (std::size_t j = 0; j < origin.size(); ++j) {
    try {
      accepted[origin[j]] =
          std::get<protocol::LadderJob>(batch[origin[j]].work).finish(xs[j]);
    } catch (const std::exception&) {
      accepted[origin[j]] = false;
    }
  }

  std::size_t n_accepted = 0;
  for (const bool a : accepted) n_accepted += a ? 1 : 0;
  stats_.add<&BatchVerifierStats::ladder_batches>();
  stats_.add<&BatchVerifierStats::ladders_rejected>(batch.size() - n_accepted);

  for (std::size_t i = 0; i < batch.size(); ++i)
    if (batch[i].on_result) batch[i].on_result(accepted[i]);
}

}  // namespace medsec::engine
