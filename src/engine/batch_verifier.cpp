#include "engine/batch_verifier.h"

#include <stdexcept>
#include <utility>
#include <variant>

#include "ecc/point_arith.h"
#include "ecc/scalar_mult.h"
#include "protocol/wire.h"

namespace medsec::engine {

namespace {
using ecc::Curve;
using ecc::Fe;
using ecc::Point;
using ecc::Scalar;
}  // namespace

std::vector<std::optional<Point>> decode_points_batch(
    const Curve& curve, const std::vector<std::vector<std::uint8_t>>& encoded) {
  std::vector<std::optional<Point>> out(encoded.size());

  // Parse prefix + x of every well-formed entry; the field work (one
  // shared inversion, root selection, subgroup gate) then runs in one
  // call on one field backend.
  std::vector<std::size_t> index;
  std::vector<Curve::Compressed> slots;
  index.reserve(encoded.size());
  slots.reserve(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    const auto& bytes = encoded[i];
    if (bytes.size() != 1 + protocol::kFeBytes) continue;
    if (bytes[0] != 0x02 && bytes[0] != 0x03) continue;  // incl. infinity
    Fe x;
    try {
      x = protocol::decode_fe({bytes.begin() + 1, bytes.end()});
    } catch (const std::invalid_argument&) {
      continue;
    }
    if (x.is_zero()) continue;  // the order-2 point: never a protocol point
    index.push_back(i);
    slots.push_back(Curve::Compressed{x, bytes[0] & 1});
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
  // Item j owns terms 2j and 2j + 1 of one MSM table, so the sum over any
  // run of items is one evaluation; prefix[j] = sum_{j' < j} c_j' s_j'
  // gives its base-point scalar. Nonzero 64-bit coefficients keep the
  // R_j terms short (64 add rows in the interleaved MSM) at a 2^-64
  // per-check forgery bound.
  std::vector<ecc::MsmTerm> terms;
  terms.reserve(2 * n);
  std::vector<std::size_t> live;  // indices folded into the combination
  live.reserve(n);
  std::vector<Scalar> prefix(1);
  for (std::size_t i = 0; i < n; ++i) {
    if (transcripts[i].commitment.infinity) continue;  // rejected outright
    std::uint64_t c64;
    do {
      c64 = rng.next_u64();
    } while (c64 == 0);
    const Scalar c{c64};
    prefix.push_back(
        ring.add(prefix.back(), ring.mul(c, transcripts[i].response)));
    terms.push_back({c, curve.negate(transcripts[i].commitment)});
    terms.push_back(
        {ring.mul(c, transcripts[i].challenge), curve.negate(keys[i])});
    live.push_back(i);
  }
  if (live.empty()) return out;
  const ecc::MsmTable table(curve, terms, curve.base_point());
  const auto run_sum = [&](std::size_t lo, std::size_t hi) {
    return table.evaluate(2 * lo, 2 * hi, ring.sub(prefix[hi], prefix[lo]));
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
  std::vector<Run> runs{{0, live.size(), run_sum(0, live.size())}};
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
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (std::holds_alternative<protocol::SchnorrClaim>(check.work)) {
      queue_.push_back(std::move(check));
      ++stats_.items;
    } else {
      ladders_.push_back(std::move(check));
      ++stats_.ladders;
    }
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

std::size_t SchnorrBatchVerifier::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + ladders_.size() + in_verify_;
}

BatchVerifierStats SchnorrBatchVerifier::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SchnorrBatchVerifier::drain(std::size_t min_items) {
  std::vector<DeferredCheck> ts;
  std::vector<DeferredCheck> ls;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = queue_.size() + ladders_.size();
    if (n == 0 || n < min_items) return;
    ts.swap(queue_);
    ls.swap(ladders_);
    in_verify_ += n;
  }
  if (!ts.empty()) verify_transcripts(ts);
  if (!ls.empty()) run_ladders(ls);
  // Verdicts delivered: this batch is no longer pending.
  const std::lock_guard<std::mutex> lock(mu_);
  in_verify_ -= ts.size() + ls.size();
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

  BatchVerifyOutcome outcome;
  {
    const std::lock_guard<std::mutex> lock(rng_mu_);
    outcome = schnorr_verify_batch(*curve_, transcripts, keys, rng_);
  }

  std::vector<bool> accepted(batch.size(), false);
  for (std::size_t j = 0; j < origin.size(); ++j)
    accepted[origin[j]] = outcome.ok[j];

  std::size_t n_accepted = 0;
  for (const bool a : accepted) n_accepted += a ? 1 : 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.accepted += n_accepted;
    stats_.rejected += batch.size() - n_accepted;
    stats_.decode_failures += decode_failures;
    if (!outcome.rlc_passed) {
      ++stats_.rlc_failures;
      stats_.single_fallbacks += outcome.isolation_msms;
    }
  }

  // Callbacks last, with no locks held.
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
  {
    const std::lock_guard<std::mutex> lock(ladder_mu_);
    ecc::ladder_x_many(*curve_, ks.data(), qs.data(), ks.size(), ladder_ws_,
                       xs.data());
  }

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
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.ladder_batches;
    stats_.ladders_rejected += batch.size() - n_accepted;
  }

  // Callbacks last, with no locks held.
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (batch[i].on_result) batch[i].on_result(accepted[i]);
}

}  // namespace medsec::engine
