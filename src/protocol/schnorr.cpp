#include "protocol/schnorr.h"

#include <utility>

#include "ecc/fixed_base.h"
#include "ecc/scalar_mult.h"
#include "protocol/snapshot.h"
#include "protocol/tag_mult.h"

namespace medsec::protocol {

namespace {
using ecc::Curve;
using ecc::Point;
using ecc::Scalar;

/// s·P − e·X == R_c, assuming R_c was already validated. One interleaved
/// double-scalar multiplication.
bool verify_equation(const Curve& curve, const Point& X,
                     const SchnorrTranscript& t) {
  const Point lhs = ecc::double_scalar_mult(
      curve, t.response, curve.base_point(),
      curve.scalar_ring().neg(t.challenge), X);
  return lhs == t.commitment;
}
}  // namespace

SchnorrKeyPair schnorr_keygen(const Curve& curve, rng::RandomSource& rng) {
  SchnorrKeyPair kp;
  kp.x = rng.uniform_nonzero(curve.order());
  kp.X = ecc::generator_comb(curve).mult_ct(kp.x);
  return kp;
}

// --- prover machine ----------------------------------------------------------

SchnorrProver::SchnorrProver(const Curve& curve, SchnorrKeyPair key,
                             rng::RandomSource& rng,
                             sidechannel::HardenedLadder* hardened)
    : curve_(&curve), key_(std::move(key)), rng_(&rng), hardened_(hardened) {}

StepResult SchnorrProver::start() {
  // T: commitment R_c = r·P, a generator multiplication.
  r_ = rng_->uniform_nonzero(curve_->order());
  ledger_.rng_bits += 163;
  const Point rc =
      tag_mult(*curve_, r_, kGenerator, *rng_, &ledger_, hardened_);
  committed_ = true;
  Message m{kLabelCommitment, encode_point(*curve_, rc)};
  ledger_.tx_bits += m.bits();
  return step(StepResult::wait(std::move(m)));
}

StepResult SchnorrProver::on_message(const Message& m) {
  if (!committed_ || m.payload.size() != kFeBytes)
    return step(StepResult::failed());
  ledger_.rx_bits += m.bits();
  const Scalar e = decode_scalar(m.payload);
  // T: response s = r + e*x mod l.
  const auto& ring = curve_->scalar_ring();
  const Scalar s = ring.add(r_, ring.mul(e, key_.x));
  ++ledger_.modmul;
  ++ledger_.modadd;
  Message out{kLabelResponse, encode_scalar(s)};
  ledger_.tx_bits += out.bits();
  return step(StepResult::done(std::move(out)));
}

void SchnorrProver::snapshot(SnapshotWriter& w) const {
  SessionMachine::snapshot(w);
  w.scalar(r_);
  w.boolean(committed_);
  w.ledger(ledger_);
}

void SchnorrProver::restore(SnapshotReader& r) {
  SessionMachine::restore(r);
  r_ = r.scalar();
  committed_ = r.boolean();
  r.ledger(ledger_);
}

// --- verifier machine --------------------------------------------------------

SchnorrVerifier::SchnorrVerifier(const Curve& curve, Point X,
                                 rng::RandomSource& rng, Mode mode)
    : curve_(&curve), rng_(&rng), mode_(mode) {
  claim_.X = std::move(X);
}

StepResult SchnorrVerifier::on_message(const Message& m) {
  if (!have_commitment_) {
    have_commitment_ = true;
    claim_.commitment_wire = m.payload;
    if (mode_ == Mode::kInline) {
      // Trust boundary: decode + validate the commitment now. Deferred
      // mode leaves both to the batch verifier, which amortizes the
      // decompression inversions across the whole batch.
      const auto p = decode_point(*curve_, m.payload);
      if (!p) return step(StepResult::failed());
      commitment_ = *p;
    }
    claim_.challenge = rng_->uniform_nonzero(curve_->order());
    return step(StepResult::wait(
        Message{kLabelChallenge, encode_scalar(claim_.challenge)}));
  }
  if (m.payload.size() != kFeBytes) return step(StepResult::failed());
  claim_.response = decode_scalar(m.payload);
  if (mode_ == Mode::kInline) {
    accepted_ = verify_equation(*curve_, claim_.X, view());
    return step(accepted_ ? StepResult::done() : StepResult::failed());
  }
  return step(StepResult::done());  // acceptance decided by the batch queue
}

std::optional<DeferredWork> SchnorrVerifier::deferred() const {
  if (mode_ != Mode::kDeferred || state() != SessionState::kDone)
    return std::nullopt;
  return claim_;
}

void SchnorrVerifier::snapshot(SnapshotWriter& w) const {
  SessionMachine::snapshot(w);
  w.boolean(have_commitment_);
  w.boolean(accepted_);
  w.bytes(claim_.commitment_wire);
  w.point(commitment_);
  w.scalar(claim_.challenge);
  w.scalar(claim_.response);
}

void SchnorrVerifier::restore(SnapshotReader& r) {
  SessionMachine::restore(r);
  have_commitment_ = r.boolean();
  accepted_ = r.boolean();
  claim_.commitment_wire = r.bytes();
  commitment_ = r.point();
  claim_.challenge = r.scalar();
  claim_.response = r.scalar();
}

// --- drivers -----------------------------------------------------------------

SchnorrSessionResult run_schnorr_session(const Curve& curve,
                                         const SchnorrKeyPair& key,
                                         rng::RandomSource& rng) {
  SchnorrSessionResult out;
  SchnorrProver prover(curve, key, rng);
  SchnorrVerifier verifier(curve, key.X, rng);
  drive_session(prover, verifier, out.transcript);
  out.tag_ledger = prover.ledger();
  out.view = verifier.view();
  out.accepted = verifier.accepted();
  return out;
}

bool schnorr_verify(const Curve& curve, const Point& X,
                    const SchnorrTranscript& t) {
  if (t.commitment.infinity) return false;
  if (!curve.validate_subgroup_point(t.commitment)) return false;
  return verify_equation(curve, X, t);
}

}  // namespace medsec::protocol
