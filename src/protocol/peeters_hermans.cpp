#include "protocol/peeters_hermans.h"

#include <utility>

#include "ecc/fixed_base.h"
#include "ecc/ladder.h"
#include "ecc/scalar_mult.h"
#include "protocol/snapshot.h"
#include "protocol/tag_mult.h"

namespace medsec::protocol {

namespace {
using ecc::Curve;
using ecc::Point;
using ecc::Scalar;
}  // namespace

PhReader ph_setup_reader(const Curve& curve, rng::RandomSource& rng) {
  PhReader r;
  r.y = rng.uniform_nonzero(curve.order());
  r.Y = ecc::generator_comb(curve).mult_ct(r.y);
  return r;
}

PhTag ph_register_tag(const Curve& curve, PhReader& reader,
                      rng::RandomSource& rng) {
  PhTag t;
  t.x = rng.uniform_nonzero(curve.order());
  t.Y = reader.Y;
  t.registered_index = reader.db.size();
  reader.db.push_back(ecc::generator_comb(curve).mult_ct(t.x));
  return t;
}

PhTagSession ph_tag_commit(const Curve& curve,
                           [[maybe_unused]] const PhTag& tag,
                           rng::RandomSource& rng, EnergyLedger& ledger,
                           sidechannel::HardenedLadder* hardened) {
  PhTagSession s;
  s.r = rng.uniform_nonzero(curve.order());
  ledger.rng_bits += 163;
  s.commitment = tag_mult(curve, s.r, kGenerator, rng, &ledger, hardened);
  return s;
}

Scalar ph_tag_respond(const Curve& curve, const PhTag& tag,
                      const PhTagSession& session, const Scalar& challenge,
                      rng::RandomSource& rng, EnergyLedger& ledger,
                      sidechannel::HardenedLadder* hardened) {
  const auto& ring = curve.scalar_ring();
  // d = xcoord(r·Y): the second (and last) heavy operation on the tag.
  const Point ry = tag_mult(curve, session.r, &tag.Y, rng, &ledger, hardened);
  const Scalar d = fe_to_scalar_mod_order(curve, ry.x);
  // s = d + x + e·r — one modular multiplication, two additions (§4's
  // "two point multiplications and one modular multiplication").
  const Scalar er = ring.mul(challenge, session.r);
  ++ledger.modmul;
  const Scalar s = ring.add(ring.add(d, tag.x), er);
  ledger.modadd += 2;
  return s;
}

namespace {

/// The gate on R_c that runs before the reader touches its key.
bool commitment_ok(const Curve& curve, const Point& rc) {
  return !rc.infinity && curve.validate_subgroup_point(rc);
}

/// Identification once x(y·R_c) is in hand: d' = xcoord(y·R_c),
/// X^ = (s − d')·P − e·R_c via Shamir's trick, then the DB lookup. The
/// inline path and the deferred reader's job both end here.
std::optional<std::size_t> identify_from(const Curve& curve,
                                         const PhReader& reader,
                                         const PhTranscript& t,
                                         const std::optional<ecc::Fe>& yr_x) {
  if (!yr_x) return std::nullopt;
  const Scalar d = fe_to_scalar_mod_order(curve, *yr_x);
  const auto& ring = curve.scalar_ring();
  const Point x_hat =
      ecc::double_scalar_mult(curve, ring.sub(t.response, d),
                              curve.base_point(), ring.neg(t.challenge),
                              t.commitment);
  for (std::size_t i = 0; i < reader.db.size(); ++i)
    if (reader.db[i] == x_hat) return i;
  return std::nullopt;
}

}  // namespace

std::optional<std::size_t> ph_reader_identify(const Curve& curve,
                                              const PhReader& reader,
                                              const PhTranscript& t) {
  if (!commitment_ok(curve, t.commitment)) return std::nullopt;
  return identify_from(curve, reader, t,
                       ecc::ladder_x(curve, reader.y, t.commitment));
}

// --- state machines ----------------------------------------------------------

PhTagMachine::PhTagMachine(const Curve& curve, PhTag tag,
                           rng::RandomSource& rng,
                           sidechannel::HardenedLadder* hardened)
    : curve_(&curve), tag_(std::move(tag)), rng_(&rng),
      hardened_(hardened) {}

StepResult PhTagMachine::start() {
  session_ = ph_tag_commit(*curve_, tag_, *rng_, ledger_, hardened_);
  committed_ = true;
  Message m{kLabelCommitment, encode_point(*curve_, session_.commitment)};
  ledger_.tx_bits += m.bits();
  return step(StepResult::wait(std::move(m)));
}

StepResult PhTagMachine::on_message(const Message& m) {
  if (!committed_ || m.payload.size() != kFeBytes)
    return step(StepResult::failed());
  ledger_.rx_bits += m.bits();
  const Scalar e = decode_scalar(m.payload);
  const Scalar s =
      ph_tag_respond(*curve_, tag_, session_, e, *rng_, ledger_, hardened_);
  Message out{kLabelResponse, encode_scalar(s)};
  ledger_.tx_bits += out.bits();
  return step(StepResult::done(std::move(out)));
}

void PhTagMachine::snapshot(SnapshotWriter& w) const {
  SessionMachine::snapshot(w);
  w.scalar(session_.r);
  w.point(session_.commitment);
  w.boolean(committed_);
  w.ledger(ledger_);
}

void PhTagMachine::restore(SnapshotReader& r) {
  SessionMachine::restore(r);
  session_.r = r.scalar();
  session_.commitment = r.point();
  committed_ = r.boolean();
  r.ledger(ledger_);
}

PhReaderMachine::PhReaderMachine(const Curve& curve, const PhReader& reader,
                                 rng::RandomSource& rng, VerdictMode mode)
    : curve_(&curve), reader_(&reader), rng_(&rng), mode_(mode) {}

StepResult PhReaderMachine::on_message(const Message& m) {
  if (!have_commitment_) {
    have_commitment_ = true;
    const auto p = decode_point(*curve_, m.payload);
    if (!p) return step(StepResult::failed());
    view_.commitment = *p;
    view_.challenge = rng_->uniform_nonzero(curve_->order());
    return step(StepResult::wait(
        Message{kLabelChallenge, encode_scalar(view_.challenge)}));
  }
  if (m.payload.size() != kFeBytes) return step(StepResult::failed());
  view_.response = decode_scalar(m.payload);
  if (mode_ == VerdictMode::kInline) {
    identity_ = ph_reader_identify(*curve_, *reader_, view_);
  } else if (commitment_ok(*curve_, view_.commitment)) {
    job_ = LadderJob{reader_->y, view_.commitment,
                     [curve = curve_, reader = reader_,
                      t = view_](const std::optional<ecc::Fe>& x) {
                       return identify_from(*curve, *reader, t, x)
                           .has_value();
                     }};
  }
  return step(StepResult::done());
}

void PhReaderMachine::snapshot(SnapshotWriter& w) const {
  SessionMachine::snapshot(w);
  w.boolean(have_commitment_);
  w.boolean(identity_.has_value());
  w.u64(identity_.value_or(0));
  w.point(view_.commitment);
  w.scalar(view_.challenge);
  w.scalar(view_.response);
}

void PhReaderMachine::restore(SnapshotReader& r) {
  SessionMachine::restore(r);
  have_commitment_ = r.boolean();
  const bool has_identity = r.boolean();
  const std::uint64_t idx = r.u64();
  identity_ = has_identity
                  ? std::optional<std::size_t>(static_cast<std::size_t>(idx))
                  : std::nullopt;
  view_.commitment = r.point();
  view_.challenge = r.scalar();
  view_.response = r.scalar();
}

PhSessionResult run_ph_session(const Curve& curve, const PhTag& tag,
                               const PhReader& reader,
                               rng::RandomSource& rng) {
  PhSessionResult out;
  PhTagMachine tag_sm(curve, tag, rng);
  PhReaderMachine reader_sm(curve, reader, rng);
  drive_session(tag_sm, reader_sm, out.transcript);
  out.tag_ledger = tag_sm.ledger();
  out.view = reader_sm.view();
  out.identity = reader_sm.identity();
  out.identified = out.identity.has_value();
  return out;
}

}  // namespace medsec::protocol
