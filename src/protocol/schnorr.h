// schnorr.h — Schnorr identification (the paper's traceability baseline).
//
// §4: "not all PKC-based protocols achieve strong privacy. For example,
// tags using the Schnorr identification protocol can be easily traced."
// The protocol proves knowledge of x with X = x·P:
//
//   T -> R : R_c = r·P              (commitment)
//   R -> T : e  in Z*_l             (challenge)
//   T -> R : s  = r + e·x mod l     (response)
//   R checks s·P == R_c + e·X.
//
// The traceability defect: anyone who knows a candidate public key X_i
// can test s·P - e·X_i == R_c against a passively observed transcript —
// the privacy game in privacy_game.h exploits exactly this.
#pragma once

#include <cstdint>
#include <vector>

#include "ecc/curve.h"
#include "protocol/energy_ledger.h"
#include "protocol/session.h"
#include "protocol/wire.h"
#include "rng/random_source.h"
#include "sidechannel/countermeasures.h"

namespace medsec::protocol {

struct SchnorrKeyPair {
  ecc::Scalar x;  ///< secret
  ecc::Point X;   ///< public: x·P
};

SchnorrKeyPair schnorr_keygen(const ecc::Curve& curve,
                              rng::RandomSource& rng);

/// A passively observable session transcript.
struct SchnorrTranscript {
  ecc::Point commitment;  ///< R_c
  ecc::Scalar challenge;  ///< e
  ecc::Scalar response;   ///< s
};

struct SchnorrSessionResult {
  bool accepted = false;
  SchnorrTranscript view;     ///< what the air interface carried
  Transcript transcript;      ///< encoded messages (for bit accounting)
  EnergyLedger tag_ledger;
};

/// Tag-side prover state machine:
///   start()          -> commitment R_c = r·P (fixed-base comb, ct)
///   on_message(e)    -> response s = r + e·x, kDone
///
/// Machines are resumable and may long outlive the statement that created
/// them (the engine suspends thousands across a thread pool), so they COPY
/// their small per-session inputs (keys); only the process-lifetime curve
/// and the caller-owned RNG are held by reference.
class SchnorrProver final : public SessionMachine {
 public:
  /// `hardened`: optional engine for the commitment, passed to tag_mult
  /// (tag_mult.h). Caller-owned, must outlive the machine; one engine per
  /// session — HardenedLadder is not thread-safe.
  SchnorrProver(const ecc::Curve& curve, SchnorrKeyPair key,
                rng::RandomSource& rng,
                sidechannel::HardenedLadder* hardened = nullptr);
  StepResult start() override;
  StepResult on_message(const Message& m) override;
  void snapshot(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;
  const EnergyLedger& ledger() const { return ledger_; }

 private:
  const ecc::Curve* curve_;
  SchnorrKeyPair key_;
  rng::RandomSource* rng_;
  sidechannel::HardenedLadder* hardened_;
  ecc::Scalar r_;
  bool committed_ = false;
  EnergyLedger ledger_;
};

/// Reader-side verifier state machine:
///   on_message(R_c) -> challenge e
///   on_message(s)   -> kInline: decide accepted() on the spot (one
///                      interleaved double-scalar multiplication);
///                      kDeferred: finish without verifying and leave the
///                      transcript — with the commitment still
///                      wire-encoded — as deferred(), so the engine's
///                      batched verifier queue can decide acceptance for a
///                      whole batch with one multi-scalar multiplication
///                      and one shared batch inversion for the point
///                      decodings.
class SchnorrVerifier final : public SessionMachine {
 public:
  using Mode = VerdictMode;

  SchnorrVerifier(const ecc::Curve& curve, ecc::Point X,
                  rng::RandomSource& rng, Mode mode = Mode::kInline);
  StepResult on_message(const Message& m) override;
  bool accepted() const override { return accepted_; }
  std::optional<DeferredWork> deferred() const override;
  void snapshot(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;

  /// Decoded view (kInline; the commitment point is only decoded inline).
  SchnorrTranscript view() const {
    return {commitment_, claim_.challenge, claim_.response};
  }
  /// The transcript as received, in either mode.
  const std::vector<std::uint8_t>& commitment_wire() const {
    return claim_.commitment_wire;
  }
  const ecc::Scalar& challenge() const { return claim_.challenge; }
  const ecc::Scalar& response() const { return claim_.response; }
  const ecc::Point& public_key() const { return claim_.X; }

 private:
  const ecc::Curve* curve_;
  rng::RandomSource* rng_;
  Mode mode_;
  bool have_commitment_ = false;
  bool accepted_ = false;
  /// The transcript, kept once: the accessors above read it, and a
  /// deferred verifier hands out a copy.
  SchnorrClaim claim_;
  ecc::Point commitment_;  ///< R_c decoded (kInline only)
};

/// Run one honest session between a tag holding `key` and a verifier that
/// knows X — a thin driver over the two state machines above. The tag's
/// point multiplications go through the constant-time comb; its scalar
/// arithmetic through the curve's order ring.
SchnorrSessionResult run_schnorr_session(const ecc::Curve& curve,
                                         const SchnorrKeyPair& key,
                                         rng::RandomSource& rng);

/// Verifier equation (also the adversary's tracing test): checks
/// s·P − e·X == R_c with one interleaved double-scalar multiplication
/// (Shamir's trick) instead of two independent scalar multiplications
/// plus an addition.
bool schnorr_verify(const ecc::Curve& curve, const ecc::Point& X,
                    const SchnorrTranscript& t);

/// The tracing test: does this transcript belong to public key X?
/// For Schnorr this is *the same equation* as verification — which is
/// precisely why the protocol is traceable.
inline bool schnorr_links(const ecc::Curve& curve, const ecc::Point& X,
                          const SchnorrTranscript& t) {
  return schnorr_verify(curve, X, t);
}

}  // namespace medsec::protocol
