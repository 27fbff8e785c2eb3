// peeters_hermans.h — the Peeters–Hermans wide-forward-insider private
// identification protocol (the paper's Figure 2).
//
//   Tag state:    x (secret), Y = y·P (reader's public key)
//   Reader state: y (secret), DB = { X_i = x_i·P }
//
//   T -> R : R_c = r·P                      r in Z*_l
//   R -> T : e                              e in Z*_l
//   T -> R : s = d + x + e·r mod l,         d = xcoord(r·Y) as a scalar
//   R:       d' = xcoord(y·R_c);  X^ = s·P - d'·P - e·R_c;  X^ in DB?
//
// Correctness: s·P - d·P - e·r·P = x·P = X. Privacy: without y the
// blinding term d = xcoord(r·Y) is indistinguishable from random, so s
// reveals nothing that links the session to X — unlike Schnorr, where
// s·P - e·X = R_c is publicly checkable.
//
// The tag's workload is the paper's §4 accounting: **two point
// multiplications and one modular multiplication**.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ecc/curve.h"
#include "protocol/energy_ledger.h"
#include "protocol/session.h"
#include "protocol/wire.h"
#include "rng/random_source.h"
#include "sidechannel/countermeasures.h"

namespace medsec::protocol {

struct PhReader {
  ecc::Scalar y;               ///< reader secret
  ecc::Point Y;                ///< reader public key (provisioned to tags)
  std::vector<ecc::Point> db;  ///< registered tag public keys X_i
};

struct PhTag {
  ecc::Scalar x;  ///< tag secret
  ecc::Point Y;   ///< reader public key copy
  std::size_t registered_index = 0;  ///< its DB slot (ground truth)
};

/// Provision a reader (fresh y, empty DB).
PhReader ph_setup_reader(const ecc::Curve& curve, rng::RandomSource& rng);

/// Register a fresh tag with the reader; appends X to the DB.
PhTag ph_register_tag(const ecc::Curve& curve, PhReader& reader,
                      rng::RandomSource& rng);

/// A passively observable session.
struct PhTranscript {
  ecc::Point commitment;  ///< R_c
  ecc::Scalar challenge;  ///< e
  ecc::Scalar response;   ///< s
};

struct PhSessionResult {
  bool identified = false;
  std::optional<std::size_t> identity;  ///< DB index the reader resolved
  PhTranscript view;
  Transcript transcript;
  EnergyLedger tag_ledger;
};

/// Tag half of the protocol: produce R_c, then s for a given challenge.
/// Exposed separately so the privacy game can play adversarial reader.
struct PhTagSession {
  ecc::Scalar r;
  ecc::Point commitment;
};
/// `hardened` (optional, both functions): the engine both of the tag's
/// point multiplications pass to tag_mult (tag_mult.h).
PhTagSession ph_tag_commit(const ecc::Curve& curve, const PhTag& tag,
                           rng::RandomSource& rng, EnergyLedger& ledger,
                           sidechannel::HardenedLadder* hardened = nullptr);
ecc::Scalar ph_tag_respond(const ecc::Curve& curve, const PhTag& tag,
                           const PhTagSession& session,
                           const ecc::Scalar& challenge,
                           rng::RandomSource& rng, EnergyLedger& ledger,
                           sidechannel::HardenedLadder* hardened = nullptr);

/// Reader half: resolve a transcript against the DB. d' = xcoord(y·R_c)
/// comes from the constant-time x-only ladder (ecc::ladder_x), since y is
/// the reader's long-term secret; the candidate X^ = (s − d')·P − e·R_c
/// from one interleaved double-scalar multiplication (Shamir's trick) over
/// public scalars.
std::optional<std::size_t> ph_reader_identify(const ecc::Curve& curve,
                                              const PhReader& reader,
                                              const PhTranscript& t);

/// Tag-side state machine: start() -> R_c, on_message(e) -> s, kDone.
/// Thin resumable shell over ph_tag_commit / ph_tag_respond (which stay
/// public: the privacy game drives them directly as adversarial reader).
/// Copies the tag's credentials: a suspended machine may outlive the
/// statement that created it.
class PhTagMachine final : public SessionMachine {
 public:
  PhTagMachine(const ecc::Curve& curve, PhTag tag, rng::RandomSource& rng,
               sidechannel::HardenedLadder* hardened = nullptr);
  StepResult start() override;
  StepResult on_message(const Message& m) override;
  void snapshot(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;
  const EnergyLedger& ledger() const { return ledger_; }

 private:
  const ecc::Curve* curve_;
  PhTag tag_;
  rng::RandomSource* rng_;
  sidechannel::HardenedLadder* hardened_;
  PhTagSession session_;
  bool committed_ = false;
  EnergyLedger ledger_;
};

/// Reader-side state machine: on_message(R_c) -> e, on_message(s) ->
/// kDone, with
///   kInline:   identify against the DB on the spot (identity() may still
///              be nullopt — an unidentified tag completes the protocol
///              but resolves to nothing);
///   kDeferred: gate R_c, then leave y·R_c and the rest of the
///              identification to the host as deferred(), a LadderJob
///              whose verdict is "identified"; identity() stays nullopt.
///              A commitment that fails the gate leaves no job: the
///              verdict is accepted(), unidentified.
/// The reader (with its whole key DB) is held by reference and must
/// outlive the machine — and, in deferred mode, its job — since it is the
/// long-lived server-side state.
class PhReaderMachine final : public SessionMachine {
 public:
  PhReaderMachine(const ecc::Curve& curve, const PhReader& reader,
                  rng::RandomSource& rng,
                  VerdictMode mode = VerdictMode::kInline);
  StepResult on_message(const Message& m) override;
  /// Identified against the DB (kInline only).
  bool accepted() const override { return identity_.has_value(); }
  std::optional<DeferredWork> deferred() const override {
    if (!job_) return std::nullopt;
    return *job_;
  }
  void snapshot(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;
  const std::optional<std::size_t>& identity() const { return identity_; }
  const PhTranscript& view() const { return view_; }

 private:
  const ecc::Curve* curve_;
  const PhReader* reader_;
  rng::RandomSource* rng_;
  VerdictMode mode_;
  bool have_commitment_ = false;
  std::optional<std::size_t> identity_;
  PhTranscript view_;
  std::optional<LadderJob> job_;
};

/// Full honest session — a thin driver over the two machines above.
PhSessionResult run_ph_session(const ecc::Curve& curve, const PhTag& tag,
                               const PhReader& reader,
                               rng::RandomSource& rng);

}  // namespace medsec::protocol
