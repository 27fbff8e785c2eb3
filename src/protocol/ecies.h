// ecies.h — hybrid public-key encryption (ECIES-style) for telemetry at
// rest or store-and-forward delivery.
//
// The symmetric mutual-auth channel (mutual_auth.h) needs a live
// round-trip; §2's scenario also has the opposite flow — a sensor that
// uploads encrypted readings for a recipient that is *offline* (the
// clinic's key), with no shared symmetric key provisioned. That is the
// textbook job of hybrid encryption:
//
//   encrypt(Y, m):  r random, R = r*P, Z = xcoord(r*Y),
//                   (k_enc || k_mac) = HKDF(Z || xcoord(R)),
//                   c = CTR_{k_enc}(m), t = CMAC_{k_mac}(nonce || c)
//                   output (R, c, t)
//   decrypt(y, ..): Z = xcoord(y*R), same KDF, verify-then-decrypt.
//
// On the device this costs one point multiplication more than a MAC —
// the same 5.1 uJ currency the rest of the paper trades in.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "ciphers/block_cipher.h"
#include "ecc/curve.h"
#include "protocol/energy_ledger.h"
#include "protocol/session.h"
#include "rng/random_source.h"
#include "sidechannel/countermeasures.h"

namespace medsec::protocol {

struct EciesCiphertext {
  ecc::Point ephemeral;               ///< R = r*P
  std::vector<std::uint8_t> nonce;    ///< CTR/CMAC nonce
  std::vector<std::uint8_t> body;     ///< CTR ciphertext
  std::vector<std::uint8_t> tag;      ///< CMAC over nonce || body
  /// Encoded size on the air (compressed point + nonce + body + tag).
  std::size_t wire_bits(const ecc::Curve& curve) const;
};

struct EciesKeyPair {
  ecc::Scalar y;  ///< recipient secret
  ecc::Point Y;   ///< recipient public key
};

EciesKeyPair ecies_keygen(const ecc::Curve& curve, rng::RandomSource& rng);

/// Device-side encryption to public key Y. `suite` sizes the derived keys
/// and the nonce and builds the CTR and CMAC ciphers (two per call).
/// `hardened`: optional engine both encapsulation point multiplications
/// pass to tag_mult (tag_mult.h), which also charges them to `ledger`.
EciesCiphertext ecies_encrypt(const ecc::Curve& curve, const ecc::Point& Y,
                              std::span<const std::uint8_t> plaintext,
                              const ciphers::CipherSuite& suite,
                              rng::RandomSource& rng,
                              EnergyLedger* ledger = nullptr,
                              sidechannel::HardenedLadder* hardened = nullptr);

/// Recipient-side decryption. Returns nullopt on any authentication or
/// validation failure (including an invalid ephemeral point — the
/// invalid-curve gate). y·R runs on the constant-time x-only ladder
/// (ecc::ladder_x): y is the recipient's long-term secret.
std::optional<std::vector<std::uint8_t>> ecies_decrypt(
    const ecc::Curve& curve, const ecc::Scalar& y, const EciesCiphertext& ct,
    const ciphers::CipherSuite& suite);

/// Wire encoding of a ciphertext: compressed ephemeral point || nonce ||
/// body || tag. Self-delimiting given the suite (the nonce and tag widths
/// are functions of its block size), so no length fields travel.
std::vector<std::uint8_t> encode_ecies(const ecc::Curve& curve,
                                       const EciesCiphertext& ct);
std::optional<EciesCiphertext> decode_ecies(
    const ecc::Curve& curve, const std::vector<std::uint8_t>& bytes,
    const ciphers::CipherSuite& suite);

/// Device-side store-and-forward upload as a (one-shot) session machine:
/// start() emits the whole ECIES blob as a single message and finishes.
/// Copies its per-session inputs (recipient key, telemetry, suite); the
/// RNG is caller-owned and must outlive the machine.
class EciesUploader final : public SessionMachine {
 public:
  EciesUploader(const ecc::Curve& curve, ecc::Point recipient,
                std::span<const std::uint8_t> telemetry,
                const ciphers::CipherSuite& suite, rng::RandomSource& rng,
                sidechannel::HardenedLadder* hardened = nullptr);
  StepResult start() override;
  StepResult on_message(const Message& m) override;
  void snapshot(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;
  const EnergyLedger& ledger() const { return ledger_; }

 private:
  const ecc::Curve* curve_;
  ecc::Point recipient_;
  std::vector<std::uint8_t> telemetry_;
  ciphers::CipherSuite suite_;
  rng::RandomSource* rng_;
  sidechannel::HardenedLadder* hardened_;
  EnergyLedger ledger_;
};

/// Recipient side: decodes the blob and gates its ephemeral point (a
/// failure ends kFailed), then
///   kInline:   verify-then-decrypts on the spot; a refusal ends kFailed;
///   kDeferred: finishes kDone and leaves y·R and the verify-then-decrypt
///              to the host as deferred(), a LadderJob whose verdict is
///              "delivered" (plaintext() is never set). A refusal there
///              lands on a completed session as not accepted, with no
///              kReject frame — the way a deferred Schnorr forgery lands.
/// Builds no cipher until it opens a blob (two then, in the job when
/// deferred); the machine and its job each hold a copy of the suite.
class EciesReceiver final : public SessionMachine {
 public:
  EciesReceiver(const ecc::Curve& curve, const ecc::Scalar& y,
                const ciphers::CipherSuite& suite,
                VerdictMode mode = VerdictMode::kInline);
  StepResult on_message(const Message& m) override;
  bool accepted() const override { return delivered(); }
  std::optional<DeferredWork> deferred() const override {
    if (!job_) return std::nullopt;
    return *job_;
  }
  void snapshot(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;
  bool delivered() const { return plaintext_.has_value(); }
  const std::vector<std::uint8_t>& plaintext() const { return *plaintext_; }

 private:
  const ecc::Curve* curve_;
  ecc::Scalar y_;
  ciphers::CipherSuite suite_;
  VerdictMode mode_;
  std::optional<std::vector<std::uint8_t>> plaintext_;
  std::optional<LadderJob> job_;
};

struct EciesUploadResult {
  bool delivered = false;
  std::vector<std::uint8_t> plaintext;  ///< what the recipient recovered
  Transcript transcript;
  EnergyLedger tag_ledger;
};

/// Full store-and-forward round: device encrypts to recipient.Y, the blob
/// crosses the air once, the recipient decrypts — a driver over the two
/// machines above (the ECIES analogue of the other protocols' run_*).
EciesUploadResult run_ecies_upload(const ecc::Curve& curve,
                                   const EciesKeyPair& recipient,
                                   std::span<const std::uint8_t> telemetry,
                                   const ciphers::CipherSuite& suite,
                                   rng::RandomSource& rng);

}  // namespace medsec::protocol
