#include "protocol/ecies.h"

#include <utility>

#include "ciphers/modes.h"
#include "ecc/fixed_base.h"
#include "ecc/ladder.h"
#include "hash/hmac.h"
#include "hash/sha256.h"
#include "protocol/snapshot.h"
#include "protocol/tag_mult.h"
#include "protocol/wire.h"

namespace medsec::protocol {

namespace {

using ecc::Curve;
using ecc::Point;
using ecc::Scalar;

struct DerivedKeys {
  std::vector<std::uint8_t> enc;
  std::vector<std::uint8_t> mac;
  std::vector<std::uint8_t> nonce;
};

/// (k_enc || k_mac || nonce) = HKDF(Z_x || R_x), domain-separated; the
/// keys are `suite.key_bytes` long, the nonce is sized for its block.
DerivedKeys kdf(const ecc::Fe& shared_x, const ecc::Fe& ephemeral_x,
                const ciphers::CipherSuite& suite) {
  const std::size_t key_bytes = suite.key_bytes;
  const std::size_t nonce_bytes = cipher_nonce_bytes(suite.block_bytes);
  std::vector<std::uint8_t> ikm = encode_fe(shared_x);
  const auto rx = encode_fe(ephemeral_x);
  ikm.insert(ikm.end(), rx.begin(), rx.end());
  static constexpr std::uint8_t kSalt[] = {'e', 'c', 'i', 'e', 's'};
  static constexpr std::uint8_t kInfo[] = {'v', '1'};
  const auto okm = hash::hkdf<hash::Sha256>(kSalt, ikm, kInfo,
                                            2 * key_bytes + nonce_bytes);
  DerivedKeys k;
  k.enc.assign(okm.begin(), okm.begin() + static_cast<long>(key_bytes));
  k.mac.assign(okm.begin() + static_cast<long>(key_bytes),
               okm.begin() + static_cast<long>(2 * key_bytes));
  k.nonce.assign(okm.begin() + static_cast<long>(2 * key_bytes), okm.end());
  return k;
}

/// Decryption once x(y·R) is in hand: KDF, transcript binding,
/// verify-then-decrypt. ecies_decrypt, the inline receiver and the
/// deferred receiver's job all end here.
std::optional<std::vector<std::uint8_t>> open_from(
    const EciesCiphertext& ct, const std::optional<ecc::Fe>& shared_x,
    const ciphers::CipherSuite& suite) {
  if (!shared_x) return std::nullopt;
  const DerivedKeys keys = kdf(*shared_x, ct.ephemeral.x, suite);
  if (keys.nonce != ct.nonce) return std::nullopt;  // transcript binding

  const auto enc = suite.build(keys.enc);
  const auto mac = suite.build(keys.mac);
  std::vector<std::uint8_t> plain;
  if (!ciphers::decrypt_then_verify(*enc, *mac, ct.nonce, ct.body, ct.tag,
                                    plain))
    return std::nullopt;
  return plain;
}

}  // namespace

std::size_t EciesCiphertext::wire_bits(const Curve& curve) const {
  return 8 * (encode_point(curve, ephemeral).size() + nonce.size() +
              body.size() + tag.size());
}

EciesKeyPair ecies_keygen(const Curve& curve, rng::RandomSource& rng) {
  EciesKeyPair kp;
  kp.y = rng.uniform_nonzero(curve.order());
  kp.Y = ecc::generator_comb(curve).mult_ct(kp.y);
  return kp;
}

EciesCiphertext ecies_encrypt(const Curve& curve, const Point& Y,
                              std::span<const std::uint8_t> plaintext,
                              const ciphers::CipherSuite& suite,
                              rng::RandomSource& rng, EnergyLedger* ledger,
                              sidechannel::HardenedLadder* hardened) {
  if (!curve.validate_subgroup_point(Y))
    throw std::invalid_argument("ecies_encrypt: invalid recipient key");

  Point R, Z;  // ephemeral point r·P, shared secret r·Y
  do {
    const Scalar r = rng.uniform_nonzero(curve.order());
    if (ledger) ledger->rng_bits += 163;
    R = tag_mult(curve, r, kGenerator, rng, ledger, hardened);
    Z = tag_mult(curve, r, &Y, rng, ledger, hardened);
  } while (R.infinity || Z.infinity);

  const DerivedKeys keys = kdf(Z.x, R.x, suite);
  const auto enc = suite.build(keys.enc);
  const auto mac = suite.build(keys.mac);
  const auto sealed = ciphers::encrypt_then_mac(*enc, *mac, keys.nonce,
                                                plaintext);
  if (ledger)
    ledger->cipher_blocks += ciphers::encrypt_then_mac_blocks(
        suite.block_bytes, keys.nonce.size(), plaintext.size());

  EciesCiphertext out;
  out.ephemeral = R;
  out.nonce = keys.nonce;
  out.body = sealed.ciphertext;
  out.tag = sealed.tag;
  if (ledger) ledger->tx_bits += out.wire_bits(curve);
  return out;
}

std::vector<std::uint8_t> encode_ecies(const Curve& curve,
                                       const EciesCiphertext& ct) {
  std::vector<std::uint8_t> out = encode_point(curve, ct.ephemeral);
  out.insert(out.end(), ct.nonce.begin(), ct.nonce.end());
  out.insert(out.end(), ct.body.begin(), ct.body.end());
  out.insert(out.end(), ct.tag.begin(), ct.tag.end());
  return out;
}

std::optional<EciesCiphertext> decode_ecies(
    const Curve& curve, const std::vector<std::uint8_t>& bytes,
    const ciphers::CipherSuite& suite) {
  constexpr std::size_t kPointBytes = 1 + kFeBytes;
  const std::size_t nonce_bytes = cipher_nonce_bytes(suite.block_bytes);
  const std::size_t tag_bytes = suite.block_bytes;
  if (bytes.size() < kPointBytes + nonce_bytes + tag_bytes)
    return std::nullopt;
  const auto p = decode_point(
      curve, {bytes.begin(), bytes.begin() + kPointBytes});
  if (!p) return std::nullopt;
  EciesCiphertext ct;
  ct.ephemeral = *p;
  auto it = bytes.begin() + kPointBytes;
  ct.nonce.assign(it, it + static_cast<std::ptrdiff_t>(nonce_bytes));
  it += static_cast<std::ptrdiff_t>(nonce_bytes);
  ct.body.assign(it, bytes.end() - static_cast<std::ptrdiff_t>(tag_bytes));
  ct.tag.assign(bytes.end() - static_cast<std::ptrdiff_t>(tag_bytes),
                bytes.end());
  return ct;
}

// --- state machines ----------------------------------------------------------

EciesUploader::EciesUploader(const Curve& curve, Point recipient,
                             std::span<const std::uint8_t> telemetry,
                             const ciphers::CipherSuite& suite,
                             rng::RandomSource& rng,
                             sidechannel::HardenedLadder* hardened)
    : curve_(&curve),
      recipient_(std::move(recipient)),
      telemetry_(telemetry.begin(), telemetry.end()),
      suite_(suite),
      rng_(&rng),
      hardened_(hardened) {}

StepResult EciesUploader::start() {
  const EciesCiphertext ct = ecies_encrypt(*curve_, recipient_, telemetry_,
                                           suite_, *rng_, &ledger_, hardened_);
  return step(
      StepResult::done(Message{kLabelEciesBlob, encode_ecies(*curve_, ct)}));
}

StepResult EciesUploader::on_message(const Message&) {
  return step(StepResult::failed());  // nothing ever flows device-ward
}

void EciesUploader::snapshot(SnapshotWriter& w) const {
  SessionMachine::snapshot(w);
  w.ledger(ledger_);
}

void EciesUploader::restore(SnapshotReader& r) {
  SessionMachine::restore(r);
  r.ledger(ledger_);
}

EciesReceiver::EciesReceiver(const Curve& curve, const Scalar& y,
                             const ciphers::CipherSuite& suite,
                             VerdictMode mode)
    : curve_(&curve), y_(y), suite_(suite), mode_(mode) {}

StepResult EciesReceiver::on_message(const Message& m) {
  auto ct = decode_ecies(*curve_, m.payload, suite_);
  // Invalid-curve gate: the ephemeral point is attacker-controlled.
  if (!ct || !curve_->validate_subgroup_point(ct->ephemeral))
    return step(StepResult::failed());
  if (mode_ == VerdictMode::kInline) {
    plaintext_ =
        open_from(*ct, ecc::ladder_x(*curve_, y_, ct->ephemeral), suite_);
    return step(plaintext_ ? StepResult::done() : StepResult::failed());
  }
  const Point ephemeral = ct->ephemeral;
  job_ = LadderJob{y_, ephemeral,
                   [suite = suite_,
                    ct = std::move(*ct)](const std::optional<ecc::Fe>& x) {
                     return open_from(ct, x, suite).has_value();
                   }};
  return step(StepResult::done());
}

void EciesReceiver::snapshot(SnapshotWriter& w) const {
  SessionMachine::snapshot(w);
  w.boolean(plaintext_.has_value());
  if (plaintext_) w.bytes(*plaintext_);
}

void EciesReceiver::restore(SnapshotReader& r) {
  SessionMachine::restore(r);
  if (r.boolean())
    plaintext_ = r.bytes();
  else
    plaintext_.reset();
}

EciesUploadResult run_ecies_upload(const Curve& curve,
                                   const EciesKeyPair& recipient,
                                   std::span<const std::uint8_t> telemetry,
                                   const ciphers::CipherSuite& suite,
                                   rng::RandomSource& rng) {
  EciesUploadResult out;
  EciesUploader device(curve, recipient.Y, telemetry, suite, rng);
  EciesReceiver clinic(curve, recipient.y, suite);
  out.delivered = drive_session(device, clinic, out.transcript);
  if (out.delivered) out.plaintext = clinic.plaintext();
  out.tag_ledger = device.ledger();
  return out;
}

std::optional<std::vector<std::uint8_t>> ecies_decrypt(
    const Curve& curve, const Scalar& y, const EciesCiphertext& ct,
    const ciphers::CipherSuite& suite) {
  // Invalid-curve gate: the ephemeral point is attacker-controlled.
  if (!curve.validate_subgroup_point(ct.ephemeral)) return std::nullopt;
  return open_from(ct, ecc::ladder_x(curve, y, ct.ephemeral), suite);
}

}  // namespace medsec::protocol
