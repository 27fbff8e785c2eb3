#include "protocol/ecies.h"

#include <utility>

#include "ciphers/modes.h"
#include "ecc/fixed_base.h"
#include "ecc/ladder.h"
#include "hash/hmac.h"
#include "hash/sha256.h"
#include "protocol/snapshot.h"
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

/// (k_enc || k_mac || nonce) = HKDF(Z_x || R_x), domain-separated.
DerivedKeys kdf(const ecc::Fe& shared_x, const ecc::Fe& ephemeral_x,
                std::size_t key_bytes, std::size_t nonce_bytes) {
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

/// The block size of `make_cipher`'s cipher, read off one zero-key
/// instance: ECIES's nonce and tag widths are functions of it.
std::size_t probe_block_bytes(const CipherFactory& make_cipher,
                              std::size_t key_bytes) {
  return make_cipher(std::vector<std::uint8_t>(key_bytes, 0))->block_bytes();
}

/// Decryption once x(y·R) is in hand: KDF, transcript binding,
/// verify-then-decrypt. ecies_decrypt, the inline receiver and the
/// deferred receiver's job all end here.
std::optional<std::vector<std::uint8_t>> open_from(
    const EciesCiphertext& ct, const std::optional<ecc::Fe>& shared_x,
    const CipherFactory& make_cipher, std::size_t key_bytes,
    std::size_t block_bytes) {
  if (!shared_x) return std::nullopt;
  const DerivedKeys keys = kdf(*shared_x, ct.ephemeral.x, key_bytes,
                               cipher_nonce_bytes(block_bytes));
  if (keys.nonce != ct.nonce) return std::nullopt;  // transcript binding

  const auto enc = make_cipher(keys.enc);
  const auto mac = make_cipher(keys.mac);
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
                              const CipherFactory& make_cipher,
                              std::size_t key_bytes, rng::RandomSource& rng,
                              EnergyLedger* ledger,
                              sidechannel::HardenedLadder* hardened) {
  if (!curve.validate_subgroup_point(Y))
    throw std::invalid_argument("ecies_encrypt: invalid recipient key");

  // Ephemeral point R = r·P on the fixed-base comb (constant schedule,
  // masked table scan); shared secret Z = r·Y on the RPC ladder, whose
  // output conversion shares one joint inversion across its two
  // denominators (Montgomery's trick inside recover_from_ladder). With a
  // countermeasure engine installed, both multiplications ride the
  // hardened ladder instead.
  ecc::LadderOptions lo;
  lo.randomize_z = true;
  lo.rng = &rng;
  const ecc::FixedBaseComb& comb = ecc::generator_comb(curve);
  Point R, Z;
  Scalar r;
  do {
    r = rng.uniform_nonzero(curve.order());
    // Scalar draw + the per-mult countermeasure draws: the comb consumes
    // none, the plain RPC ladder two randomizers, the hardened engine
    // whatever its config says (2 mults here).
    if (ledger)
      ledger->rng_bits +=
          163 + (hardened ? 2 * hardened->rng_bits_per_mult() : 2 * 163);
    const auto charge_provisioning = [&] {
      // Base-blinding pair provisioning: two hidden ladders + a draw.
      if (ledger && hardened && hardened->last_mult_provisioned_pair()) {
        ledger->ecpm += 2;
        ledger->rng_bits += 163;
      }
    };
    R = hardened ? hardened->mult(r, curve.base_point(), rng)
                 : comb.mult_ct(r);
    charge_provisioning();
    if (ledger) ++ledger->ecpm;
    Z = hardened ? hardened->mult(r, Y, rng)
                 : ecc::montgomery_ladder(curve, r, Y, lo);
    charge_provisioning();
    if (ledger) ++ledger->ecpm;
  } while (R.infinity || Z.infinity);

  const std::size_t bb = probe_block_bytes(make_cipher, key_bytes);
  const DerivedKeys keys = kdf(Z.x, R.x, key_bytes, cipher_nonce_bytes(bb));

  const auto enc = make_cipher(keys.enc);
  const auto mac = make_cipher(keys.mac);
  const auto sealed = ciphers::encrypt_then_mac(*enc, *mac, keys.nonce,
                                                plaintext);
  if (ledger)
    ledger->cipher_blocks += (plaintext.size() + bb - 1) / bb + 1 +
                             (keys.nonce.size() + plaintext.size() + bb - 1) /
                                 bb + 1;

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
    std::size_t nonce_bytes, std::size_t tag_bytes) {
  constexpr std::size_t kPointBytes = 1 + kFeBytes;
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
                             const CipherFactory& make_cipher,
                             std::size_t key_bytes, rng::RandomSource& rng,
                             sidechannel::HardenedLadder* hardened)
    : curve_(&curve),
      recipient_(std::move(recipient)),
      telemetry_(telemetry.begin(), telemetry.end()),
      make_cipher_(&make_cipher),
      key_bytes_(key_bytes),
      rng_(&rng),
      hardened_(hardened) {}

StepResult EciesUploader::start() {
  const EciesCiphertext ct = ecies_encrypt(*curve_, recipient_, telemetry_,
                                           *make_cipher_, key_bytes_, *rng_,
                                           &ledger_, hardened_);
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
                             const CipherFactory& make_cipher,
                             std::size_t key_bytes, VerdictMode mode)
    : curve_(&curve),
      y_(y),
      make_cipher_(&make_cipher),
      key_bytes_(key_bytes),
      block_bytes_(probe_block_bytes(make_cipher, key_bytes)),
      mode_(mode) {}

StepResult EciesReceiver::on_message(const Message& m) {
  auto ct = decode_ecies(*curve_, m.payload, cipher_nonce_bytes(block_bytes_),
                         block_bytes_);
  // Invalid-curve gate: the ephemeral point is attacker-controlled.
  if (!ct || !curve_->validate_subgroup_point(ct->ephemeral))
    return step(StepResult::failed());
  if (mode_ == VerdictMode::kInline) {
    plaintext_ = open_from(*ct, ecc::ladder_x(*curve_, y_, ct->ephemeral),
                           *make_cipher_, key_bytes_, block_bytes_);
    return step(plaintext_ ? StepResult::done() : StepResult::failed());
  }
  const Point ephemeral = ct->ephemeral;
  job_ = LadderJob{y_, ephemeral,
                   [make_cipher = make_cipher_, key_bytes = key_bytes_,
                    bb = block_bytes_,
                    ct = std::move(*ct)](const std::optional<ecc::Fe>& x) {
                     return open_from(ct, x, *make_cipher, key_bytes, bb)
                         .has_value();
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
                                   const CipherFactory& make_cipher,
                                   std::size_t key_bytes,
                                   rng::RandomSource& rng) {
  EciesUploadResult out;
  EciesUploader device(curve, recipient.Y, telemetry, make_cipher, key_bytes,
                       rng);
  EciesReceiver clinic(curve, recipient.y, make_cipher, key_bytes);
  out.delivered = drive_session(device, clinic, out.transcript);
  if (out.delivered) out.plaintext = clinic.plaintext();
  out.tag_ledger = device.ledger();
  return out;
}

std::optional<std::vector<std::uint8_t>> ecies_decrypt(
    const Curve& curve, const Scalar& y, const EciesCiphertext& ct,
    const CipherFactory& make_cipher, std::size_t key_bytes) {
  // Invalid-curve gate: the ephemeral point is attacker-controlled.
  if (!curve.validate_subgroup_point(ct.ephemeral)) return std::nullopt;
  return open_from(ct, ecc::ladder_x(curve, y, ct.ephemeral), make_cipher,
                   key_bytes, probe_block_bytes(make_cipher, key_bytes));
}

}  // namespace medsec::protocol
