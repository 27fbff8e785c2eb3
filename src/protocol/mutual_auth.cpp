#include "protocol/mutual_auth.h"

#include <array>

#include "ciphers/modes.h"
#include "hash/hmac.h"
#include "hash/sha256.h"
#include "protocol/snapshot.h"

namespace medsec::protocol {

namespace {

constexpr std::size_t kNonceBytes = 8;

std::size_t blocks(std::size_t bytes, std::size_t block_bytes) {
  return (bytes + block_bytes - 1) / block_bytes + 1;  // +1 CMAC finalize
}

std::vector<std::uint8_t> concat(
    std::initializer_list<std::span<const std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

std::span<const std::uint8_t> bytes_of(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), 3};
}

}  // namespace

SharedKeys derive_session_keys(std::span<const std::uint8_t> master_secret,
                               const ciphers::CipherSuite& suite) {
  static constexpr std::uint8_t kSalt[] = {'m', 'e', 'd', 's', 'e', 'c'};
  static constexpr std::uint8_t kInfoEnc[] = {'e', 'n', 'c'};
  static constexpr std::uint8_t kInfoMac[] = {'m', 'a', 'c'};
  SharedKeys k;
  k.enc_key = hash::hkdf<hash::Sha256>(kSalt, master_secret, kInfoEnc,
                                       suite.key_bytes);
  k.mac_key = hash::hkdf<hash::Sha256>(kSalt, master_secret, kInfoMac,
                                       suite.key_bytes);
  return k;
}

// --- tag machine -------------------------------------------------------------

MutualAuthTag::MutualAuthTag(const ciphers::CipherSuite& suite,
                             const SharedKeys& keys,
                             std::span<const std::uint8_t> telemetry,
                             rng::RandomSource& rng,
                             const MutualAuthConfig& config)
    : enc_(suite.build(keys.enc_key)),
      mac_(suite.build(keys.mac_key)),
      telemetry_(telemetry.begin(), telemetry.end()),
      rng_(&rng),
      config_(config) {}

StepResult MutualAuthTag::start() {
  // --- move 1: T -> S, tag nonce -------------------------------------------
  nt_.assign(kNonceBytes, 0);
  rng_->fill(nt_);
  ledger_.rng_bits += 8 * kNonceBytes;
  started_ = true;
  Message m{kLabelTagNonce, nt_};
  ledger_.tx_bits += m.bits();
  return step(StepResult::wait(std::move(m)));
}

StepResult MutualAuthTag::on_message(const Message& m) {
  const std::size_t bb = mac_->block_bytes();
  if (!started_ || m.payload.size() != kNonceBytes + bb)
    return step(StepResult::failed());
  ledger_.rx_bits += m.bits();
  const std::vector<std::uint8_t> ns{m.payload.begin(),
                                     m.payload.begin() + kNonceBytes};
  const std::vector<std::uint8_t> srv_mac_val{
      m.payload.begin() + kNonceBytes, m.payload.end()};
  const auto srv_tag_msg = concat({bytes_of("SRV"), nt_, ns});

  auto verify_server = [&] {
    const auto expect = ciphers::cmac(*mac_, srv_tag_msg);
    ledger_.cipher_blocks += blocks(srv_tag_msg.size(), bb);
    accepted_server_ = hash::constant_time_equal(expect, srv_mac_val);
  };

  std::vector<std::uint8_t> tag_auth_mac;
  ciphers::AeadResult sealed;
  std::vector<std::uint8_t> nonce(cipher_nonce_bytes(bb));
  auto heavy_work = [&] {
    // Tag authenticator.
    const auto tag_msg = concat({bytes_of("TAG"), ns, nt_});
    tag_auth_mac = ciphers::cmac(*mac_, tag_msg);
    ledger_.cipher_blocks += blocks(tag_msg.size(), bb);
    // Telemetry: encrypt-then-MAC.
    rng_->fill(nonce);
    ledger_.rng_bits += 8 * nonce.size();
    sealed = ciphers::encrypt_then_mac(*enc_, *mac_, nonce, telemetry_);
    ledger_.cipher_blocks +=
        ciphers::encrypt_then_mac_blocks(bb, nonce.size(), telemetry_.size());
  };

  if (config_.server_first) {
    verify_server();
    if (!accepted_server_) {
      // §4: "the protocol session stops immediately on the device when
      // the server authentication fails" — none of the heavy work ran.
      ledger_.aborted_early = true;
      return step(StepResult::failed());
    }
    heavy_work();
  } else {
    // Naive ordering: spend first, check later.
    heavy_work();
    verify_server();
    if (!accepted_server_) {
      ledger_.aborted_early = true;
      return step(StepResult::failed());
    }
  }

  // --- move 3: T -> S ------------------------------------------------------
  Message out{kLabelTagMacCiphertext,
              concat({tag_auth_mac, nonce, sealed.ciphertext, sealed.tag})};
  ledger_.tx_bits += out.bits();
  return step(StepResult::done(std::move(out)));
}

void MutualAuthTag::snapshot(SnapshotWriter& w) const {
  SessionMachine::snapshot(w);
  w.bytes(nt_);
  w.boolean(started_);
  w.boolean(accepted_server_);
  w.ledger(ledger_);
}

void MutualAuthTag::restore(SnapshotReader& r) {
  SessionMachine::restore(r);
  nt_ = r.bytes();
  started_ = r.boolean();
  accepted_server_ = r.boolean();
  r.ledger(ledger_);
}

// --- server machine ----------------------------------------------------------

MutualAuthServer::MutualAuthServer(const ciphers::CipherSuite& suite,
                                   const SharedKeys& keys,
                                   rng::RandomSource& rng)
    : enc_(suite.build(keys.enc_key)),
      mac_(suite.build(keys.mac_key)),
      rng_(&rng) {}

StepResult MutualAuthServer::on_message(const Message& m) {
  const std::size_t bb = mac_->block_bytes();
  if (!have_nt_) {
    if (m.payload.size() != kNonceBytes) return step(StepResult::failed());
    nt_ = m.payload;
    have_nt_ = true;
    // --- move 2: S -> T, server nonce + server MAC -------------------------
    ns_.assign(kNonceBytes, 0);
    rng_->fill(ns_);
    const auto srv_tag_msg = concat({bytes_of("SRV"), nt_, ns_});
    const auto srv_mac_val = ciphers::cmac(*mac_, srv_tag_msg);
    return step(StepResult::wait(
        Message{kLabelServerNonceMac, concat({ns_, srv_mac_val})}));
  }

  // --- move 3: MAC(TAG) || nonce || ct || MAC(ct) --------------------------
  const std::size_t nonce_len = cipher_nonce_bytes(bb);
  if (m.payload.size() < 2 * bb + nonce_len) return step(StepResult::failed());
  auto it = m.payload.begin();
  const std::vector<std::uint8_t> tag_auth_mac{it, it + bb};
  it += static_cast<std::ptrdiff_t>(bb);
  const std::vector<std::uint8_t> nonce{it, it + nonce_len};
  it += static_cast<std::ptrdiff_t>(nonce_len);
  const std::vector<std::uint8_t> ct{it, m.payload.end() - bb};
  const std::vector<std::uint8_t> mac{m.payload.end() - bb, m.payload.end()};

  // Authenticate the tag, then the telemetry.
  const auto tag_msg = concat({bytes_of("TAG"), ns_, nt_});
  const auto expect_tag = ciphers::cmac(*mac_, tag_msg);
  accepted_tag_ = hash::constant_time_equal(expect_tag, tag_auth_mac);
  if (accepted_tag_ &&
      ciphers::decrypt_then_verify(*enc_, *mac_, nonce, ct, mac, plain_)) {
    delivered_ = true;
  }
  return step(StepResult::done());
}

void MutualAuthServer::snapshot(SnapshotWriter& w) const {
  SessionMachine::snapshot(w);
  w.bytes(nt_);
  w.bytes(ns_);
  w.boolean(have_nt_);
  w.boolean(accepted_tag_);
  w.boolean(delivered_);
  w.bytes(plain_);
}

void MutualAuthServer::restore(SnapshotReader& r) {
  SessionMachine::restore(r);
  nt_ = r.bytes();
  ns_ = r.bytes();
  have_nt_ = r.boolean();
  accepted_tag_ = r.boolean();
  delivered_ = r.boolean();
  plain_ = r.bytes();
}

// --- driver ------------------------------------------------------------------

MutualAuthResult run_mutual_auth(const ciphers::CipherSuite& suite,
                                 const SharedKeys& keys,
                                 std::span<const std::uint8_t> telemetry,
                                 rng::RandomSource& rng,
                                 const MutualAuthConfig& config,
                                 const MutualAuthFaults& faults) {
  MutualAuthResult out;

  MutualAuthTag tag(suite, keys, telemetry, rng, config);

  // An impersonated server holds the wrong MAC key.
  SharedKeys server_keys = keys;
  if (faults.wrong_server_key)
    for (auto& b : server_keys.mac_key) b ^= 0xA5;
  MutualAuthServer server(suite, server_keys, rng);

  // In-flight tampering: move 3 is the second tag->server message; its
  // layout is MAC(TAG) [bb] || nonce || ct || MAC(ct) (see mutual_auth.h).
  const std::size_t bb = suite.block_bytes;
  const std::size_t ct_offset = bb + cipher_nonce_bytes(bb);
  std::size_t tag_msgs = 0;
  SessionTap tap;
  tap.tag_to_reader = [&](Message& msg) {
    if (++tag_msgs != 2) return;
    if (faults.tamper_tag_mac && !msg.payload.empty()) msg.payload[0] ^= 0x80;
    if (faults.tamper_ciphertext && msg.payload.size() > ct_offset + bb)
      msg.payload[ct_offset] ^= 0x80;
  };

  drive_session(tag, server, out.transcript, tap);

  out.tag_accepted_server = tag.accepted_server();
  out.server_accepted_tag = !faults.wrong_server_key && server.accepted_tag();
  out.telemetry_delivered = server.telemetry_delivered();
  out.delivered_telemetry = server.telemetry();
  out.tag_ledger = tag.ledger();
  out.tag_ledger.tx_bits = out.transcript.tag_tx_bits();
  out.tag_ledger.rx_bits = out.transcript.tag_rx_bits();
  return out;
}

}  // namespace medsec::protocol
