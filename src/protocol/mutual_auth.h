// mutual_auth.h — symmetric mutual authentication + encrypted telemetry
// between an implanted device ("tag") and the mini-server (§2's typical
// use case; §4's requirements list).
//
// The paper's requirements, as implemented here:
//   * mutual authentication (prevent impersonation of either side),
//   * data encryption (patient privacy),
//   * data authentication ("a modification on the ciphertext may also
//     lead to a corrupted therapy that endangers the patient's life"),
//   * *server-authentication-first* ordering: "the protocol session stops
//     immediately on the device when the server authentication fails" —
//     the third energy lever of §4, measurable via EnergyLedger.
//
// Flow (server-first):
//   T -> S : N_t                                    (8-byte nonce)
//   S -> T : N_s || CMAC_Km("SRV" || N_t || N_s)    tag verifies FIRST
//   T -> S : CMAC_Km("TAG" || N_s || N_t) ||
//            CTR_Ke(telemetry) || CMAC_Km(nonce || ct)
//
// The `server_first` switch reorders the tag's work so the energy bench
// can show what a failed session costs in each design.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ciphers/block_cipher.h"
#include "protocol/energy_ledger.h"
#include "protocol/session.h"
#include "protocol/wire.h"
#include "rng/random_source.h"

namespace medsec::protocol {

struct SharedKeys {
  std::vector<std::uint8_t> enc_key;  ///< cipher-sized
  std::vector<std::uint8_t> mac_key;
};

/// HKDF the provisioned master secret into independent encryption and MAC
/// keys, each `suite.key_bytes` long (never reuse one key for both roles).
SharedKeys derive_session_keys(std::span<const std::uint8_t> master_secret,
                               const ciphers::CipherSuite& suite);

struct MutualAuthConfig {
  /// Enforce §4's ordering; false models the naive design that spends the
  /// tag's heavy work before checking who is asking.
  bool server_first = true;
};

/// Failure-injection switches for the tests/benches.
struct MutualAuthFaults {
  bool wrong_server_key = false;   ///< impersonated server
  bool tamper_ciphertext = false;  ///< modify telemetry in flight
  bool tamper_tag_mac = false;     ///< impersonated tag
};

struct MutualAuthResult {
  bool tag_accepted_server = false;
  bool server_accepted_tag = false;
  bool telemetry_delivered = false;  ///< decrypted AND authenticated
  std::vector<std::uint8_t> delivered_telemetry;
  Transcript transcript;
  EnergyLedger tag_ledger;
};

/// Tag-side state machine:
///   start()             -> N_t
///   on_message(N_s|MAC) -> verify server (ordering per config), then the
///                          heavy work and move 3; kFailed + aborted_early
///                          when server authentication fails.
/// Both machines build their encryption and MAC ciphers from `suite` at
/// construction and throw std::invalid_argument when a key's length is not
/// the suite's key size.
class MutualAuthTag final : public SessionMachine {
 public:
  MutualAuthTag(const ciphers::CipherSuite& suite, const SharedKeys& keys,
                std::span<const std::uint8_t> telemetry,
                rng::RandomSource& rng, const MutualAuthConfig& config = {});
  StepResult start() override;
  StepResult on_message(const Message& m) override;
  void snapshot(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;
  bool accepted_server() const { return accepted_server_; }
  const EnergyLedger& ledger() const { return ledger_; }

 private:
  std::unique_ptr<ciphers::BlockCipher> enc_;
  std::unique_ptr<ciphers::BlockCipher> mac_;
  std::vector<std::uint8_t> telemetry_;
  rng::RandomSource* rng_;
  MutualAuthConfig config_;
  std::vector<std::uint8_t> nt_;
  bool started_ = false;
  bool accepted_server_ = false;
  EnergyLedger ledger_;
};

/// Server-side state machine:
///   on_message(N_t)    -> N_s || CMAC_Km("SRV" || N_t || N_s)
///   on_message(move 3) -> authenticate the tag, then verify-and-decrypt
///                         the telemetry; kDone either way, and accepted()
///                         only if both held.
class MutualAuthServer final : public SessionMachine {
 public:
  MutualAuthServer(const ciphers::CipherSuite& suite, const SharedKeys& keys,
                   rng::RandomSource& rng);
  StepResult on_message(const Message& m) override;
  bool accepted() const override { return accepted_tag_ && delivered_; }
  void snapshot(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;
  bool accepted_tag() const { return accepted_tag_; }
  bool telemetry_delivered() const { return delivered_; }
  const std::vector<std::uint8_t>& telemetry() const { return plain_; }

 private:
  std::unique_ptr<ciphers::BlockCipher> enc_;
  std::unique_ptr<ciphers::BlockCipher> mac_;
  rng::RandomSource* rng_;
  std::vector<std::uint8_t> nt_, ns_;
  bool have_nt_ = false;
  bool accepted_tag_ = false;
  bool delivered_ = false;
  std::vector<std::uint8_t> plain_;
};

/// Run one session — a driver over the two machines. Faults are injected
/// the way a real adversary would: wrong_server_key swaps in an
/// impersonator server machine; the tamper flags mutate move-3 payload
/// bytes in flight through a SessionTap.
MutualAuthResult run_mutual_auth(const ciphers::CipherSuite& suite,
                                 const SharedKeys& keys,
                                 std::span<const std::uint8_t> telemetry,
                                 rng::RandomSource& rng,
                                 const MutualAuthConfig& config = {},
                                 const MutualAuthFaults& faults = {});

}  // namespace medsec::protocol
