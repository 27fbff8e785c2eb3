// telemetry_upload — store-and-forward delivery to an offline recipient.
//
// The live mutual-auth channel (pacemaker_auth) needs the phone in range.
// This example covers the other §2 flow: a body sensor batches readings
// and uploads them for the *clinic*, whose private key is not on the
// patient's phone at all. Each record is
//
//   1. signed by the device (EC-Schnorr — third-party-verifiable data
//      authentication, stronger than a MAC),
//   2. encrypted to the clinic's public key (ECIES: ECDH + HKDF +
//      AES-CTR + CMAC),
//
// and the energy ledger prices the whole pipeline in the paper's
// currency (1 ECPM = 5.1 uJ).
//
//   $ ./examples/telemetry_upload
#include <cstdio>
#include <string>

#include "ciphers/aes128.h"
#include "ecc/curve.h"
#include "protocol/ecies.h"
#include "protocol/signature.h"
#include "rng/xoshiro.h"

int main() {
  using namespace medsec;
  const ecc::Curve& curve = ecc::Curve::k163();
  rng::Xoshiro256 rng(2024);

  // Provisioning: the device holds its signing key and the clinic's
  // public key; the clinic holds its decryption key and the device's
  // public key.
  const auto device_key = protocol::signature_keygen(curve, rng);
  const auto clinic_key = protocol::ecies_keygen(curve, rng);
  const ciphers::CipherSuite& aes = ciphers::kAes128Suite;

  const std::string records[] = {
      "2026-06-12T08:00 HR=061 HRV=48ms",
      "2026-06-12T12:00 HR=083 HRV=39ms episode=none",
      "2026-06-12T20:00 HR=058 HRV=51ms batt=82%",
  };

  protocol::EnergyLedger total;
  std::printf("device: signing and encrypting %zu records for the clinic\n\n",
              std::size(records));

  int delivered = 0;
  for (const auto& rec : records) {
    const std::vector<std::uint8_t> msg(rec.begin(), rec.end());

    // Sign, then encrypt signature+record together (sign-then-encrypt).
    protocol::EnergyLedger ledger;
    const auto sig = protocol::ec_schnorr_sign(curve, device_key, msg, rng,
                                               &ledger);
    std::vector<std::uint8_t> bundle = protocol::encode_scalar(sig.e);
    const auto s_bytes = protocol::encode_scalar(sig.s);
    bundle.insert(bundle.end(), s_bytes.begin(), s_bytes.end());
    bundle.insert(bundle.end(), msg.begin(), msg.end());

    const auto ct = protocol::ecies_encrypt(curve, clinic_key.Y, bundle, aes,
                                            rng, &ledger);
    total += ledger;

    // ... the radio, the internet, weeks later: the clinic decrypts.
    const auto opened = protocol::ecies_decrypt(curve, clinic_key.y, ct, aes);
    if (!opened) {
      std::printf("  record LOST (decrypt failed)\n");
      continue;
    }
    const auto e = protocol::decode_scalar(
        {opened->begin(), opened->begin() + 21});
    const auto s = protocol::decode_scalar(
        {opened->begin() + 21, opened->begin() + 42});
    const std::vector<std::uint8_t> body(opened->begin() + 42, opened->end());
    const bool authentic = protocol::ec_schnorr_verify(
        curve, device_key.X, body, {e, s});
    std::printf("  [%s] %.*s\n", authentic ? "verified" : "FORGED",
                static_cast<int>(body.size()),
                reinterpret_cast<const char*>(body.data()));
    delivered += authentic;
  }

  const protocol::TagCostModel cost;
  const auto radio = hw::RadioModel::ban();
  std::printf("\nledger for the whole batch:\n");
  std::printf("  point multiplications : %zu (sign: 1, ECIES: 2 per record)\n",
              total.ecpm);
  std::printf("  compute energy        : %.1f uJ\n",
              cost.compute_energy_j(total) * 1e6);
  std::printf("  radio energy at 2 m   : %.1f uJ (%zu bits)\n",
              cost.radio_energy_j(total, radio, 2.0) * 1e6, total.tx_bits);
  std::printf("  total                 : %.1f uJ for %d signed+encrypted "
              "records\n",
              cost.session_energy_j(total, radio, 2.0) * 1e6, delivered);

  // Tamper drill: a flipped ciphertext bit must kill the whole record.
  auto ct = protocol::ecies_encrypt(
      curve, clinic_key.Y, std::vector<std::uint8_t>{1, 2, 3}, aes, rng);
  ct.body[0] ^= 0x01;
  const bool rejected =
      !protocol::ecies_decrypt(curve, clinic_key.y, ct, aes).has_value();
  std::printf("\ntampered upload rejected: %s\n", rejected ? "yes" : "NO (bug!)");
  return delivered == 3 && rejected ? 0 : 1;
}
