// pacemaker_auth — the paper's §2/§4 use case end to end.
//
// A pacemaker ("tag") talks to the patient's phone ("mini-server") over a
// BAN radio. The session shows the paper's protocol requirements working:
//   1. private identification (Peeters–Hermans, Fig. 2) so the phone knows
//      *which* device it is talking to without letting an eavesdropper
//      track the patient,
//   2. symmetric mutual authentication + encrypted, authenticated
//      telemetry (AES-CTR + CMAC, server-authenticates-first),
//   3. the failure drills: an impersonated server is dropped *before* the
//      device spends energy; tampered telemetry is not delivered.
//
//   $ ./examples/pacemaker_auth
#include <cstdio>

#include "ciphers/aes128.h"
#include "ecc/curve.h"
#include "protocol/mutual_auth.h"
#include "protocol/peeters_hermans.h"
#include "rng/xoshiro.h"

int main() {
  using namespace medsec;
  const ecc::Curve& curve = ecc::Curve::k163();
  rng::Xoshiro256 rng(7);

  // --- provisioning (in the clinic) -------------------------------------------
  protocol::PhReader phone = protocol::ph_setup_reader(curve, rng);
  const protocol::PhTag pacemaker =
      protocol::ph_register_tag(curve, phone, rng);
  // A second device on the same patient, to show the DB actually resolves.
  const protocol::PhTag insulin_pump =
      protocol::ph_register_tag(curve, phone, rng);

  std::printf("provisioned %zu devices with the phone\n\n",
              phone.db.size());

  // --- step 1: private identification -----------------------------------------
  const auto id_session =
      protocol::run_ph_session(curve, pacemaker, phone, rng);
  std::printf("identification: %s (DB slot %zu)\n",
              id_session.identified ? "accepted" : "REJECTED",
              id_session.identity.value_or(999));
  std::printf("  tag cost: %zu ECPM + %zu modmul, %zu bits TX, %zu bits RX\n",
              id_session.tag_ledger.ecpm, id_session.tag_ledger.modmul,
              id_session.tag_ledger.tx_bits, id_session.tag_ledger.rx_bits);

  const protocol::TagCostModel cost;
  const auto radio = hw::RadioModel::ban();
  std::printf("  session energy at 1 m: %.1f uJ (%.1f uJ compute, %.1f uJ radio)\n\n",
              cost.session_energy_j(id_session.tag_ledger, radio, 1.0) * 1e6,
              cost.compute_energy_j(id_session.tag_ledger) * 1e6,
              cost.radio_energy_j(id_session.tag_ledger, radio, 1.0) * 1e6);

  const auto pump_session =
      protocol::run_ph_session(curve, insulin_pump, phone, rng);
  std::printf("second device resolves to DB slot %zu (distinct identity)\n\n",
              pump_session.identity.value_or(999));

  // --- step 2: mutual auth + telemetry -----------------------------------------
  const std::vector<std::uint8_t> master(16, 0x5A);  // provisioned secret
  const ciphers::CipherSuite& aes = ciphers::kAes128Suite;
  const auto keys = protocol::derive_session_keys(master, aes);
  const std::string telemetry_str = "HR=072;PACE=1.2ms@60bpm;BATT=83%";
  const std::vector<std::uint8_t> telemetry(telemetry_str.begin(),
                                            telemetry_str.end());

  const auto ok = protocol::run_mutual_auth(aes, keys, telemetry, rng);
  std::printf("honest session: server auth %s, tag auth %s, telemetry %s\n",
              ok.tag_accepted_server ? "ok" : "FAIL",
              ok.server_accepted_tag ? "ok" : "FAIL",
              ok.telemetry_delivered ? "delivered" : "LOST");

  // --- step 3: failure drills ---------------------------------------------------
  protocol::MutualAuthFaults impersonator;
  impersonator.wrong_server_key = true;
  const auto drill1 =
      protocol::run_mutual_auth(aes, keys, telemetry, rng, {}, impersonator);
  std::printf("\nimpersonated server: rejected=%s, aborted early=%s\n",
              drill1.tag_accepted_server ? "NO (bug!)" : "yes",
              drill1.tag_ledger.aborted_early ? "yes" : "no");
  protocol::MutualAuthConfig naive;
  naive.server_first = false;
  const auto drill1b = protocol::run_mutual_auth(aes, keys, telemetry, rng,
                                                 naive, impersonator);
  std::printf("  energy wasted on the failed session: %.3f uJ (server-first) "
              "vs %.3f uJ (naive ordering)\n",
              cost.compute_energy_j(drill1.tag_ledger) * 1e6,
              cost.compute_energy_j(drill1b.tag_ledger) * 1e6);

  protocol::MutualAuthFaults mitm;
  mitm.tamper_ciphertext = true;
  const auto drill2 =
      protocol::run_mutual_auth(aes, keys, telemetry, rng, {}, mitm);
  std::printf("tampered telemetry: delivered=%s (must be no — \"a "
              "modification on the ciphertext may lead to a corrupted "
              "therapy\")\n",
              drill2.telemetry_delivered ? "YES (bug!)" : "no");

  // Every FAIL / LOST / "(bug!)" above, and an identification that did not
  // resolve both devices to their own slots, fails the run.
  const bool identified = id_session.identified && pump_session.identified &&
                          id_session.identity != pump_session.identity;
  const bool honest = ok.tag_accepted_server && ok.server_accepted_tag &&
                      ok.telemetry_delivered;
  const bool drills_held = !drill1.tag_accepted_server &&
                           drill1.tag_ledger.aborted_early &&
                           !drill2.telemetry_delivered;
  return identified && honest && drills_held ? 0 : 1;
}
