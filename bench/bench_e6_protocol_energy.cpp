// E6 — computation vs communication energy (§4, refs [4, 5]).
//
// Paper: "Several exercises to evaluate the computation versus
// communication cost of secret-key versus public-key based security
// protocols have been made: the conclusions depend on the cryptographic
// algorithm, the digital platform and the wireless distance over which
// the communication occurs." Also: server-auth-first ordering saves the
// energy of failed sessions.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ciphers/aes128.h"
#include "ciphers/present.h"
#include "protocol/ecies.h"
#include "protocol/mutual_auth.h"
#include "protocol/peeters_hermans.h"
#include "protocol/schnorr.h"

namespace {

using namespace medsec;
namespace proto = protocol;
using ciphers::kAes128Suite;
using ciphers::kPresent80Suite;

void print_table() {
  bench::banner("E6: protocol energy, computation vs communication",
                "Section 4 energy levers + refs [4, 5] crossover study");

  const ecc::Curve& curve = ecc::Curve::k163();
  rng::Xoshiro256 rng(6);
  const proto::TagCostModel cost;

  // Build one session of each protocol family and take its ledger.
  proto::PhReader reader = proto::ph_setup_reader(curve, rng);
  const auto tag = proto::ph_register_tag(curve, reader, rng);
  const auto ph = proto::run_ph_session(curve, tag, reader, rng);

  const auto schnorr_kp = proto::schnorr_keygen(curve, rng);
  const auto schnorr = proto::run_schnorr_session(curve, schnorr_kp, rng);

  const auto keys = proto::derive_session_keys(
      std::vector<std::uint8_t>(16, 1), kAes128Suite);
  const std::vector<std::uint8_t> telemetry(32, 0x42);
  const auto sk_aes =
      proto::run_mutual_auth(kAes128Suite, keys, telemetry, rng);
  const auto keys10 = proto::derive_session_keys(
      std::vector<std::uint8_t>(16, 2), kPresent80Suite);
  const auto sk_present =
      proto::run_mutual_auth(kPresent80Suite, keys10, telemetry, rng);

  // Store-and-forward upload (no live round-trip): ECIES to the clinic.
  const auto clinic = proto::ecies_keygen(curve, rng);
  proto::EnergyLedger ecies_ledger;
  proto::ecies_encrypt(curve, clinic.Y, telemetry, kAes128Suite, rng,
                       &ecies_ledger);

  struct Row {
    const char* name;
    const proto::EnergyLedger* ledger;
  };
  const Row rows[] = {
      {"PKC ident (Peeters-Hermans)", &ph.tag_ledger},
      {"PKC ident (Schnorr)", &schnorr.tag_ledger},
      {"SK mutual auth (AES-128)", &sk_aes.tag_ledger},
      {"SK mutual auth (PRESENT-80)", &sk_present.tag_ledger},
      {"PKC upload (ECIES, AES-128)", &ecies_ledger},
  };

  std::printf("tag-side ledger per session:\n");
  std::printf("%-30s %6s %7s %8s %8s %8s\n", "protocol", "ECPM", "modmul",
              "ciphblk", "TX bits", "RX bits");
  for (const auto& r : rows)
    std::printf("%-30s %6zu %7zu %8zu %8zu %8zu\n", r.name, r.ledger->ecpm,
                r.ledger->modmul, r.ledger->cipher_blocks, r.ledger->tx_bits,
                r.ledger->rx_bits);

  for (const bool implant : {false, true}) {
    const auto radio =
        implant ? hw::RadioModel::implant() : hw::RadioModel::ban();
    std::printf("\ntotal tag energy [uJ] vs distance, %s radio "
                "(path-loss n = %.0f):\n",
                implant ? "implant" : "BAN", radio.path_loss_exponent);
    std::printf("%-30s", "protocol \\ distance [m]");
    const double dists[] = {0.1, 0.5, 2.0, 10.0, 50.0};
    for (const double d : dists) std::printf(" %8.1f", d);
    std::printf("\n");
    for (const auto& r : rows) {
      std::printf("%-30s", r.name);
      for (const double d : dists)
        std::printf(" %8.2f", cost.session_energy_j(*r.ledger, radio, d) * 1e6);
      std::printf("\n");
    }
  }

  // The third §4 lever: failed sessions under each ordering.
  proto::MutualAuthFaults fake_server;
  fake_server.wrong_server_key = true;
  proto::MutualAuthConfig first, naive;
  naive.server_first = false;
  const auto f1 = proto::run_mutual_auth(kAes128Suite, keys, telemetry, rng,
                                         first, fake_server);
  const auto f2 = proto::run_mutual_auth(kAes128Suite, keys, telemetry, rng,
                                         naive, fake_server);
  std::printf("\nfailed-session compute energy (impersonated server):\n"
              "  server-auth-first : %.3f uJ\n"
              "  naive ordering    : %.3f uJ   (%.1fx more wasted)\n",
              cost.compute_energy_j(f1.tag_ledger) * 1e6,
              cost.compute_energy_j(f2.tag_ledger) * 1e6,
              cost.compute_energy_j(f2.tag_ledger) /
                  cost.compute_energy_j(f1.tag_ledger));
  std::printf("\nconclusion (matches refs [4,5]): which design wins depends\n"
              "on algorithm (AES vs PRESENT vs ECC), platform (co-processor\n"
              "energy), and distance (radio exponent) — no universal answer.\n");
}

void BM_PhSession(benchmark::State& state) {
  const ecc::Curve& curve = ecc::Curve::k163();
  rng::Xoshiro256 rng(10);
  proto::PhReader reader = proto::ph_setup_reader(curve, rng);
  const auto tag = proto::ph_register_tag(curve, reader, rng);
  for (auto _ : state) {
    auto s = proto::run_ph_session(curve, tag, reader, rng);
    benchmark::DoNotOptimize(s.identified);
  }
}
BENCHMARK(BM_PhSession)->Unit(benchmark::kMillisecond);

void BM_MutualAuthSession(benchmark::State& state) {
  rng::Xoshiro256 rng(11);
  const auto keys = proto::derive_session_keys(
      std::vector<std::uint8_t>(16, 1), kAes128Suite);
  const std::vector<std::uint8_t> telemetry(32, 0x42);
  for (auto _ : state) {
    auto s = proto::run_mutual_auth(kAes128Suite, keys, telemetry, rng);
    benchmark::DoNotOptimize(s.telemetry_delivered);
  }
}
BENCHMARK(BM_MutualAuthSession)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  return medsec::bench::run_benchmarks_with_json(argc, argv,
                                                 "BENCH_e6_protocol.json");
}
