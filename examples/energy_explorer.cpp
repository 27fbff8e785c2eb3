// energy_explorer — walk the paper's design space interactively.
//
// Three views of the area–power–energy–security trade-off:
//   1. the §5 digit-size sweep of the 163xd MALU (why the chip uses d = 4),
//   2. protocol energy vs link distance: where the secret-key design beats
//      the public-key design and where communication dominates (§4, refs
//      [4, 5]),
//   3. what each side-channel countermeasure costs in area and power
//      (the "security adds an extra design dimension" headline).
//
//   $ ./examples/energy_explorer
#include <cstdio>

#include "ciphers/aes128.h"
#include "core/secure_processor.h"
#include "ecc/curve.h"
#include "hw/digit_serial.h"
#include "hw/gates.h"
#include "protocol/mutual_auth.h"
#include "protocol/peeters_hermans.h"
#include "rng/xoshiro.h"
#include "sidechannel/leakage.h"

int main() {
  using namespace medsec;
  const auto tech = hw::Technology::umc130();

  // --- view 1: digit-size sweep ------------------------------------------------
  std::printf("=== 163 x d digit-serial multiplier sweep (Section 5) ===\n");
  std::printf("%3s %8s %10s %12s %12s %16s\n", "d", "cycles", "area[GE]",
              "power[uW]", "E/mult[nJ]", "area*energy");
  const auto sweep = hw::digit_size_sweep(tech);
  double best_aep = 1e300;
  std::size_t best_d = 0;
  for (const auto& p : sweep) {
    std::printf("%3zu %8zu %10.0f %12.2f %12.3f %16.3e%s\n", p.digit_size,
                p.cycles_per_mult, p.area_ge, p.avg_power_w * 1e6,
                p.energy_per_mult_j * 1e9, p.area_energy_product,
                p.area_energy_product < best_aep ? "  <-" : "");
    if (p.area_energy_product < best_aep) {
      best_aep = p.area_energy_product;
      best_d = p.digit_size;
    }
  }
  std::printf("optimal area-energy product at d = %zu (paper: d = 4)\n\n",
              best_d);

  // --- view 2: protocol energy vs distance ---------------------------------------
  std::printf("=== session energy vs link distance (Section 4, refs [4,5]) "
              "===\n");
  const ecc::Curve& curve = ecc::Curve::k163();
  rng::Xoshiro256 rng(11);
  protocol::PhReader reader = protocol::ph_setup_reader(curve, rng);
  const auto tag = protocol::ph_register_tag(curve, reader, rng);
  const auto pkc = protocol::run_ph_session(curve, tag, reader, rng);

  const auto keys = protocol::derive_session_keys(
      std::vector<std::uint8_t>(16, 1), ciphers::kAes128Suite);
  const std::vector<std::uint8_t> telemetry(32, 0x42);
  const auto sk =
      protocol::run_mutual_auth(ciphers::kAes128Suite, keys, telemetry, rng);

  const protocol::TagCostModel cost;
  std::printf("%10s %22s %22s\n", "dist[m]", "PKC ident (PH) [uJ]",
              "SK mutual auth [uJ]");
  for (const double d : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    const auto radio = hw::RadioModel::ban();
    std::printf("%10.1f %22.2f %22.2f\n", d,
                cost.session_energy_j(pkc.tag_ledger, radio, d) * 1e6,
                cost.session_energy_j(sk.tag_ledger, radio, d) * 1e6);
  }
  std::printf("(PKC buys strong privacy for ~10 uJ of compute; at BAN "
              "distances the radio term is secondary — \"the conclusions "
              "depend on the algorithm, the platform and the distance\")\n\n");

  // --- view 3: what each countermeasure costs -------------------------------------
  std::printf("=== the price of security (area / power overhead) ===\n");
  const double base_area = hw::ecc_coprocessor_ge(163, 4);
  struct Row {
    const char* what;
    double area_factor;
    double power_factor;
    const char* beats;
  };
  const Row rows[] = {
      {"plain CMOS, no countermeasures", 1.00, 1.00, "-"},
      {"+ constant-time ladder (MPL)", 1.00, 1.00, "timing, SPA schedule"},
      {"+ randomized projective coords", 1.01, 1.01, "DPA"},
      {"+ balanced mux encoding", 1.02, 1.03, "mux-control SPA"},
      {"+ uniform clock gating", 1.02, 1.12, "clock-gating SPA"},
      {"+ WDDL logic (synthesizable)",
       hw::LogicStyleOverhead::kWddl, 3.2, "residual DPA/SPA"},
      {"+ SABL logic (full custom)",
       hw::LogicStyleOverhead::kSabl, 2.1, "residual DPA/SPA"},
  };
  std::printf("%-36s %10s %10s   %s\n", "configuration", "area[GE]",
              "rel.power", "defeats");
  for (const auto& r : rows)
    std::printf("%-36s %10.0f %9.2fx   %s\n", r.what,
                base_area * r.area_factor, r.power_factor, r.beats);
  std::printf("\n\"skipping a countermeasure means opening the door for a "
              "possible attack\" — each row above is a decision, not an "
              "optimization.\n");
  return 0;
}
