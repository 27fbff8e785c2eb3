// technology.h — CMOS technology calibration for the energy/power model.
//
// The paper's prototype is fabricated in UMC 0.13 µm and measured at
// 847.5 kHz / 1.0 V: 50.4 µW average power, 5.1 µJ and 1/9.8 s per point
// multiplication (§6). We do not have the ASIC; we have a cycle-accurate
// model of it. This header holds the *single* calibration point that turns
// model cycles and switching activity into joules: everything downstream
// (digit-size sweeps, protocol energy, radio trade-offs) derives from these
// constants, so the reproduction matches the paper where the paper gives a
// number and extrapolates with a defensible physical model where it does not.
#pragma once

#include <cstdint>

namespace medsec::hw {

/// One CMOS process + operating point.
struct Technology {
  const char* name;
  double vdd_volts;          ///< core supply
  double clock_hz;           ///< operating frequency
  /// Dynamic energy of one gate-equivalent (2-input NAND) switching once,
  /// in joules. For a 0.13 µm process at 1.0 V this is on the order of a
  /// few femtojoules; the exact value is calibrated below so that the
  /// modeled co-processor reproduces the paper's measured 50.4 µW.
  double energy_per_ge_toggle_j;
  /// Static (leakage) power per gate equivalent, in watts. Small at
  /// 0.13 µm but non-zero; it is what the idle device pays.
  double leakage_w_per_ge;
  /// Area of one gate equivalent in µm² (UMC 0.13 µm standard cell NAND2).
  double um2_per_ge;

  /// Energy of one clock cycle given the number of gate-equivalent toggles
  /// in that cycle and the total gate count (for leakage).
  constexpr double cycle_energy_j(double ge_toggles, double total_ge) const {
    return ge_toggles * energy_per_ge_toggle_j +
           leakage_w_per_ge * total_ge / clock_hz;
  }

  /// The paper's operating point. The toggle energy is calibrated so that
  /// the modeled ECC co-processor (digit size 4, ~12 kGE, measured average
  /// switching activity) consumes 50.4 µW at 847.5 kHz — see
  /// tests/test_hw.cpp:CalibrationReproducesPaperPower.
  static constexpr Technology umc130() {
    return Technology{
        .name = "UMC 0.13um @ 1.0V, 847.5 kHz",
        .vdd_volts = 1.0,
        .clock_hz = 847'500.0,
        .energy_per_ge_toggle_j = 11.7e-15,
        .leakage_w_per_ge = 0.45e-9,
        .um2_per_ge = 5.12,
    };
  }
};

}  // namespace medsec::hw
