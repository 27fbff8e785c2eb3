// quickstart — the 60-second tour of the library.
//
// Builds the paper's protected ECC processor, runs a validated point
// multiplication on NIST K-163, prints the energy/latency telemetry that
// reproduces the §6 chip numbers, and finishes with a Diffie–Hellman-style
// key agreement between an implanted device and its mini-server.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/secure_processor.h"
#include "ecc/curve.h"
#include "rng/xoshiro.h"

int main() {
  using namespace medsec;

  const ecc::Curve& curve = ecc::Curve::k163();
  std::printf("curve: %s (order has %zu bits)\n\n", curve.name().c_str(),
              curve.order().bit_length());

  // The paper's artifact: co-processor with every countermeasure enabled.
  core::SecureEccProcessor device(
      curve, core::CountermeasureConfig::protected_default());
  std::printf("device area: %.0f GE (paper quotes ~12 kGE for an ECC core)\n",
              device.area_ge());

  // --- one point multiplication, with telemetry -----------------------------
  rng::Xoshiro256 rng(2013);
  const ecc::Scalar k = rng.uniform_nonzero(curve.order());
  const auto outcome = device.point_mult(k, curve.base_point());
  std::printf("\none point multiplication k*G:\n");
  std::printf("  cycles      : %zu\n", outcome.cycles);
  std::printf("  time        : %.1f ms   (paper: 1/9.8 s = 102 ms)\n",
              outcome.seconds * 1e3);
  std::printf("  energy      : %.2f uJ  (paper: 5.1 uJ)\n",
              outcome.energy_j * 1e6);
  std::printf("  avg power   : %.1f uW  (paper: 50.4 uW)\n",
              outcome.avg_power_w * 1e6);

  // --- ECDH-style key agreement ----------------------------------------------
  // Device and server each hold a secret; both arrive at the same shared
  // point. The device side runs on the modeled hardware; the server (the
  // "energy-rich" side of §4) uses plain software arithmetic.
  core::SecureEccProcessor server_side(
      curve, core::CountermeasureConfig::protected_default(), /*seed=*/99);
  const ecc::Scalar a = rng.uniform_nonzero(curve.order());  // device
  const ecc::Scalar b = rng.uniform_nonzero(curve.order());  // server

  const ecc::Point A = device.point_mult(a, curve.base_point()).result;
  const ecc::Point B =
      curve.scalar_mult_reference(b, curve.base_point());  // server: software

  const auto device_shared = device.point_mult(a, B);
  const ecc::Point server_shared = curve.scalar_mult_reference(b, A);

  std::printf("\nECDH-style agreement:\n");
  std::printf("  device computed  x(abG) = %s...\n",
              device_shared.result.x.to_hex().substr(0, 16).c_str());
  std::printf("  server computed  x(abG) = %s...\n",
              server_shared.x.to_hex().substr(0, 16).c_str());
  const bool agreed = device_shared.result == server_shared;
  std::printf("  shared secrets match: %s\n", agreed ? "yes" : "NO (bug!)");

  // --- what validation buys you ------------------------------------------------
  ecc::Point bogus = curve.base_point();
  bogus.y += ecc::Fe::one();  // off-curve point, e.g. an injected fault
  try {
    device.point_mult(a, bogus);
    std::printf("\ninvalid point accepted: THIS IS A BUG\n");
    return 1;
  } catch (const std::invalid_argument&) {
    std::printf("\noff-curve input point rejected before the key touched it "
                "(invalid-curve gate)\n");
  }
  return agreed ? 0 : 1;
}
