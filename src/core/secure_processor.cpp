#include "core/secure_processor.h"

#include <stdexcept>
#include <string>

namespace medsec::core {

namespace {

using ecc::Point;
using ecc::Scalar;

std::array<std::uint8_t, 8> seed_bytes(std::uint64_t seed) {
  std::array<std::uint8_t, 8> b{};
  for (int i = 0; i < 8; ++i)
    b[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seed >> (8 * i));
  return b;
}

hw::CoprocessorConfig to_hw_config(const CountermeasureConfig& c) {
  hw::CoprocessorConfig hc;
  hc.digit_size = c.digit_size;
  hc.secure = c.circuit;
  return hc;
}

}  // namespace

CountermeasureConfig CountermeasureConfig::unprotected() {
  CountermeasureConfig c;
  c.ladder = LadderCountermeasures::none();
  c.zeroize_after_use = false;
  c.circuit.balanced_mux_encoding = false;
  c.circuit.uniform_clock_gating = false;
  c.circuit.isolate_datapath_inputs = false;
  return c;
}

CountermeasureConfig CountermeasureConfig::hardened() {
  CountermeasureConfig c;
  c.ladder = LadderCountermeasures::full();
  return c;
}

SecureEccProcessor::SecureEccProcessor(const ecc::Curve& curve,
                                       const CountermeasureConfig& config,
                                       std::uint64_t seed)
    : curve_(&curve), config_(config), seed_(seed),
      root_(curve, config, seed) {}

SecureEccProcessor::Session SecureEccProcessor::open_session(
    std::uint64_t session_seed) const {
  // splitmix-style diversification keeps distinct sessions' DRBG streams
  // independent even for adjacent session seeds.
  std::uint64_t mixed = seed_ ^ (session_seed * 0x9E3779B97F4A7C15ULL);
  mixed ^= mixed >> 31;
  return Session(*curve_, config_, mixed);
}

SecureEccProcessor::Session::Session(const ecc::Curve& curve,
                                     const CountermeasureConfig& config,
                                     std::uint64_t seed)
    : curve_(&curve), config_(config), coproc_(to_hw_config(config)),
      drbg_(seed_bytes(seed)) {}

PointMultOutcome SecureEccProcessor::Session::point_mult(const Scalar& k,
                                                         const Point& p) {
  // Trust boundary (§5's insecure zone, but validation is mandatory):
  // reject off-curve, small-subgroup and infinity inputs before the key
  // ever meets the data. The exact order·P check is kept here (not the
  // cofactor fast path): this boundary models the fielded chip's
  // fault-attack gate, and the full multiplication is what the paper's
  // controller runs.
  if (!curve_->validate_subgroup_point_exact(p))
    throw std::invalid_argument(
        "SecureEccProcessor::point_mult: invalid input point");

  // The controller never answers a detection with a release, so the
  // infective response stays off whatever the config says.
  sidechannel::CountermeasureConfig gate = config_.ladder;
  gate.infective_computation = false;

  PointMultOutcome out;
  std::uint64_t backoff = kFaultBackoffCycles;
  for (std::size_t attempt = 0;; ++attempt) {
    // Every attempt plans afresh — the recovery policy's re-randomization:
    // a retry draws new blinds and randomizers from the DRBG.
    const sidechannel::VictimRelease run = sidechannel::guarded_coproc_mult(
        *curve_, gate, coproc_, k, p, drbg_, blinding_pair_, blinding_key_);
    out.cycles += run.cycles;
    out.energy_j += run.energy_j;
    out.seconds += run.seconds;

    // A failed y-recovery is a fault even when the config arms no
    // detector: the always-on canary of the insecure-zone software.
    if (!run.detected && run.recovered) {
      out.result = run.result;
      out.avg_power_w =
          out.seconds > 0.0 ? out.energy_j / out.seconds : 0.0;
      if (config_.zeroize_after_use) {
        // Result stays in X1 (it is the output); everything else is
        // cleared through the cached compiled fragment (energy-only sink
        // — the controller discards this step's telemetry).
        coproc_.zeroize(/*keep_result=*/true);
      }
      return out;
    }

    // Detected fault: nothing leaves the device. The guarded run has
    // zeroized everything on its own detections; a catch of the canary
    // alone is this controller's to clear. Then either retry after a
    // doubling backoff or give up on a persistent fault.
    ++out.faults_detected;
    if (!run.detected) coproc_.zeroize(/*keep_result=*/false);
    if (attempt == kFaultRetryBudget)
      throw std::logic_error(
          "SecureEccProcessor::point_mult: fault persisted after " +
          std::to_string(kFaultRetryBudget) +
          " recovery retries; session quarantine required");
    ++out.retries;
    out.cycles += backoff;
    out.seconds +=
        static_cast<double>(backoff) / coproc_.config().tech.clock_hz;
    backoff *= 2;
  }
}

}  // namespace medsec::core
