#include "core/secure_processor.h"

#include <stdexcept>

#include "ecc/ladder.h"
#include "ecc/scalar_mult.h"

namespace medsec::core {

namespace {

using ecc::Fe;
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

  PointMultOutcome out;
  std::uint64_t backoff = kFaultBackoffCycles;
  for (std::size_t attempt = 0;; ++attempt) {
    // The countermeasure-dependent inputs — masked base, (possibly
    // blinded) key bits, microcode options — come from the shared
    // planner, so this victim and the trace simulator's cycle-accurate
    // victim can never drift apart in draw order or encoding. A fresh
    // plan per attempt is the recovery policy's re-randomization: every
    // retry draws new blinds and randomizers from the DRBG.
    const sidechannel::HardenedCoprocPlan plan =
        sidechannel::plan_hardened_coproc_mult(*curve_, config_.ladder, k, p,
                                               drbg_, blinding_pair_,
                                               blinding_key_);

    bool detected = false;
    // Entry validation of the masked base (on-the-fly curve membership):
    // a corrupted blinding pair or masked point never reaches the ladder.
    if (config_.ladder.validate_points &&
        (plan.base.infinity || !curve_->is_on_curve(plan.base)))
      detected = true;

    hw::PointMultResult r{};
    bool ran = false;
    if (!detected) {
      r = coproc_.point_mult(plan.key_bits, plan.base.x, plan.options,
                             nullptr);
      out.cycles += r.exec.cycles;
      out.energy_j += r.energy_j;
      out.seconds += r.seconds;
      ran = true;
      // Cycle coherence against the compiled schedule constant — the
      // detector that catches computationally-absorbed glitches.
      if (config_.ladder.coherence_check &&
          r.exec.cycles !=
              coproc_.point_mult_cycles(plan.key_bits.size(), plan.options))
        detected = true;
    }

    // Insecure-zone software: y-recovery from the projective outputs.
    // The recovery validates the result against the curve equation — the
    // always-on fault canary, independent of the ladder config.
    Point result = Point::at_infinity();
    if (ran && !detected) {
      try {
        result = r.result_is_infinity
                     ? Point::at_infinity()
                     : ecc::recover_from_ladder(*curve_, plan.base, r.x1,
                                                r.z1, r.x2, r.z2);
      } catch (const std::logic_error&) {
        detected = true;
      }
    }

    if (config_.ladder.base_point_blinding && blinding_pair_) {
      if (!detected)
        result = curve_->add(result,
                             curve_->negate(blinding_pair_->correction()));
      // The pair advances even on a faulty run — a mask is burned the
      // moment it was used, recovered result or not.
      blinding_pair_->update(*curve_);
    }

    if (!detected) {
      out.result = result;
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

    // Detected fault: nothing leaves the device. Zeroize everything
    // (result register included — it may hold faulty key-dependent
    // state), and either retry after a doubling backoff or give up on a
    // persistent fault.
    ++out.faults_detected;
    coproc_.zeroize(/*keep_result=*/false);
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
