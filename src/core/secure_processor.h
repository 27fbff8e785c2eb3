// secure_processor.h — the paper's artifact as one object: a low-energy,
// physically protected elliptic-curve processor for medical devices.
//
// This is the public face of the library. It composes
//   * the secure zone: the cycle-accurate co-processor (hw::Coprocessor)
//     with its circuit-level countermeasures (§6),
//   * the device RNG: an HMAC-DRBG seeding the §7 projective-coordinate
//     randomization,
//   * the insecure zone: controller software doing the key-independent
//     steps (point validation, y-recovery, zeroization sequencing — §5's
//     secure/insecure partition),
// behind a validated point-multiplication API with energy telemetry. The
// countermeasure set is explicit configuration, because the paper's whole
// argument is that each one is a design *decision* with an
// area/power/security price.
//
// The chip's fault gate is not written here: each attempt is one
// sidechannel::guarded_coproc_mult, the same guarded execution the eval
// matrix attacks. This class keeps only the controller's policy around
// it — the exact subgroup gate on the input, the always-on y-recovery
// canary (a failed recovery is a fault even with no detector armed), no
// release on detection (infective response off), zeroize-after-use,
// telemetry accumulation, and the retry/backoff/throw budget.
#pragma once

#include <cstdint>
#include <optional>

#include "ecc/curve.h"
#include "hw/coprocessor.h"
#include "rng/hmac_drbg.h"
#include "sidechannel/countermeasures.h"

namespace medsec::core {

/// The algorithm-level ladder defenses (RPC, scalar blinding, base-point
/// blinding, shuffled scheduling) live in one unified config shared with
/// the trace simulator and the evaluation matrix.
using LadderCountermeasures = sidechannel::CountermeasureConfig;

/// Graceful degradation under detected faults (the §5 controller's
/// recovery policy). A detection — ladder-invariant canary, or cycle
/// coherence when ladder.coherence_check is set — zeroizes the register
/// file, re-randomizes every blind (fresh DRBG draws on the next plan),
/// waits out a backoff, and retries. The budget bounds how many retries a
/// persistent (stuck-at) fault can consume before the session gives up
/// and throws; nothing is ever released from a detected-faulty run.
inline constexpr std::size_t kFaultRetryBudget = 2;  ///< retries, then throw
inline constexpr std::uint64_t kFaultBackoffCycles = 4096;  ///< doubles

/// Every countermeasure the paper discusses, one switch each, grouped by
/// the abstraction level that owns it (the "security pyramid" of §3). The
/// ladder itself is always the constant-time Montgomery ladder over a
/// padded scalar: the chip has no other schedule.
struct CountermeasureConfig {
  // Algorithm level (§4/§7): the unified ladder-countermeasure set. The
  // paper's shipped chip enables exactly RPC; the other switches are the
  // evaluation matrix's extensions.
  LadderCountermeasures ladder = LadderCountermeasures::rpc_only();
  // Architecture level (§5).
  std::size_t digit_size = 4;         ///< the 163x4 MALU choice
  bool zeroize_after_use = true;      ///< no key-derived residue in regs
  // Circuit level (§6).
  hw::SecureConfig circuit;           ///< mux encoding / gating / isolation

  /// The paper's shipped configuration (everything on).
  static CountermeasureConfig protected_default() { return {}; }
  /// Everything off: the DPA/SPA-vulnerable strawman the benches attack.
  static CountermeasureConfig unprotected();
  /// The paper's chip plus every ladder-level defense this layer adds.
  static CountermeasureConfig hardened();
};

/// One point multiplication's outcome + telemetry. Cycles / energy /
/// seconds accumulate across fault-recovery retries (backoff included):
/// the ledger charges what the device actually spent, not just the
/// attempt that succeeded. The co-processor runs on its energy-only path:
/// a caller that wants per-cycle records drives hw::Coprocessor with a
/// hw::RecordSink (or sidechannel::capture_cycle_trace) instead.
struct PointMultOutcome {
  ecc::Point result;
  std::size_t cycles = 0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double seconds = 0.0;
  std::size_t faults_detected = 0;  ///< detector trips during this call
  std::size_t retries = 0;          ///< recovery re-executions performed
};

class SecureEccProcessor {
 public:
  /// A reentrant per-session execution handle: its own co-processor
  /// register file and its own DRBG stream. The engine layer opens one
  /// per protocol session so concurrent sessions never share mutable
  /// state (the processor facade itself keeps no per-operation state) —
  /// the paper's chip serves one link, the fleet server model needs
  /// thousands of independent ones.
  class Session {
   public:
    Session(const ecc::Curve& curve, const CountermeasureConfig& config,
            std::uint64_t seed);

    /// Validated k·P. Throws std::invalid_argument if P is not a valid
    /// prime-order subgroup point (invalid-curve / small-subgroup gate).
    /// A detected fault (ladder-invariant canary, cycle coherence)
    /// zeroizes, re-randomizes blinds and retries up to kFaultRetryBudget
    /// times with doubling backoff; when the budget is exhausted — a
    /// persistent fault — it throws std::logic_error with nothing
    /// released. Transient glitches recover transparently
    /// (outcome.retries > 0 is the only trace).
    PointMultOutcome point_mult(const ecc::Scalar& k, const ecc::Point& p);

    /// Arm / clear a physical fault on this session's co-processor — the
    /// fault-drill and test hook (a fielded chip has no such port).
    void arm_fault(const hw::FaultSpec& fault) { coproc_.arm_fault(fault); }
    void disarm_fault() { coproc_.disarm_fault(); }

    const hw::Coprocessor& coprocessor() const { return coproc_; }
    double area_ge() const { return coproc_.area_ge(); }

   private:
    const ecc::Curve* curve_;
    CountermeasureConfig config_;
    hw::Coprocessor coproc_;
    rng::HmacDrbg drbg_;
    /// Base-point-blinding state: the (R, S = k·R) update pair, rebuilt
    /// when the session multiplies under a different key.
    std::optional<sidechannel::BaseBlindingPair> blinding_pair_;
    ecc::Scalar blinding_key_{};
  };

  /// `seed` initializes the device DRBG (models the provisioning-time
  /// entropy; production would reseed from the TRNG).
  SecureEccProcessor(const ecc::Curve& curve,
                     const CountermeasureConfig& config,
                     std::uint64_t seed = 0x5EC0'FFEE);

  const ecc::Curve& curve() const { return *curve_; }
  const CountermeasureConfig& config() const { return config_; }
  double area_ge() const { return root_.area_ge(); }

  /// Open an independent session handle. `session_seed` diversifies the
  /// handle's DRBG from the device seed (a fielded chip would mix in the
  /// TRNG); handles are safe to drive from different threads.
  Session open_session(std::uint64_t session_seed) const;

  /// Single-threaded facade: the device's root session.
  PointMultOutcome point_mult(const ecc::Scalar& k, const ecc::Point& p) {
    return root_.point_mult(k, p);
  }

  /// Direct read of the co-processor register file (white-box evaluation
  /// and the ISA audit; a fielded chip has no such port).
  const hw::Coprocessor& coprocessor() const { return root_.coprocessor(); }

 private:
  const ecc::Curve* curve_;
  CountermeasureConfig config_;
  std::uint64_t seed_;
  Session root_;
};

}  // namespace medsec::core
