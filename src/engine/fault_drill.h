// fault_drill.h — the end-to-end fault campaign: a fleet of hardened
// devices under a seeded glitch adversary, proving graceful degradation.
//
// The eval matrix (sidechannel/eval.h) scores fault attacks against a
// single victim; this drill asks the systems question instead: when a
// fleet of devices is being glitched at a fixed rate mid-deployment, does
// anything FAULTY ever leave a device? The contract under test:
//
//   * every released point multiplication equals the referee's k·P
//     (faulty_released == 0 — the drill's headline claim);
//   * transient glitches recover transparently (detect → zeroize →
//     re-randomize blinds → retry under the bounded budget);
//   * persistent damage (a stuck-at that re-arms on every subsequent
//     operation) exhausts the budget, releases NOTHING, and each such
//     failure is reported to the operator's DeviceRegistry, which
//     quarantines the device at DeviceRegistry::kFaultThreshold — later
//     sessions for it are refused at open;
//   * the protocol layer only ever runs on released (hence verified-
//     clean) results, so the handshake mix (Schnorr / Peeters–Hermans /
//     mutual-auth / ECIES, session gid runs protocol gid % 4) stays
//     sound under fire.
//
// Determinism is the LossyLink/chaos-campaign contract: every decision —
// whether a session is glitched, which fault lands, every scalar and
// protocol nonce — is counter-derived from the seed via the
// hw::FaultInjector's derivation lanes. Work is sharded by DEVICE (each
// device's state evolves in session order inside one shard), and
// per-session outcomes are merged in session order, so the digest is
// bit-identical for any thread count and any field-arithmetic backend.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/secure_processor.h"
#include "ecc/curve.h"

namespace medsec::engine {

/// The drill's device profile: the paper's shipped chip with every fault
/// detector armed — entry point validation, cycle coherence, and the
/// always-on recovery canary.
core::CountermeasureConfig fault_drill_processor_config();

struct FaultDrillConfig {
  std::size_t sessions = 1024;
  std::size_t devices = 32;  ///< session gid belongs to device gid % devices
  /// Probability that a session's point multiplication is glitched.
  double fault_rate = 0.05;
  std::uint64_t seed = 0xFA017D21;
  /// parallel_for fan-out over devices: 0 = shared pool, 1 = serial.
  std::size_t threads = 0;
  core::CountermeasureConfig processor = fault_drill_processor_config();
};

enum class DrillOutcome : std::uint8_t {
  kClean = 0,        ///< released, no detector tripped
  kRecovered = 1,    ///< released after >=1 detected fault and retry
  kUnrecovered = 2,  ///< retry budget exhausted; nothing released
  kRefused = 3,      ///< device already quarantined; session never opened
};

struct FaultDrillResult {
  std::size_t sessions = 0;
  std::size_t clean = 0;
  std::size_t recovered = 0;
  std::size_t unrecovered = 0;
  std::size_t refused = 0;
  std::uint64_t faults_injected = 0;  ///< armed specs, permanent re-arms included
  std::uint64_t faults_detected = 0;  ///< detector trips, all attempts
  std::uint64_t retries = 0;          ///< recovery re-executions
  /// Released results that differ from the referee's k·P. The drill's
  /// whole claim is that this is 0 — a detected fault suppresses release,
  /// and an undetected fault never survives the recovery canary.
  std::size_t faulty_released = 0;
  std::size_t devices_quarantined = 0;
  std::size_t protocol_accepted = 0;  ///< handshakes run on released results
  std::size_t protocol_failed = 0;
  /// FNV-1a over every per-session outcome (code, fault counters,
  /// released x, protocol verdict) in session order.
  std::uint64_t digest = 0;
};

/// Run the seeded fault campaign. Deterministic: same curve + config ⇒
/// identical result (digest included) for any thread count.
FaultDrillResult run_fault_drill(const ecc::Curve& curve,
                                 const FaultDrillConfig& config);

}  // namespace medsec::engine
