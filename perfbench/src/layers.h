// layers.h — per-operation timings of the lower layers (gf2m, ecc, point
// decode, batch verifier, frame codec, mailbox), each taken on operands
// captured from the workload that just ran.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "ecc/curve.h"
#include "protocol/schnorr.h"

namespace perfbench {

struct LayerOperands {
  std::vector<medsec::ecc::Point> points;   ///< decoded workload points
  std::vector<medsec::ecc::Scalar> scalars; ///< workload scalars
  std::vector<std::vector<std::uint8_t>> point_wires;  ///< compressed
  /// Schnorr transcripts as the workload produced them (forged included),
  /// with the key each must verify against.
  std::vector<medsec::protocol::SchnorrTranscript> transcripts;
  std::vector<medsec::ecc::Point> keys;
  std::vector<std::vector<std::uint8_t>> frames;  ///< encoded frames
};

/// Adds gf2m.*, ecc.*, verifier.{batch64_us_per_item,single_us,
/// decode_us_per_point}, transport.{encode,decode}_ns and mailbox.hop_ns.
/// Checks that the timed operations return the expected results.
void add_layer_metrics(const medsec::ecc::Curve& curve,
                       const LayerOperands& ops, std::uint64_t seed,
                       Result& r);

}  // namespace perfbench
