// tag_mult.h — the one point multiplication a device runs in a protocol
// flow (the Schnorr and Peeters–Hermans commitments, PH's r·Y, ECIES's R
// and Z, the EC-Schnorr signature's R), and its energy charge.
#pragma once

#include "ecc/curve.h"
#include "protocol/energy_ledger.h"
#include "rng/random_source.h"
#include "sidechannel/countermeasures.h"

namespace medsec::protocol {

/// `p` for k·G: the generator is named, never inferred by comparing a
/// point with G (a recipient key equal to G still rides the RPC ladder).
inline constexpr const ecc::Point* kGenerator = nullptr;

/// k·p on the device (k·G for kGenerator), charged to `ledger` if set:
/// 1 ECPM plus the engine's rng bits — 0 on the fixed-base comb (k·G),
/// 2·163 on the RPC ladder (any other p), or the per-mult draws of
/// `hardened`, an optional caller-owned countermeasure engine that then
/// carries the multiplication — and 2 ECPM + 163 bits more when that
/// engine re-provisioned its base-blinding pair on this call. The caller
/// draws the scalar and charges its 163 bits.
ecc::Point tag_mult(const ecc::Curve& curve, const ecc::Scalar& k,
                    const ecc::Point* p, rng::RandomSource& rng,
                    EnergyLedger* ledger,
                    sidechannel::HardenedLadder* hardened);

}  // namespace medsec::protocol
