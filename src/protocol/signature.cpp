#include "protocol/signature.h"

#include "ecc/fixed_base.h"
#include "ecc/scalar_mult.h"
#include "hash/sha256.h"
#include "protocol/tag_mult.h"
#include "protocol/wire.h"

namespace medsec::protocol {

namespace {

using ecc::Curve;
using ecc::Point;
using ecc::Scalar;

/// e = H(xcoord(R) || m) reduced into the scalar ring. Non-zero is
/// enforced by rejection (astronomically rare; loops by re-hashing with a
/// counter byte so signing stays deterministic given r).
Scalar challenge_scalar(const Curve& curve, const ecc::Fe& rx,
                        std::span<const std::uint8_t> message,
                        EnergyLedger* ledger) {
  const auto rx_bytes = encode_fe(rx);
  std::uint8_t counter = 0;
  for (;;) {
    hash::Sha256 h;
    h.update(rx_bytes);
    h.update(message);
    h.update({&counter, 1});
    const auto d = h.finish();
    if (ledger)
      ledger->hash_blocks += (rx_bytes.size() + message.size() + 1 + 63) / 64;
    // Take 168 bits little-endian from the digest, reduce mod l.
    Scalar e;
    for (std::size_t i = 0; i < 21; ++i)
      e.set_limb(i / 8,
                 e.limb(i / 8) |
                     (static_cast<std::uint64_t>(d[i]) << (8 * (i % 8))));
    e = curve.scalar_ring().reduce(e);
    if (!e.is_zero()) return e;
    ++counter;
  }
}

}  // namespace

SignatureKeyPair signature_keygen(const Curve& curve,
                                  rng::RandomSource& rng) {
  SignatureKeyPair kp;
  kp.x = rng.uniform_nonzero(curve.order());
  kp.X = ecc::generator_comb(curve).mult_ct(kp.x);
  return kp;
}

Signature ec_schnorr_sign(const Curve& curve, const SignatureKeyPair& key,
                          std::span<const std::uint8_t> message,
                          rng::RandomSource& rng, EnergyLedger* ledger) {
  const auto& ring = curve.scalar_ring();
  for (;;) {
    const Scalar r = rng.uniform_nonzero(curve.order());
    if (ledger) ledger->rng_bits += 163;
    const Point R = tag_mult(curve, r, kGenerator, rng, ledger, nullptr);
    if (R.infinity) continue;  // r = 0 mod l, impossible by construction

    const Scalar e = challenge_scalar(curve, R.x, message, ledger);
    const Scalar s = ring.add(r, ring.mul(e, key.x));
    if (ledger) {
      ++ledger->modmul;
      ++ledger->modadd;
    }
    if (s.is_zero()) continue;  // degenerate, re-randomize
    return Signature{e, s};
  }
}

bool ec_schnorr_verify(const Curve& curve, const Point& X,
                       std::span<const std::uint8_t> message,
                       const Signature& sig) {
  if (sig.e.is_zero() || sig.s.is_zero()) return false;
  if (sig.e >= curve.order() || sig.s >= curve.order()) return false;
  if (!curve.validate_subgroup_point(X)) return false;
  // R' = s·P − e·X, one interleaved double-scalar multiplication.
  const Point r = ecc::double_scalar_mult(curve, sig.s, curve.base_point(),
                                          curve.scalar_ring().neg(sig.e), X);
  if (r.infinity) return false;
  return challenge_scalar(curve, r.x, message, nullptr) == sig.e;
}

}  // namespace medsec::protocol
