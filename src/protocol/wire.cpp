#include "protocol/wire.h"

#include <stdexcept>

#include "ecc/point_arith.h"

namespace medsec::protocol {

namespace {
using bigint::U192;
using ecc::Curve;
using ecc::Fe;
using ecc::Point;
using ecc::Scalar;
}  // namespace

std::vector<std::uint8_t> encode_fe(const Fe& v) {
  const U192 bits = v.to_bits();
  std::vector<std::uint8_t> out(kFeBytes);
  for (std::size_t i = 0; i < kFeBytes; ++i) {
    const std::size_t byte_index = kFeBytes - 1 - i;  // big-endian
    out[byte_index] =
        static_cast<std::uint8_t>(bits.limb(i / 8) >> (8 * (i % 8)));
  }
  return out;
}

Fe decode_fe(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != kFeBytes)
    throw std::invalid_argument("decode_fe: bad length");
  U192 bits;
  for (std::size_t i = 0; i < kFeBytes; ++i) {
    const std::size_t byte_index = kFeBytes - 1 - i;
    bits.set_limb(i / 8, bits.limb(i / 8) |
                             (static_cast<std::uint64_t>(bytes[byte_index])
                              << (8 * (i % 8))));
  }
  // Bits above 162 must be clear in a valid encoding.
  for (std::size_t b = 163; b < 168; ++b)
    if (bits.bit(b)) throw std::invalid_argument("decode_fe: stray high bits");
  return Fe::from_bits(bits);
}

std::vector<std::uint8_t> encode_scalar(const Scalar& v) {
  std::vector<std::uint8_t> out(kFeBytes);
  for (std::size_t i = 0; i < kFeBytes; ++i) {
    const std::size_t byte_index = kFeBytes - 1 - i;
    out[byte_index] =
        static_cast<std::uint8_t>(v.limb(i / 8) >> (8 * (i % 8)));
  }
  return out;
}

Scalar decode_scalar(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != kFeBytes)
    throw std::invalid_argument("decode_scalar: bad length");
  Scalar v;
  for (std::size_t i = 0; i < kFeBytes; ++i) {
    const std::size_t byte_index = kFeBytes - 1 - i;
    v.set_limb(i / 8, v.limb(i / 8) |
                          (static_cast<std::uint64_t>(bytes[byte_index])
                           << (8 * (i % 8))));
  }
  return v;
}

std::vector<std::uint8_t> encode_point(const Curve& curve, const Point& p) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + kFeBytes);
  if (p.infinity) {
    out.assign(1 + kFeBytes, 0x00);
    return out;
  }
  const auto c = curve.compress(p);
  out.push_back(static_cast<std::uint8_t>(0x02 | c.y_bit));
  const auto xb = encode_fe(c.x);
  out.insert(out.end(), xb.begin(), xb.end());
  return out;
}

std::optional<Point> decode_point(const Curve& curve,
                                  const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != 1 + kFeBytes) return std::nullopt;
  if (bytes[0] == 0x00) return std::nullopt;  // infinity is never a valid
                                              // protocol point
  if (bytes[0] != 0x02 && bytes[0] != 0x03) return std::nullopt;
  Fe x;
  try {
    x = decode_fe({bytes.begin() + 1, bytes.end()});
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  // Decompression and the subgroup gate on one field backend.
  return gf2m::with_field_ops([&]<class Ops>(Ops) {
    return ecc::PointArith<Ops>::decode(curve, {x, bytes[0] & 1});
  });
}

Scalar fe_to_scalar_mod_order(const Curve& curve, const Fe& v) {
  return curve.scalar_ring().reduce(v.to_bits());
}

}  // namespace medsec::protocol
