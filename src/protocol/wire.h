// wire.h — message encoding and over-the-air accounting.
//
// §4: protocol energy has a computation part and a *communication* part
// ("the communication should be minimized since wireless communication is
// power-hungry"), so every protocol message here knows its exact encoded
// bit count. Field elements and scalars travel as 21-byte big-endian
// strings (163 bits round up); points travel X9.62-compressed (x plus one
// y-parity bit in a prefix byte).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ecc/curve.h"

namespace medsec::protocol {

inline constexpr std::size_t kFeBytes = 21;  // ceil(163 / 8)

/// Big-endian field-element encoding.
std::vector<std::uint8_t> encode_fe(const ecc::Fe& v);
ecc::Fe decode_fe(const std::vector<std::uint8_t>& bytes);

/// Big-endian scalar encoding (values < 2^168 expected, i.e. reduced).
std::vector<std::uint8_t> encode_scalar(const ecc::Scalar& v);
ecc::Scalar decode_scalar(const std::vector<std::uint8_t>& bytes);

/// Compressed point: 1 prefix byte (0x02 | y-bit, 0x00 for infinity) +
/// 21 bytes of x.
std::vector<std::uint8_t> encode_point(const ecc::Curve& curve,
                                       const ecc::Point& p);
/// The prefix and x of a compressed point, not yet decompressed: nullopt
/// unless `bytes` is 0x02 or 0x03 followed by an x with no bit above 162
/// set. The one parse behind decode_point and engine::decode_points_batch.
std::optional<ecc::Curve::Compressed> parse_point(
    std::span<const std::uint8_t> bytes);
/// Decompresses and *validates* the point (on-curve + subgroup): protocol
/// boundaries are exactly where invalid-point injection happens.
std::optional<ecc::Point> decode_point(const ecc::Curve& curve,
                                       const std::vector<std::uint8_t>& bytes);

/// One protocol message on the air.
struct Message {
  const char* label;
  std::vector<std::uint8_t> payload;
  std::size_t bits() const { return 8 * payload.size(); }
};

// Message labels: every label a protocol machine sends, defined once. The
// framed transport (engine/transport.h) accepts exactly these on the wire
// and hands back this storage, so a decoded label outlives its frame.
inline constexpr char kLabelCommitment[] = "commitment R";
inline constexpr char kLabelChallenge[] = "challenge e";
inline constexpr char kLabelResponse[] = "response s";
inline constexpr char kLabelTagNonce[] = "N_t";
inline constexpr char kLabelServerNonceMac[] = "N_s || MAC(SRV)";
inline constexpr char kLabelTagMacCiphertext[] =
    "MAC(TAG) || nonce || ct || MAC(ct)";
inline constexpr char kLabelEciesBlob[] = "ECIES blob";
inline constexpr std::array<std::string_view, 7> kMessageLabels = {
    kLabelCommitment, kLabelChallenge,      kLabelResponse,
    kLabelTagNonce,   kLabelServerNonceMac, kLabelTagMacCiphertext,
    kLabelEciesBlob};

/// A transcript: the adversary's view of a session, and the unit the
/// radio-energy model charges for.
struct Transcript {
  std::vector<Message> tag_to_reader;
  std::vector<Message> reader_to_tag;
  std::size_t tag_tx_bits() const {
    std::size_t b = 0;
    for (const auto& m : tag_to_reader) b += m.bits();
    return b;
  }
  std::size_t tag_rx_bits() const {
    std::size_t b = 0;
    for (const auto& m : reader_to_tag) b += m.bits();
    return b;
  }
};

/// Map a field element (an x-coordinate) to a scalar modulo the group
/// order — the "d = xcoord(r·Y)" step of the Peeters–Hermans protocol.
ecc::Scalar fe_to_scalar_mod_order(const ecc::Curve& curve, const ecc::Fe& v);

/// CTR/CMAC nonce width for a given cipher block size — the single source
/// of the wire-framing geometry every encryptor, parser and tap must agree
/// on (mutual auth move 3, the ECIES blob).
inline constexpr std::size_t cipher_nonce_bytes(std::size_t block_bytes) {
  return block_bytes > 4 ? block_bytes - 4 : 4;
}

}  // namespace medsec::protocol
