// snapshot.h — session state serialization for failover.
//
// The gateway's failure model includes node death: a shard that owns a
// thousand suspended sessions can disappear, and the sessions must complete
// on a replacement server without the devices noticing anything beyond a
// retransmit. That requires every SessionMachine to externalize its private
// state — nonces, half-built transcripts, ledgers, flags — into a byte
// string a fresh machine can be rebuilt from.
//
// Format: a flat, versioned, length-checked byte stream. Primitives are
// little-endian fixed-width; vectors are u32-length-prefixed. No type tags
// per field — the reader and writer are the same code walking the same
// struct, and the leading magic/version plus the exhausted() check at the
// end catch any drift. Machines serialize only what they OWN: references
// to process-lifetime objects (curve, reader DB, RNG) and the cipher suite
// are re-bound by constructing the replacement machine with the same
// arguments before calling restore().
//
// Snapshot bytes are part of the compatibility surface — the golden tests
// pin their digests the same way wire transcripts are pinned.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigint/biguint.h"
#include "ecc/curve.h"

namespace medsec::protocol {

struct EnergyLedger;

/// Thrown by SnapshotReader on truncated, oversized, or malformed input —
/// a corrupt snapshot must fail restore(), never half-apply.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v);  // bit-exact via the IEEE-754 image

  void bytes(std::span<const std::uint8_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    out_.insert(out_.end(), v.begin(), v.end());
  }

  void scalar(const ecc::Scalar& v) {
    for (std::size_t i = 0; i < ecc::Scalar::kLimbs; ++i) u64(v.limb(i));
  }
  void fe(const ecc::Fe& v);
  void point(const ecc::Point& p);
  void ledger(const EnergyLedger& l);

  const std::vector<std::uint8_t>& data() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::span<const std::uint8_t> data) : in_(data) {}

  std::uint8_t u8() {
    need(1);
    return in_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(in_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(in_[pos_++]) << (8 * i);
    return v;
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw SnapshotError("bad boolean");
    return v != 0;
  }
  double f64();

  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::uint8_t> v(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                in_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return v;
  }

  ecc::Scalar scalar() {
    ecc::Scalar v;
    for (std::size_t i = 0; i < ecc::Scalar::kLimbs; ++i)
      v.set_limb(i, u64());
    return v;
  }
  ecc::Fe fe();
  ecc::Point point();
  void ledger(EnergyLedger& l);

  /// True when every byte has been consumed — restore() paths assert this
  /// so trailing garbage is rejected, not ignored.
  bool exhausted() const { return pos_ == in_.size(); }
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (in_.size() - pos_ < n) throw SnapshotError("truncated");
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

}  // namespace medsec::protocol
