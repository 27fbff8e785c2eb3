// transport.h — framed datagram transport with a deterministic failure
// model.
//
// The protocols are specified over an idealized reader↔tag channel; the
// fleet gateway serves them over a real one, where loss, corruption,
// reordering and duplication are the common case. This layer defines the
// unit that crosses that channel:
//
//   frame := magic(2) | type(1) | flags(1) | session(8) | seq(4) |
//            label_len(1) | label | payload_len(2) | payload | crc32(4)
//
// Every frame is CRC-protected end to end, so a corrupted frame is
// *detected and dropped* at decode — corruption downgrades to loss, and
// loss is what the delivery layer (delivery.h) already repairs with
// retransmission. A corrupt frame must never reach a session machine; the
// chaos tests assert exactly that (zero accepted-corrupt frames at 5%
// corruption).
//
// LossyLink is the in-process chaos channel: a bidirectional pipe over a
// virtual-clock EventQueue whose fault schedule (drop / corrupt / reorder /
// duplicate / delay, per direction) is derived counter-based from a seed —
// fault decision n is a pure function of (seed, direction, n), so every
// chaos run is bit-reproducible regardless of how sessions interleave.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/counters.h"
#include "core/event_queue.h"

namespace medsec::engine {

/// IEEE 802.3 CRC-32 (reflected, init/final 0xFFFFFFFF) — the frame
/// integrity check. Not cryptographic: the MAC layers above guard against
/// adversaries; the CRC guards against the *channel*.
std::uint32_t crc32(std::span<const std::uint8_t> data);

enum class FrameType : std::uint8_t {
  kData = 1,    ///< one protocol message (label + payload)
  kAck = 2,     ///< cumulative ack: seq = highest in-order seq received
  kReject = 3,  ///< refusal verdict (shed, evicted, quarantined): do not retry
};

struct Frame {
  FrameType type = FrameType::kData;
  std::uint64_t session = 0;
  std::uint32_t seq = 0;
  /// One of protocol::kMessageLabels, or empty (kAck/kReject). Decoded
  /// frames point into that table, so the label outlives the frame.
  const char* label = "";
  std::vector<std::uint8_t> payload;
};

inline constexpr std::size_t kMaxFramePayload = 4096;
inline constexpr std::size_t kMaxFrameLabel = 255;

/// Thread-local free-list of frame byte buffers. Encoded frames are made
/// and destroyed once per datagram on the hot path; recycling the vectors
/// keeps their heap capacity alive so steady-state traffic allocates
/// nothing. acquire() returns an empty vector (capacity preserved from a
/// prior release); release() hands a spent buffer back. The pool is
/// per-thread — shards and front-end threads each recycle their own
/// buffers with no locking — and capped, so a burst can't pin memory.
/// Releasing is optional everywhere: an un-released buffer just frees
/// normally.
class FramePool {
 public:
  static std::vector<std::uint8_t> acquire();
  static void release(std::vector<std::uint8_t>&& buf);
  /// Buffers currently pooled on this thread (introspection for tests).
  static std::size_t pooled();
};

std::vector<std::uint8_t> encode_frame(const Frame& f);

/// The refusal verdict for `session` (a kReject frame, seq 0, no label or
/// payload): what a shed, a refused device or a full mailbox answers.
std::vector<std::uint8_t> encode_reject(std::uint64_t session);

/// Encode into an existing buffer (cleared first), reusing its capacity —
/// the zero-allocation path for pooled buffers.
void encode_frame_into(const Frame& f, std::vector<std::uint8_t>& out);

/// Strict decode: verifies magic, type, length consistency (the encoded
/// lengths must account for every byte), the trailing CRC and the label
/// (the protocol vocabulary or empty). Returns nullopt for anything
/// malformed — truncation, stray bytes, bit flips, unknown labels.
std::optional<Frame> decode_frame(std::span<const std::uint8_t> bytes);

/// Header peek: session id of an encoded frame, or nullopt when the bytes
/// cannot be a frame (short / bad magic). Reads the id field only — the
/// UDP router must not pay for a CRC walk per datagram; integrity is
/// checked once, by the owning shard's decode.
std::optional<std::uint64_t> peek_frame_session(
    std::span<const std::uint8_t> bytes);

/// Per-direction fault rates and delay band of a LossyLink. Rates are
/// probabilities in [0, 1]; delays are virtual cycles.
struct FaultProfile {
  double drop = 0.0;       ///< frame vanishes
  double corrupt = 0.0;    ///< one byte flipped (CRC will catch it)
  double duplicate = 0.0;  ///< frame delivered twice
  double reorder = 0.0;    ///< frame held back past its successors
  static constexpr core::Cycle delay_min = 8;
  static constexpr core::Cycle delay_max = 32;
};

struct LinkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  /// Deliveries whose bytes were corrupted in flight (>= corrupted: a
  /// duplicated corrupt frame is delivered twice). The receiver's decode
  /// failures must account for every one of these — the chaos campaign's
  /// zero-accepted-corrupt invariant.
  std::uint64_t corrupted_delivered = 0;
};
inline LinkStats& operator+=(LinkStats& a, const LinkStats& b) {
  return core::add_counters(a, b);
}

/// An in-process bidirectional datagram channel with scheduled delivery
/// and a seeded fault model. Directions: kUp = device -> gateway,
/// kDown = gateway -> device. Not thread-safe — a link lives inside one
/// shard's virtual world (see event_queue.h).
class LossyLink {
 public:
  enum Direction { kUp = 0, kDown = 1 };
  using Receiver = std::function<void(std::vector<std::uint8_t>)>;

  /// `queue` must outlive the link. `seed` fixes the complete fault
  /// schedule of both directions.
  LossyLink(core::EventQueue& queue, std::uint64_t seed,
            const FaultProfile& up, const FaultProfile& down);

  void set_receiver(Direction dir, Receiver r) {
    receivers_[dir] = std::move(r);
  }

  /// Queue one datagram. Fault decisions are made here (counter-based);
  /// delivery happens later via the event queue.
  void send(Direction dir, std::vector<std::uint8_t> bytes);

  const LinkStats& stats(Direction dir) const { return stats_[dir]; }

 private:
  /// The n-th fault word of a direction: rng::derive_word over the seed
  /// salted per direction. Independent lanes keep each decision (drop?
  /// corrupt? which byte? what delay?) from aliasing another's stream.
  std::uint64_t fault_word(Direction dir, std::uint64_t n,
                           std::uint64_t lane) const;

  void schedule_delivery(Direction dir, std::vector<std::uint8_t> bytes,
                         core::Cycle delay, bool corrupted);

  core::EventQueue* queue_;
  std::uint64_t seed_;
  FaultProfile profile_[2];
  Receiver receivers_[2];
  std::uint64_t counter_[2] = {0, 0};
  LinkStats stats_[2];
};

}  // namespace medsec::engine
