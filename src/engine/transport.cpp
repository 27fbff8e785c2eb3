#include "engine/transport.h"

#include <array>
#include <string_view>
#include <utility>

#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace medsec::engine {

// --- CRC-32 ------------------------------------------------------------------

namespace {

// Slicing-by-8 (Kounavis and Berry, IEEE Trans. Computers 2008): table k
// holds the CRC contribution of a byte with k more bytes of its 8-byte chunk
// after it, so one chunk costs eight independent lookups. Table 0 is the
// bytewise table; each next one is derived from it.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Little-endian word of p[0..3], assembled from bytes on any host.
std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// --- frame buffer pool -------------------------------------------------------

namespace {

// Per-thread recycling keeps the pool lock-free; the caps bound what one
// thread can pin (64 buffers x ~4.4 KB max frame ≈ 280 KB worst case).
constexpr std::size_t kPoolMaxBuffers = 64;
constexpr std::size_t kPoolMaxCapacity =
    kMaxFramePayload + kMaxFrameLabel + 64;

std::vector<std::vector<std::uint8_t>>& pool_freelist() {
  thread_local std::vector<std::vector<std::uint8_t>> freelist;
  return freelist;
}

}  // namespace

std::vector<std::uint8_t> FramePool::acquire() {
  auto& fl = pool_freelist();
  if (fl.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(fl.back());
  fl.pop_back();
  buf.clear();
  return buf;
}

void FramePool::release(std::vector<std::uint8_t>&& buf) {
  auto& fl = pool_freelist();
  if (fl.size() >= kPoolMaxBuffers || buf.capacity() == 0 ||
      buf.capacity() > kPoolMaxCapacity)
    return;  // drop: the vector frees normally
  fl.push_back(std::move(buf));
}

std::size_t FramePool::pooled() { return pool_freelist().size(); }

// --- frame codec -------------------------------------------------------------

namespace {

constexpr std::uint8_t kMagic0 = 0x4D;  // 'M'
constexpr std::uint8_t kMagic1 = 0x46;  // 'F' — medsec frame
constexpr std::size_t kHeaderBytes = 2 + 1 + 1 + 8 + 4;  // up to label_len
constexpr std::size_t kSessionAt = 4;  // after magic, type and flags
constexpr std::size_t kCrcBytes = 4;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  return v;
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  return v;
}

/// A wire label's stable storage: its vocabulary entry, "" for acks and
/// rejects, nullptr (malformed) for a label no machine sends.
const char* known_label(std::string_view label) {
  if (label.empty()) return "";
  for (const std::string_view known : protocol::kMessageLabels)
    if (label == known) return known.data();
  return nullptr;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  std::vector<std::uint8_t> out = FramePool::acquire();
  encode_frame_into(f, out);
  return out;
}

std::vector<std::uint8_t> encode_reject(std::uint64_t session) {
  Frame reject;
  reject.type = FrameType::kReject;
  reject.session = session;
  return encode_frame(reject);
}

void encode_frame_into(const Frame& f, std::vector<std::uint8_t>& out) {
  const std::string_view label = f.label ? f.label : "";
  out.clear();
  out.reserve(kHeaderBytes + 1 + label.size() + 2 + f.payload.size() +
              kCrcBytes);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(static_cast<std::uint8_t>(f.type));
  out.push_back(0);  // flags, reserved
  put_u64(out, f.session);
  put_u32(out, f.seq);
  out.push_back(static_cast<std::uint8_t>(
      label.size() <= kMaxFrameLabel ? label.size() : kMaxFrameLabel));
  out.insert(out.end(), label.begin(),
             label.begin() + static_cast<std::ptrdiff_t>(
                                 out.back()));
  out.push_back(static_cast<std::uint8_t>(f.payload.size() & 0xFF));
  out.push_back(static_cast<std::uint8_t>(f.payload.size() >> 8));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  put_u32(out, crc32(out));
}

std::optional<Frame> decode_frame(std::span<const std::uint8_t> bytes) {
  // Minimum: header + label_len(=0) + payload_len + crc.
  if (bytes.size() < kHeaderBytes + 1 + 2 + kCrcBytes) return std::nullopt;
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) return std::nullopt;
  if (bytes[3] != 0) return std::nullopt;  // reserved flags must be clear

  // CRC first: a bit flip anywhere (including in the length fields used
  // below) must read as channel noise, not as a different frame.
  const std::uint32_t want =
      get_u32(bytes, bytes.size() - kCrcBytes);
  if (crc32(bytes.first(bytes.size() - kCrcBytes)) != want)
    return std::nullopt;

  Frame f;
  switch (bytes[2]) {
    case static_cast<std::uint8_t>(FrameType::kData):
      f.type = FrameType::kData;
      break;
    case static_cast<std::uint8_t>(FrameType::kAck):
      f.type = FrameType::kAck;
      break;
    case static_cast<std::uint8_t>(FrameType::kReject):
      f.type = FrameType::kReject;
      break;
    default:
      return std::nullopt;
  }
  f.session = get_u64(bytes, kSessionAt);
  f.seq = get_u32(bytes, 12);

  std::size_t at = kHeaderBytes;
  const std::size_t label_len = bytes[at++];
  if (bytes.size() < at + label_len + 2 + kCrcBytes) return std::nullopt;
  f.label = known_label(std::string_view(
      reinterpret_cast<const char*>(bytes.data() + at), label_len));
  if (f.label == nullptr) return std::nullopt;
  at += label_len;
  const std::size_t payload_len =
      bytes[at] | (static_cast<std::size_t>(bytes[at + 1]) << 8);
  at += 2;
  if (payload_len > kMaxFramePayload) return std::nullopt;
  // Exact-length check: every byte before the CRC must be accounted for.
  if (at + payload_len + kCrcBytes != bytes.size()) return std::nullopt;
  f.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(at + payload_len));
  return f;
}

std::optional<std::uint64_t> peek_frame_session(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes || bytes[0] != kMagic0 ||
      bytes[1] != kMagic1)
    return std::nullopt;
  return get_u64(bytes, kSessionAt);
}

// --- lossy link --------------------------------------------------------------

LossyLink::LossyLink(core::EventQueue& queue, std::uint64_t seed,
                     const FaultProfile& up, const FaultProfile& down)
    : queue_(&queue), seed_(seed) {
  profile_[kUp] = up;
  profile_[kDown] = down;
}

std::uint64_t LossyLink::fault_word(Direction dir, std::uint64_t n,
                                    std::uint64_t lane) const {
  const std::uint64_t salt =
      dir == kUp ? 0x5555555555555555ULL : 0xAAAAAAAAAAAAAAAAULL;
  return rng::derive_word(seed_ ^ salt, n, lane);
}

void LossyLink::schedule_delivery(Direction dir,
                                  std::vector<std::uint8_t> bytes,
                                  core::Cycle delay, bool corrupted) {
  queue_->schedule(
      delay, [this, dir, corrupted, bytes = std::move(bytes)]() mutable {
        ++stats_[dir].delivered;
        if (corrupted) ++stats_[dir].corrupted_delivered;
        if (receivers_[dir]) receivers_[dir](std::move(bytes));
      });
}

void LossyLink::send(Direction dir, std::vector<std::uint8_t> bytes) {
  const FaultProfile& p = profile_[dir];
  const std::uint64_t n = counter_[dir]++;
  ++stats_[dir].sent;

  if (p.drop > 0 && rng::to_unit(fault_word(dir, n, 0)) < p.drop) {
    ++stats_[dir].dropped;
    return;
  }

  bool corrupted = false;
  if (p.corrupt > 0 && rng::to_unit(fault_word(dir, n, 1)) < p.corrupt &&
      !bytes.empty()) {
    // Flip one derived bit of one derived byte — enough for the CRC to
    // catch, deterministic enough to replay.
    const std::uint64_t w = fault_word(dir, n, 2);
    bytes[static_cast<std::size_t>(w % bytes.size())] ^=
        static_cast<std::uint8_t>(1u << ((w >> 32) % 8));
    ++stats_[dir].corrupted;
    corrupted = true;
  }

  constexpr core::Cycle band =
      FaultProfile::delay_max - FaultProfile::delay_min + 1;
  core::Cycle delay = p.delay_min + fault_word(dir, n, 3) % band;
  if (p.reorder > 0 && rng::to_unit(fault_word(dir, n, 4)) < p.reorder) {
    // Hold the frame back past its successors' delay band.
    delay += p.delay_max * (2 + fault_word(dir, n, 5) % 3);
    ++stats_[dir].reordered;
  }

  if (p.duplicate > 0 && rng::to_unit(fault_word(dir, n, 6)) < p.duplicate) {
    core::Cycle dup_delay = p.delay_min + fault_word(dir, n, 7) % band;
    ++stats_[dir].duplicated;
    // Copy into a pooled buffer: the original is sent below.
    std::vector<std::uint8_t> dup = FramePool::acquire();
    dup.assign(bytes.begin(), bytes.end());
    schedule_delivery(dir, std::move(dup), dup_delay, corrupted);
  }
  schedule_delivery(dir, std::move(bytes), delay, corrupted);
}

}  // namespace medsec::engine
