#include "engine/delivery.h"

#include <algorithm>
#include <utility>

#include "protocol/snapshot.h"
#include "rng/xoshiro.h"

namespace medsec::engine {

ReliableEndpoint::ReliableEndpoint(core::EventQueue& queue,
                                   std::uint64_t session, std::uint64_t seed,
                                   const DeliveryConfig& config)
    : queue_(&queue), session_(session), seed_(seed), config_(config) {}

ReliableEndpoint::~ReliableEndpoint() {
  for (auto& [seq, f] : in_flight_) queue_->cancel(f.timer);
}

core::Cycle ReliableEndpoint::rto_for(std::uint32_t seq,
                                      std::uint32_t retries) const {
  double rto = static_cast<double>(config_.rto_initial);
  for (std::uint32_t i = 0; i < retries; ++i) {
    rto *= config_.backoff;
    if (rto >= static_cast<double>(config_.rto_max)) break;
  }
  auto cycles = static_cast<core::Cycle>(
      std::min(rto, static_cast<double>(config_.rto_max)));
  // Seeded jitter in [0, rto/4): desynchronizes retransmit storms without
  // breaking determinism — the jitter is a pure function of
  // (seed, session, seq, retries).
  std::uint64_t s = seed_ ^ (session_ * 0x9E3779B97F4A7C15ULL) ^
                    (static_cast<std::uint64_t>(seq) << 32) ^ retries;
  const std::uint64_t w = rng::splitmix64(s);
  return cycles + (cycles >= 4 ? w % (cycles / 4) : 0);
}

void ReliableEndpoint::send_message(const char* label,
                                    std::vector<std::uint8_t> payload) {
  if (failed_) return;
  Frame f;
  f.type = FrameType::kData;
  f.session = session_;
  f.seq = next_seq_++;
  f.label = label ? label : "";
  f.payload = std::move(payload);
  std::vector<std::uint8_t> bytes = encode_frame(f);
  if (in_flight_.size() < config_.window) {
    in_flight_[f.seq] = InFlight{std::move(bytes), 0, core::kInvalidEvent};
    transmit(f.seq);
  } else {
    backlog_.push_back(std::move(bytes));
  }
}

void ReliableEndpoint::send_reject() {
  Frame f;
  f.type = FrameType::kReject;
  f.session = session_;
  f.seq = recv_next_;
  if (frame_sink_) frame_sink_(encode_frame(f));
}

void ReliableEndpoint::transmit(std::uint32_t seq) {
  auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) return;
  if (it->second.retries == 0)
    ++stats_.data_sent;
  else
    ++stats_.retransmits;
  if (frame_sink_) {
    // The stored frame must survive for retransmission, so the sink gets
    // a copy — made into a pooled buffer, so steady-state (re)transmits
    // allocate nothing.
    std::vector<std::uint8_t> wire = FramePool::acquire();
    wire.assign(it->second.bytes.begin(), it->second.bytes.end());
    frame_sink_(std::move(wire));
  }
  arm_timer(seq);
}

void ReliableEndpoint::arm_timer(std::uint32_t seq) {
  auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) return;
  queue_->cancel(it->second.timer);
  it->second.timer = queue_->schedule(rto_for(seq, it->second.retries),
                                      [this, seq] { on_timer(seq); });
}

void ReliableEndpoint::on_timer(std::uint32_t seq) {
  auto it = in_flight_.find(seq);
  if (it == in_flight_.end() || failed_) return;  // acked meanwhile
  it->second.timer = core::kInvalidEvent;
  if (++it->second.retries > config_.max_retries) {
    fail();
    return;
  }
  transmit(seq);
}

void ReliableEndpoint::fail() {
  if (failed_) return;
  failed_ = true;
  for (auto& [seq, f] : in_flight_) queue_->cancel(f.timer);
  in_flight_.clear();
  backlog_.clear();
  if (failure_sink_) failure_sink_();
}

void ReliableEndpoint::handle_ack(std::uint32_t next_expected) {
  // Cumulative: everything below `next_expected` has been received.
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (it->first < next_expected) {
      queue_->cancel(it->second.timer);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  // Window space freed — promote backlog frames, oldest first.
  while (!backlog_.empty() && in_flight_.size() < config_.window) {
    const auto seq =
        static_cast<std::uint32_t>(next_seq_ - backlog_.size());
    in_flight_[seq] =
        InFlight{std::move(backlog_.front()), 0, core::kInvalidEvent};
    backlog_.erase(backlog_.begin());
    transmit(seq);
  }
}

void ReliableEndpoint::send_ack() {
  Frame ack;
  ack.type = FrameType::kAck;
  ack.session = session_;
  ack.seq = recv_next_;
  ++stats_.acks_sent;
  if (frame_sink_) frame_sink_(encode_frame(ack));
}

void ReliableEndpoint::handle_data(Frame f) {
  if (f.seq < recv_next_ || reorder_.count(f.seq)) {
    // Already have it — our ack was lost, not the data. Re-ack.
    ++stats_.dup_suppressed;
    send_ack();
    return;
  }
  if (f.seq - recv_next_ >= config_.window) {
    // No conforming sender is this far ahead: dropped unacked, so a peer
    // that never fills the gap cannot grow the reorder buffer.
    ++stats_.out_of_window;
    return;
  }
  reorder_.emplace(f.seq, std::move(f));
  // Drain the in-order prefix.
  for (auto it = reorder_.begin();
       it != reorder_.end() && it->first == recv_next_;
       it = reorder_.erase(it), ++recv_next_) {
    ++stats_.delivered;
    if (message_sink_) message_sink_(it->second);
    if (failed_) return;  // sink declared the session dead mid-drain
  }
  send_ack();
}

void ReliableEndpoint::on_bytes(std::vector<std::uint8_t> raw) {
  if (failed_) return;
  auto f = decode_frame(raw);
  // decode_frame copies what it needs; the wire buffer is spent either
  // way and goes back to the pool.
  FramePool::release(std::move(raw));
  if (!f) {
    ++stats_.decode_failures;  // corruption already downgraded to loss
    return;
  }
  if (f->session != session_) return;  // misrouted
  switch (f->type) {
    case FrameType::kData:
      handle_data(std::move(*f));
      break;
    case FrameType::kAck:
      handle_ack(f->seq);
      break;
    case FrameType::kReject:
      fail();
      break;
  }
}

void ReliableEndpoint::snapshot(protocol::SnapshotWriter& w) const {
  w.u32(next_seq_);
  w.u32(recv_next_);
  w.boolean(failed_);
  // The counters travel too: they are session accounting, and the chaos
  // invariant (corrupted deliveries == decode failures) must keep summing
  // across a failover.
  w.u64(stats_.data_sent);
  w.u64(stats_.retransmits);
  w.u64(stats_.acks_sent);
  w.u64(stats_.delivered);
  w.u64(stats_.dup_suppressed);
  w.u64(stats_.decode_failures);
  w.u64(stats_.out_of_window);
  w.u32(static_cast<std::uint32_t>(in_flight_.size()));
  for (const auto& [seq, f] : in_flight_) {
    w.u32(seq);
    w.u32(f.retries);
    w.bytes(f.bytes);
  }
  w.u32(static_cast<std::uint32_t>(backlog_.size()));
  for (const auto& b : backlog_) w.bytes(b);
  w.u32(static_cast<std::uint32_t>(reorder_.size()));
  for (const auto& [seq, f] : reorder_) w.bytes(encode_frame(f));
}

void ReliableEndpoint::restore(protocol::SnapshotReader& r) {
  for (auto& [seq, f] : in_flight_) queue_->cancel(f.timer);
  in_flight_.clear();
  backlog_.clear();
  reorder_.clear();

  next_seq_ = r.u32();
  recv_next_ = r.u32();
  failed_ = r.boolean();
  stats_.data_sent = r.u64();
  stats_.retransmits = r.u64();
  stats_.acks_sent = r.u64();
  stats_.delivered = r.u64();
  stats_.dup_suppressed = r.u64();
  stats_.decode_failures = r.u64();
  stats_.out_of_window = r.u64();
  const std::uint32_t n_flight = r.u32();
  for (std::uint32_t i = 0; i < n_flight; ++i) {
    const std::uint32_t seq = r.u32();
    InFlight f;
    f.retries = r.u32();
    f.bytes = r.bytes();
    in_flight_.emplace(seq, std::move(f));
  }
  const std::uint32_t n_backlog = r.u32();
  for (std::uint32_t i = 0; i < n_backlog; ++i) backlog_.push_back(r.bytes());
  const std::uint32_t n_reorder = r.u32();
  for (std::uint32_t i = 0; i < n_reorder; ++i) {
    auto f = decode_frame(r.bytes());
    if (!f) throw protocol::SnapshotError("delivery: bad buffered frame");
    reorder_.emplace(f->seq, std::move(*f));
  }
  // Timer handles are process state, not session state: re-arm every
  // in-flight frame from its recorded retry count.
  if (!failed_)
    for (auto& [seq, f] : in_flight_) arm_timer(seq);
}

}  // namespace medsec::engine
