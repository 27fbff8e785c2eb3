// delivery.h — reliable, in-order message delivery over a lossy framed
// transport.
//
// transport.h turns corruption into loss; this layer repairs loss. One
// ReliableEndpoint sits on each side of a LossyLink and gives the protocol
// machines the channel they were specified over: every message arrives
// exactly once, in order, or the endpoint declares the session failed.
//
// Mechanics (classic ARQ, sized for a 3–5 message protocol exchange):
//   - sender: bounded in-flight window; each unacked frame carries a
//     retransmit timer on the shard's virtual-clock EventQueue with
//     exponential backoff and seeded jitter; frames beyond the window wait
//     in a backlog.
//   - receiver: cumulative acks (`ack.seq` = next expected sequence);
//     out-of-order frames inside the window are buffered, stale ones
//     suppressed and re-acked (the ack, not the data, was lost), frames
//     beyond it dropped unacked — whatever the peer sends.
//
// The invariant the chaos tests lean on: retransmission happens HERE, on
// stored encoded frames — a protocol machine is stepped exactly once per
// unique message no matter how many times the channel mangled it. That is
// why ledgers and transcripts at 20% loss are bit-identical to the
// faultless run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/counters.h"
#include "core/event_queue.h"
#include "engine/transport.h"

namespace medsec::protocol {
class SnapshotWriter;
class SnapshotReader;
}  // namespace medsec::protocol

namespace medsec::engine {

struct DeliveryConfig {
  /// Max unacked data frames in flight; a conforming peer is never
  /// further ahead, so it is also the receive window.
  static constexpr std::size_t window = 4;
  core::Cycle rto_initial = 64;    ///< first retransmit timeout
  core::Cycle rto_max = 4096;      ///< backoff ceiling
  static constexpr double backoff = 2.0;  ///< RTO multiplier per retry
  static constexpr std::uint32_t max_retries = 24;  ///< then it gives up
};

struct DeliveryStats {
  std::uint64_t data_sent = 0;        ///< first transmissions
  std::uint64_t retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t delivered = 0;        ///< unique in-order messages surfaced
  std::uint64_t dup_suppressed = 0;   ///< stale/duplicate data frames
  std::uint64_t decode_failures = 0;  ///< frames the CRC/codec rejected
  std::uint64_t out_of_window = 0;    ///< data frames past the receive window
};
inline DeliveryStats& operator+=(DeliveryStats& a, const DeliveryStats& b) {
  return core::add_counters(a, b);
}

/// One side of a reliable session channel. Not thread-safe: lives inside
/// one shard's virtual world, driven by its EventQueue.
class ReliableEndpoint {
 public:
  /// Raw encoded frames headed for the channel.
  using FrameSink = std::function<void(std::vector<std::uint8_t>)>;
  /// Unique in-order kData frames, surfaced exactly once each.
  using MessageSink = std::function<void(const Frame&)>;
  /// Terminal failure: retry budget exhausted, or the peer sent kReject.
  using FailureSink = std::function<void()>;

  ReliableEndpoint(core::EventQueue& queue, std::uint64_t session,
                   std::uint64_t seed, const DeliveryConfig& config = {});
  ~ReliableEndpoint();

  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  void set_frame_sink(FrameSink s) { frame_sink_ = std::move(s); }
  void set_message_sink(MessageSink s) { message_sink_ = std::move(s); }
  void set_failure_sink(FailureSink s) { failure_sink_ = std::move(s); }

  /// Queue one protocol message for reliable delivery (assigns the next
  /// sequence number; transmits now if the window has room).
  void send_message(const char* label, std::vector<std::uint8_t> payload);

  /// Declare the session refused — emits one (unreliable) kReject frame.
  void send_reject();

  /// Feed raw bytes that came off the channel.
  void on_bytes(std::vector<std::uint8_t> raw);

  /// No frames in flight, none backlogged.
  bool idle() const { return in_flight_.empty() && backlog_.empty(); }
  bool failed() const { return failed_; }
  std::uint64_t session() const { return session_; }
  const DeliveryStats& stats() const { return stats_; }

  /// Failover support: serialize sender/receiver sequence state and every
  /// pending frame. restore() re-arms fresh retransmit timers (timer
  /// handles are process state, not session state).
  void snapshot(protocol::SnapshotWriter& w) const;
  void restore(protocol::SnapshotReader& r);

 private:
  struct InFlight {
    std::vector<std::uint8_t> bytes;  ///< encoded frame, retransmitted as-is
    std::uint32_t retries = 0;
    core::EventId timer = core::kInvalidEvent;
  };

  void transmit(std::uint32_t seq);
  void arm_timer(std::uint32_t seq);
  void on_timer(std::uint32_t seq);
  void handle_ack(std::uint32_t next_expected);
  void handle_data(Frame f);
  void send_ack();
  void fail();
  core::Cycle rto_for(std::uint32_t seq, std::uint32_t retries) const;

  core::EventQueue* queue_;
  std::uint64_t session_;
  std::uint64_t seed_;
  DeliveryConfig config_;

  FrameSink frame_sink_;
  MessageSink message_sink_;
  FailureSink failure_sink_;

  // Sender half.
  std::uint32_t next_seq_ = 0;               ///< next sequence to assign
  std::map<std::uint32_t, InFlight> in_flight_;
  /// Encoded, pre-window: the newest seqs, so front = next_seq_ - size.
  /// A vector, not a deque: it allocates nothing while empty, which is
  /// every session's steady state (a machine sends at most two messages
  /// per direction, inside the window).
  std::vector<std::vector<std::uint8_t>> backlog_;

  // Receiver half.
  std::uint32_t recv_next_ = 0;              ///< all seq < this delivered
  std::map<std::uint32_t, Frame> reorder_;   ///< in-window, out-of-order

  bool failed_ = false;
  DeliveryStats stats_;
};

}  // namespace medsec::engine
