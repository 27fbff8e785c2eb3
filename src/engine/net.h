// net.h — the real-socket front end for the sharded gateway.
//
// Everything below shard.h is deterministic and in-process; this file is
// the one place real I/O happens. A UdpFrontEnd owns one UDP socket and
// one readiness-loop thread (poll(2) on its one socket) that:
//
//   1. drains every ready datagram without blocking,
//   2. peeks the session id straight out of the frame header
//      (transport.h's peek_frame_session — no full decode, no CRC walk,
//      on the hot path),
//   3. routes the raw bytes into shard_of(session)'s mailbox lane, and
//   4. on a full lane, sheds: one kReject frame straight back to the
//      sender from the readiness thread. Backpressure is a verdict the
//      device can see, never a silently growing queue.
//
// Downlink is the Transport interface: shard threads call send_downlink,
// which is a bare sendto — UDP sends are datagram-atomic and thread-safe,
// so N shards share the socket without a lock.
//
// The frame codec, CRC discipline, ARQ and session logic are all the
// in-process stack's; the front end moves bytes and owns no protocol
// state. A corrupted datagram is detected by the same CRC path the
// deterministic chaos campaign exercises.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/counters.h"
#include "engine/shard.h"
#include "engine/transport.h"

namespace medsec::engine {

/// RAII nonblocking UDP/IPv4 socket. Thin: bind, sendto, recvfrom, close.
/// Throws std::runtime_error when the kernel refuses (socket/bind).
/// Any number of threads may send on one socket; only one thread receives
/// on it (the front end's readiness thread, or a client's own thread),
/// because every receive lands in the socket's one staging buffer.
class UdpSocket {
 public:
  /// Largest possible encoded frame: header(16) + label_len(1) + label +
  /// payload_len(2) + payload + crc(4). Longer datagrams are truncated.
  static constexpr std::size_t kMaxDatagram =
      16 + 1 + kMaxFrameLabel + 2 + kMaxFramePayload + 4;

  /// Bind to 127.0.0.1:`port` (0 = kernel-assigned ephemeral port).
  explicit UdpSocket(std::uint16_t port = 0);
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  int fd() const { return fd_; }
  std::uint16_t local_port() const { return port_; }

  /// One datagram out. Returns false on a transient refusal (full socket
  /// buffer — UDP's version of shedding); throws nothing on the hot path.
  bool send_to(const Peer& peer, std::span<const std::uint8_t> bytes);

  /// One datagram in (nonblocking). Returns false, with `out` cleared,
  /// when nothing is ready. Otherwise `out` holds exactly the datagram's
  /// bytes (its earlier contents are discarded) and `peer` the sender.
  /// Call it from the socket's one receiving thread.
  bool recv_from(std::vector<std::uint8_t>& out, Peer& peer);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  /// The kernel copies into this buffer; `out` then takes only the bytes
  /// that arrived, so a receive never zero-fills or grows a buffer to the
  /// maximum frame size.
  std::array<std::uint8_t, kMaxDatagram> rx_{};
};

/// Counters the front end publishes while running
/// (core::PublishedCounters). Its readiness thread writes them, except
/// datagrams_out and send_failures (every shard thread).
struct UdpFrontEndStats {
  std::uint64_t datagrams_in = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t not_a_frame = 0;   ///< failed the header peek; dropped
  std::uint64_t shed = 0;          ///< mailbox full -> kReject sent back
  std::uint64_t send_failures = 0; ///< sendto refused (full buffer)
};

/// The socket front end: one readiness loop feeding a ShardFleet's
/// mailboxes, and the fleet's downlink Transport. The fleet must be
/// constructed with `producers` >= 1 (the readiness thread uses lane 0).
class UdpFrontEnd final : public Transport {
 public:
  /// Binds immediately (port 0 = ephemeral; read local_port()).
  UdpFrontEnd(ShardFleet& fleet, std::uint16_t port = 0);
  ~UdpFrontEnd() override;

  std::uint16_t local_port() const { return socket_.local_port(); }

  /// Start the readiness loop thread. Idempotent.
  void start();
  /// Stop and join the loop. Idempotent; the destructor calls it.
  void stop();

  // Transport: shard threads' downlink path. Lock-free — sendto on a
  // shared UDP socket is datagram-atomic.
  void send_downlink(std::uint64_t session, const Peer& peer,
                     std::vector<std::uint8_t> bytes) override;

  /// The counters so far. Safe to call from any thread.
  UdpFrontEndStats stats() const { return stats_.load(); }

 private:
  void loop();
  void drain_socket();
  void shed_reject(std::uint64_t session, const Peer& peer);

  ShardFleet* fleet_;
  UdpSocket socket_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  core::PublishedCounters<UdpFrontEndStats> stats_;
};

}  // namespace medsec::engine
