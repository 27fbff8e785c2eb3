#include "engine/net.h"

#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <poll.h>
#include <unistd.h>

namespace medsec::engine {

namespace {

/// Readiness-loop wakeup period — the stop flag is polled at this rate.
constexpr int kWaitMs = 20;

sockaddr_in to_sockaddr(const Peer& peer) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(peer.ip);
  a.sin_port = htons(peer.port);
  return a;
}

}  // namespace

// --- UdpSocket ---------------------------------------------------------------

UdpSocket::UdpSocket(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("UdpSocket: socket() failed");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  // A 100k-session load test bursts far past the default socket buffer;
  // ask for room (the kernel clamps to its own ceiling, best-effort).
  const int buf = 4 * 1024 * 1024;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("UdpSocket: bind() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpSocket::send_to(const Peer& peer,
                        std::span<const std::uint8_t> bytes) {
  const sockaddr_in a = to_sockaddr(peer);
  const ssize_t n =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&a), sizeof(a));
  return n == static_cast<ssize_t>(bytes.size());
}

bool UdpSocket::recv_from(std::vector<std::uint8_t>& out, Peer& peer) {
  sockaddr_in a{};
  socklen_t len = sizeof(a);
  const ssize_t n = ::recvfrom(fd_, rx_.data(), rx_.size(), 0,
                               reinterpret_cast<sockaddr*>(&a), &len);
  if (n < 0) {
    out.clear();
    return false;  // EAGAIN or a transient error: nothing ready
  }
  out.assign(rx_.data(), rx_.data() + n);
  peer.ip = ntohl(a.sin_addr.s_addr);
  peer.port = ntohs(a.sin_port);
  return true;
}

// --- UdpFrontEnd -------------------------------------------------------------

UdpFrontEnd::UdpFrontEnd(ShardFleet& fleet, std::uint16_t port)
    : fleet_(&fleet), socket_(port) {}

UdpFrontEnd::~UdpFrontEnd() { stop(); }

void UdpFrontEnd::start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void UdpFrontEnd::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void UdpFrontEnd::send_downlink(std::uint64_t /*session*/, const Peer& peer,
                                std::vector<std::uint8_t> bytes) {
  if (socket_.send_to(peer, bytes))
    stats_.add<&UdpFrontEndStats::datagrams_out>();
  else
    stats_.add<&UdpFrontEndStats::send_failures>();
  // The encode path drew from the pool; recycle on this (shard) thread.
  FramePool::release(std::move(bytes));
}

void UdpFrontEnd::shed_reject(std::uint64_t session, const Peer& peer) {
  stats_.add<&UdpFrontEndStats::shed>();
  std::vector<std::uint8_t> bytes = encode_reject(session);
  socket_.send_to(peer, bytes);
  FramePool::release(std::move(bytes));
}

void UdpFrontEnd::drain_socket() {
  // Drain to EAGAIN: poll is level-triggered but one pass per
  // wakeup costs a syscall per datagram anyway — loop until dry.
  for (;;) {
    std::vector<std::uint8_t> bytes = FramePool::acquire();
    Peer peer;
    if (!socket_.recv_from(bytes, peer)) {
      FramePool::release(std::move(bytes));
      return;
    }
    stats_.add<&UdpFrontEndStats::datagrams_in>();
    const std::optional<std::uint64_t> session = peek_frame_session(bytes);
    if (!session) {
      // Not even a frame header: drop silently. (A frame with a valid
      // header but mangled body reaches the shard, whose CRC rejects it
      // — that path must stay identical to the deterministic stack's.)
      stats_.add<&UdpFrontEndStats::not_a_frame>();
      FramePool::release(std::move(bytes));
      continue;
    }
    IngressItem item;
    item.session = *session;
    item.peer = peer;
    item.bytes = std::move(bytes);
    if (!fleet_->offer(/*lane=*/0, std::move(item))) {
      // Mailbox full: explicit backpressure. offer() does not consume on
      // failure, but the reply needs only the id and return address.
      shed_reject(*session, peer);
      FramePool::release(std::move(item.bytes));
    }
  }
}

void UdpFrontEnd::loop() {
  // One socket to watch, so poll(2) on every platform. Any readiness
  // (data or a pending socket error) drains: recvfrom consumes the error,
  // so it cannot keep poll returning at once.
  pollfd pfd{socket_.fd(), POLLIN, 0};
  while (!stop_.load(std::memory_order_acquire)) {
    pfd.revents = 0;
    if (::poll(&pfd, 1, kWaitMs) > 0) drain_socket();
  }
  // Final sweep: datagrams that raced the stop flag still get routed.
  drain_socket();
}

}  // namespace medsec::engine
