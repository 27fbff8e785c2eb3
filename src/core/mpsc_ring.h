// mpsc_ring.h — bounded lock-free rings for shard mailboxes.
//
// The sharded gateway's ingress path (net.h front-end thread -> shard
// event loop) must not take a mutex per datagram: at 100k+ sessions the
// mailbox is the hottest cross-thread edge in the process. Two shapes:
//
//   * SpscRing<T> — the classic single-producer/single-consumer bounded
//     ring: one atomic head, one atomic tail, each written by exactly one
//     side, padded onto separate cache lines. push/pop are wait-free (one
//     acquire load + one release store each).
//   * MpscRing<T> — many producers into one consumer, built as one
//     SpscRing per producer rather than a CAS loop on a shared tail: each
//     producer owns its lane outright, so producers never contend with
//     each other, and the consumer drains lanes round-robin for fairness.
//
// Backpressure is explicit: try_push returns false on a full ring and the
// caller decides (the front end sheds the datagram with a kReject, never
// blocks the readiness loop). Capacities round up to a power of two so
// the index wrap is a mask, not a modulo.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace medsec::core {

inline constexpr std::size_t kCacheLine = 64;

inline constexpr std::size_t ceil_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Bounded wait-free single-producer/single-consumer ring. Exactly one
/// thread may call try_push and exactly one may call try_pop; which
/// threads those are may change only across a synchronization point.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : mask_(ceil_pow2(capacity < 2 ? 2 : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. False = ring full (caller sheds).
  bool try_push(T&& v) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    // Full when the slot one lap ahead is still unconsumed.
    if (t - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (t - head_cache_ > mask_) return false;
    }
    slots_[t & mask_] = std::move(v);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. False = ring empty.
  bool try_pop(T& out) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (h == tail_cache_) return false;
    }
    out = std::move(slots_[h & mask_]);
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side size estimate (exact when called by the consumer with
  /// the producer quiescent).
  std::size_t size_approx() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  const std::size_t mask_;
  std::vector<T> slots_;
  // Producer-owned line: tail plus its cached view of head.
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
  // Consumer-owned line: head plus its cached view of tail.
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
};

/// Many producers, one consumer: one SpscRing lane per producer, drained
/// round-robin. A producer pushes into its own lane by index (lane
/// ownership is the caller's contract — e.g. one lane per front-end
/// thread), so the hot path has zero inter-producer contention.
template <typename T>
class MpscRing {
 public:
  MpscRing(std::size_t producers, std::size_t capacity_per_producer) {
    lanes_.reserve(producers ? producers : 1);
    for (std::size_t i = 0; i < (producers ? producers : 1); ++i)
      lanes_.push_back(
          std::make_unique<SpscRing<T>>(capacity_per_producer));
  }

  std::size_t producers() const { return lanes_.size(); }

  /// Push from producer `lane` (must be < producers(); each lane has
  /// exactly one producing thread). False = that lane is full.
  bool try_push(std::size_t lane, T&& v) {
    return lanes_[lane]->try_push(std::move(v));
  }

  /// Consumer: pop one item, scanning lanes round-robin from where the
  /// last pop left off so a chatty lane cannot starve the others.
  bool try_pop(T& out) {
    const std::size_t n = lanes_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lane = (next_lane_ + i) % n;
      if (lanes_[lane]->try_pop(out)) {
        next_lane_ = (lane + 1) % n;
        return true;
      }
    }
    return false;
  }

  /// Consumer: drain up to `limit` items into `fn`. Returns count.
  template <typename Fn>
  std::size_t drain(Fn&& fn, std::size_t limit = SIZE_MAX) {
    std::size_t n = 0;
    T item;
    while (n < limit && try_pop(item)) {
      fn(std::move(item));
      ++n;
    }
    return n;
  }

  std::size_t size_approx() const {
    std::size_t n = 0;
    for (const auto& l : lanes_) n += l->size_approx();
    return n;
  }

 private:
  std::vector<std::unique_ptr<SpscRing<T>>> lanes_;
  std::size_t next_lane_ = 0;  // consumer-owned
};

}  // namespace medsec::core
