// event_queue.h — a deterministic virtual-clock event scheduler.
//
// The gateway's failure model (retransmit timers, exponential backoff, link
// delays, session deadlines) is all about *time*, and timeout logic tested
// against wall-clock sleeps is both slow and flaky. Everything here runs on
// a virtual clock instead: components schedule callbacks at future cycle
// counts, and the owner pumps the queue. Two properties make chaos runs
// bit-reproducible:
//
//   * total order — events fire in (time, insertion sequence) order, so two
//     events scheduled for the same cycle fire in the order they were
//     scheduled, never in hash-map or heap-internal order;
//   * single-threaded discipline — one queue is one shard's world; the
//     campaign engine scales by running many independent shard queues on
//     the thread pool and merging results in shard order (the PR 3
//     determinism contract), never by sharing a queue across threads.
//
// Cancellation is the common case, not the exception: every data frame
// arms a retransmit timer, and nearly every one is cancelled by its ack,
// because the RTO is sized above the round trip and only a lost frame's
// timer runs out (Varghese and Lauck, "Hashed and Hierarchical Timing
// Wheels", SOSP 1987, make the same observation of protocol timers).
// So the queue is an indexed binary min-heap: each pending event owns a
// slot that records its heap position, and cancel() sifts the entry out in
// O(log n) and frees its callback at once. A lazily cancelled entry would
// instead stay in the heap for a whole RTO, and every ack would pay for
// the cancelled ids queued ahead of it.
//
// The idiom follows the teesoe-style component scheduler the ROADMAP names
// for the shard event loops: a monotonic cycle counter, schedule/cancel,
// and a run loop the owner controls.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace medsec::core {

/// Virtual time unit. One "cycle" is whatever the owner says it is — the
/// gateway treats it as one radio-symbol-ish tick; only ratios matter.
using Cycle = std::uint64_t;

class EventQueue {
 public:
  /// A slot index (low 32 bits) and that slot's generation (high 32 bits,
  /// never 0), so kInvalidEvent is no event's id.
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Cycle now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Schedule `fn` to run `delay` cycles from now. Returns a handle that
  /// stays valid until the event fires or is cancelled; a fired or
  /// cancelled event's id is never reused.
  EventId schedule(Cycle delay, std::function<void()> fn) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slots_[slot].fn = std::move(fn);
    heap_.push_back(Entry{now_ + delay, next_seq_++, slot});
    sift_up(heap_.size() - 1);
    return (static_cast<EventId>(slots_[slot].gen) << 32) | slot;
  }

  /// Cancel a pending event: its entry leaves the heap and its callback
  /// is destroyed before this returns. Returns false, and changes nothing,
  /// for kInvalidEvent and for fired, cancelled or stale ids.
  bool cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (gen == 0 || slot >= slots_.size() || slots_[slot].gen != gen)
      return false;
    remove_at(slots_[slot].pos);
    // Destroyed at scope exit, with the queue already consistent: the
    // callback's captures may reach back into this queue.
    const std::function<void()> fn = release(slot);
    return true;
  }

  /// Run the earliest pending event, advancing the clock to its deadline.
  /// Returns false when nothing is pending.
  bool run_next() {
    if (heap_.empty()) return false;
    const Entry top = heap_.front();
    remove_at(0);
    // Move the callback out and free its slot before running it: the
    // callback may schedule new events (reusing the slot) or cancel others.
    const std::function<void()> fn = release(top.slot);
    now_ = top.at;
    fn();
    return true;
  }

  /// Run every event with deadline <= t, then advance the clock to t.
  void run_until(Cycle t) {
    while (!heap_.empty() && heap_.front().at <= t) run_next();
    if (now_ < t) now_ = t;
  }

  /// Drain the queue completely, with a safety valve against runaway
  /// event chains (a retransmit loop that never converges). Returns the
  /// number of events run; hitting `limit` leaves the rest pending.
  std::uint64_t run_all(std::uint64_t limit = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < limit && run_next()) ++n;
    return n;
  }

 private:
  /// Heap entry. Min-heap on (at, seq); `seq` is the insertion counter,
  /// and the tiebreak is the determinism rule — same-cycle events fire in
  /// scheduling order.
  struct Entry {
    Cycle at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// A pending event's callback and heap position. `gen` is the id
  /// generation of the slot's current event while it is pending, and of
  /// its next event while it is free.
  struct Slot {
    std::function<void()> fn;
    std::uint32_t pos = 0;
    std::uint32_t gen = 1;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], e)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, e);
  }

  /// Take the entry at heap position `i` out, refilling the hole with the
  /// last entry and sifting that one to where it belongs.
  void remove_at(std::size_t i) {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    heap_[i] = last;
    if (i > 0 && before(last, heap_[(i - 1) / 2]))
      sift_up(i);
    else
      sift_down(i);
  }

  /// Free `slot` and hand back its callback. The generation bump makes
  /// every id issued for the slot stale; a slot whose generation wraps is
  /// retired rather than reused, so no id ever names two events.
  std::function<void()> release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    std::function<void()> fn = std::move(s.fn);
    s.fn = nullptr;
    if (++s.gen != 0) free_.push_back(slot);
    return fn;
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Namespace-scope aliases: timer handles travel through component
/// headers (delivery.h) that shouldn't spell the owning class.
using EventId = EventQueue::EventId;
inline constexpr EventId kInvalidEvent = EventQueue::kInvalidEvent;

}  // namespace medsec::core
