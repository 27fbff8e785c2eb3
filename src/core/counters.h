// counters.h — one field-wise sum and one publication type for the
// engine's stats structs.
//
// The engine's stats structs are plain bags of std::uint64_t event
// counters. Every aggregate of gateway, link, delivery, shard and
// batch-verifier stats (across shards, a failover, sessions) is their
// field-wise sum. Summing them as one array cannot forget a field the day
// one is added. Each of those structs declares its operator+= next to its
// definition as a call to add_counters.
//
// Counters that another thread reads while they move (a shard's, its
// verifier's, the UDP front end's) live in a PublishedCounters: the same
// struct held as relaxed atomic words. Any thread adds to one field with
// one atomic read-modify-write; a reader takes a plain copy. Adding a
// field means editing only its struct.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace medsec::core {

/// The word layout of a counter struct. T must hold std::uint64_t fields
/// only; the static_asserts reject padding and sizes that are not whole
/// counters.
template <class T>
struct CounterWords {
  static_assert(std::has_unique_object_representations_v<T>,
                "counter structs hold std::uint64_t fields only");
  static_assert(sizeof(T) % sizeof(std::uint64_t) == 0 &&
                    alignof(T) == alignof(std::uint64_t),
                "counter structs hold std::uint64_t fields only");
  static constexpr std::size_t kCount = sizeof(T) / sizeof(std::uint64_t);
  using Words = std::array<std::uint64_t, kCount>;

  /// The index of the word that holds `field`.
  static constexpr std::size_t index_of(std::uint64_t T::*field) {
    T probe{};
    probe.*field = 1;
    const Words w = std::bit_cast<Words>(probe);
    std::size_t i = 0;
    while (w[i] == 0) ++i;
    return i;
  }
};

/// a += b, field by field.
template <class T>
T& add_counters(T& a, const T& b) {
  using Words = typename CounterWords<T>::Words;
  Words x = std::bit_cast<Words>(a);
  const Words y = std::bit_cast<Words>(b);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
  a = std::bit_cast<T>(x);
  return a;
}

/// A counter struct published to other threads while it moves.
template <class T>
class PublishedCounters {
 public:
  /// Adds n to one field: one relaxed atomic add, safe from any number of
  /// threads at once.
  template <std::uint64_t T::*Field>
  void add(std::uint64_t n = 1) {
    constexpr std::size_t i = CounterWords<T>::index_of(Field);
    words_[i].fetch_add(n, std::memory_order_relaxed);
  }

  /// A plain copy. Each field holds a value it really had; two fields may
  /// be read a few events apart.
  T load() const {
    typename CounterWords<T>::Words w{};
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = words_[i].load(std::memory_order_relaxed);
    return std::bit_cast<T>(w);
  }

 private:
  std::array<std::atomic<std::uint64_t>, CounterWords<T>::kCount> words_{};
};

}  // namespace medsec::core
