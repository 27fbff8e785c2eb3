// counters.h — one field-wise sum for the engine's stats structs.
//
// Gateway, link, delivery, shard and batch-verifier stats are plain bags
// of std::uint64_t event counters, and every aggregate (across shards, a
// failover, sessions) is their field-wise sum. Summing them as one array
// cannot forget a field the day one is added. Each struct declares its
// operator+= next to its definition as a call to add_counters.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace medsec::core {

/// a += b, field by field. T must hold std::uint64_t fields only; the
/// static_asserts reject padding and sizes that are not whole counters.
template <class T>
T& add_counters(T& a, const T& b) {
  static_assert(std::has_unique_object_representations_v<T>,
                "counter structs hold std::uint64_t fields only");
  static_assert(sizeof(T) % sizeof(std::uint64_t) == 0 &&
                    alignof(T) == alignof(std::uint64_t),
                "counter structs hold std::uint64_t fields only");
  using Words = std::array<std::uint64_t, sizeof(T) / sizeof(std::uint64_t)>;
  Words x = std::bit_cast<Words>(a);
  const Words y = std::bit_cast<Words>(b);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
  a = std::bit_cast<T>(x);
  return a;
}

}  // namespace medsec::core
