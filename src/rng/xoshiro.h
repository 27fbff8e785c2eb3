// xoshiro.h — xoshiro256** PRNG (Blackman & Vigna), seeded via splitmix64.
//
// The workhorse deterministic PRNG for simulations, workload generation and
// statistical experiments. Not a CSPRNG — the DRBG in hmac_drbg.h plays
// that role for key material.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "rng/random_source.h"

namespace medsec::rng {

/// splitmix64 step, used for seeding and as a cheap mixing function.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The n-th word of lane `lane` under `seed` — counter-derived randomness
/// with no hidden state, so any (n, lane) regenerates alone, in any order,
/// on any thread, and independent lanes never alias each other's stream.
constexpr std::uint64_t derive_word(std::uint64_t seed, std::uint64_t n,
                                    std::uint64_t lane) {
  std::uint64_t s = seed ^ (0xD1B54A32D192ED03ULL * (n + 1)) ^
                    (0x9E3779B97F4A7C15ULL * lane);
  return splitmix64(s);
}

/// The n-th child seed of `base` (per-entity and per-trace seeding).
constexpr std::uint64_t mix_seed(std::uint64_t base, std::uint64_t n) {
  std::uint64_t s = base ^ (0x9E3779B97F4A7C15ULL * (n + 1));
  return splitmix64(s);
}

/// Uniform double in [0, 1) from the top 53 bits of a word.
constexpr double to_unit(std::uint64_t w) {
  return static_cast<double>(w >> 11) * 0x1.0p-53;
}

class Xoshiro256 final : public RandomSource {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x6d656473656375ULL) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
  }

  /// Complete generator state, exposed for session snapshot/restore: a
  /// failed-over session must resume its randomness stream exactly where
  /// the dead server left it (the Box–Muller spare is part of the stream).
  struct State {
    std::array<std::uint64_t, 4> s{};
    bool have_spare = false;
    double spare = 0.0;
  };
  State save_state() const { return State{s_, have_spare_, spare_}; }
  void load_state(const State& st) {
    s_ = st.s;
    have_spare_ = st.have_spare;
    spare_ = st.spare;
  }

  std::uint64_t next_u64() override {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Standard normal variate (Box–Muller); used by the trace noise model.
  double next_gaussian() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u1, u2;
    do {
      u1 = next_unit();
    } while (u1 <= 1e-300);
    u2 = next_unit();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    spare_ = mag * std::sin(kTwoPi * u2);
    have_spare_ = true;
    return mag * std::cos(kTwoPi * u2);
  }

  /// Uniform double in [0, 1).
  double next_unit() { return to_unit(next_u64()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace medsec::rng
