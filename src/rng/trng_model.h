// trng_model.h — model of a physical entropy source plus the on-line health
// tests a fielded medical device would run on it.
//
// The paper lists RNGs and PUFs among the primitives a secure protocol
// stack needs (§4). A real TRNG on a 0.13 µm chip is a ring-oscillator or
// metastability source with bias and serial correlation; we model exactly
// those two defects so the health-test and conditioning code paths are
// exercised realistically:
//
//   P(bit=1) = bias;  P(bit_i == bit_{i-1}) raised by correlation.
//
// Health tests follow NIST SP 800-90B §4.4: the Repetition Count Test and
// the Adaptive Proportion Test, both parameterized by the claimed
// min-entropy per bit.
//
// The fault-adversary extension (the hw/ fault campaign's RNG chapter):
// the model can be driven into the two classic TRNG failure modes — a
// stuck-at output (glitched or shorted oscillator) and entropy starvation
// (noise amplitude collapse; the output becomes almost perfectly serially
// correlated). Both are exactly what the repetition-count test exists to
// catch, and HealthGatedTrng / GatedTrngSource enforce the consequence:
// a DRBG is never keyed, and the hardened ladder never draws blinds, from
// a source whose health test has tripped.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "rng/hmac_drbg.h"
#include "rng/random_source.h"
#include "rng/xoshiro.h"

namespace medsec::rng {

/// Physical failure modes a fielded entropy source can enter.
enum class TrngFault : std::uint8_t {
  kNone = 0,
  kStuckAt = 1,   ///< output pinned at `stuck_value` (shorted oscillator)
  kStarved = 2,   ///< noise collapse: near-total serial correlation
};

/// A biased, serially-correlated one-bit-at-a-time entropy source model.
class TrngModel {
 public:
  struct Params {
    double bias = 0.5;         ///< P(bit = 1) ignoring correlation.
    double correlation = 0.0;  ///< in [0,1): extra P(repeat previous bit).
    std::uint64_t seed = 1;
    TrngFault fault = TrngFault::kNone;
    int stuck_value = 1;       ///< the pinned bit under kStuckAt
    /// Effective correlation floor under kStarved: long identical runs,
    /// exactly the signature the repetition-count test cuts off.
    double starved_correlation = 0.999;
  };

  explicit TrngModel(const Params& p) : params_(p), prng_(p.seed) {}

  TrngFault fault() const { return params_.fault; }

  int next_bit() {
    if (params_.fault == TrngFault::kStuckAt) {
      prev_ = params_.stuck_value;
      have_prev_ = true;
      return params_.stuck_value;
    }
    double p1 = params_.bias;
    if (have_prev_) {
      // Mix toward repeating the previous bit.
      double repeat = params_.correlation;
      if (params_.fault == TrngFault::kStarved)
        repeat = std::max(repeat, params_.starved_correlation);
      p1 = repeat * static_cast<double>(prev_) + (1.0 - repeat) * params_.bias;
    }
    const int bit = prng_.next_unit() < p1 ? 1 : 0;
    prev_ = bit;
    have_prev_ = true;
    return bit;
  }

 private:
  Params params_;
  Xoshiro256 prng_;
  int prev_ = 0;
  bool have_prev_ = false;
};

/// NIST SP 800-90B §4.4.1 Repetition Count Test.
/// Fails (returns false from feed()) when a value repeats C or more times,
/// with C = 1 + ceil(20 / H) for a claimed min-entropy of H bits/sample and
/// a 2^-20 false-positive target.
class RepetitionCountTest {
 public:
  explicit RepetitionCountTest(double claimed_min_entropy_per_bit) {
    cutoff_ = 1 + static_cast<int>(
                      std::ceil(20.0 / claimed_min_entropy_per_bit));
  }

  /// Returns false on health-test failure.
  bool feed(int bit) {
    if (have_last_ && bit == last_) {
      ++run_;
    } else {
      run_ = 1;
      last_ = bit;
      have_last_ = true;
    }
    if (run_ >= cutoff_) {
      failed_ = true;
    }
    return !failed_;
  }

  bool failed() const { return failed_; }
  int cutoff() const { return cutoff_; }

 private:
  int cutoff_;
  int last_ = 0;
  int run_ = 0;
  bool have_last_ = false;
  bool failed_ = false;
};

/// NIST SP 800-90B §4.4.2 Adaptive Proportion Test for binary sources:
/// window W = 1024; the count of the first sample value in the window must
/// stay below a cutoff derived from the claimed entropy (binomial tail at
/// 2^-20).
class AdaptiveProportionTest {
 public:
  explicit AdaptiveProportionTest(double claimed_min_entropy_per_bit,
                                  int window = 1024)
      : window_(window) {
    // Cutoff = smallest c with P[Binom(W, p) >= c] <= 2^-20, p = 2^-H.
    const double p = std::pow(2.0, -claimed_min_entropy_per_bit);
    cutoff_ = binomial_tail_cutoff(window_, p, std::pow(2.0, -20));
  }

  bool feed(int bit) {
    if (pos_ == 0) {
      reference_ = bit;
      count_ = 1;
    } else if (bit == reference_) {
      ++count_;
      if (count_ >= cutoff_) failed_ = true;
    }
    pos_ = (pos_ + 1) % window_;
    return !failed_;
  }

  bool failed() const { return failed_; }
  int cutoff() const { return cutoff_; }

  /// Exposed for tests: smallest c such that P[X >= c] <= alpha for
  /// X ~ Binomial(n, p), computed by direct summation in log space.
  static int binomial_tail_cutoff(int n, double p, double alpha) {
    // Walk the pmf from k = n down, accumulating the upper tail.
    std::vector<double> log_pmf(static_cast<std::size_t>(n) + 1);
    double log_choose = 0.0;  // log C(n, 0)
    for (int k = 0; k <= n; ++k) {
      if (k > 0)
        log_choose += std::log(static_cast<double>(n - k + 1)) -
                      std::log(static_cast<double>(k));
      log_pmf[static_cast<std::size_t>(k)] =
          log_choose + k * std::log(p) + (n - k) * std::log1p(-p);
    }
    double tail = 0.0;
    for (int c = n; c >= 0; --c) {
      tail += std::exp(log_pmf[static_cast<std::size_t>(c)]);
      if (tail > alpha) return c + 1;
    }
    return 0;
  }

 private:
  int window_;
  int cutoff_;
  int reference_ = 0;
  int count_ = 0;
  int pos_ = 0;
  bool failed_ = false;
};

/// Empirical entropy estimates over a bit sample.
struct EntropyEstimate {
  double shannon_per_bit;
  double min_entropy_per_bit;
  double ones_fraction;
};

inline EntropyEstimate estimate_entropy(const std::vector<int>& bits) {
  std::size_t ones = 0;
  for (int b : bits) ones += static_cast<std::size_t>(b != 0);
  const double p1 =
      bits.empty() ? 0.5
                   : static_cast<double>(ones) / static_cast<double>(bits.size());
  const double p0 = 1.0 - p1;
  auto plogp = [](double p) { return p <= 0.0 ? 0.0 : -p * std::log2(p); };
  return EntropyEstimate{
      .shannon_per_bit = plogp(p0) + plogp(p1),
      .min_entropy_per_bit = -std::log2(std::max(p0, p1)),
      .ones_fraction = p1,
  };
}

/// Von Neumann debiaser: consumes bit pairs, emits at most one bit each.
class VonNeumannDebiaser {
 public:
  /// Feed one raw bit; returns the debiased bit when a pair completes with
  /// differing values.
  std::optional<int> feed(int bit) {
    if (pending_ < 0) {
      pending_ = bit;
      return std::nullopt;
    }
    const int first = pending_;
    pending_ = -1;
    if (first == bit) return std::nullopt;
    return first;
  }

 private:
  int pending_ = -1;  // first bit of the open pair; -1 when none is open
};

/// A TRNG with the SP 800-90B repetition-count test wired in-line: every
/// harvested bit feeds the test, and the moment it trips, harvesting
/// stops reporting success — permanently (the test latches; a stuck or
/// starved source needs service, not a retry).
class HealthGatedTrng {
 public:
  explicit HealthGatedTrng(const TrngModel::Params& p,
                           double claimed_min_entropy_per_bit = 0.9)
      : trng_(p), rct_(claimed_min_entropy_per_bit) {}

  /// Fill `out` with health-tested entropy. Returns false as soon as the
  /// repetition-count test fails; the buffer contents are then unusable
  /// as seed material and the caller must refuse to proceed.
  bool harvest(std::span<std::uint8_t> out) {
    for (auto& byte : out) {
      std::uint8_t b = 0;
      for (int i = 0; i < 8; ++i) {
        const int bit = trng_.next_bit();
        if (!rct_.feed(bit)) return false;
        b = static_cast<std::uint8_t>((b << 1) | bit);
      }
      byte = b;
    }
    return true;
  }

  bool healthy() const { return !rct_.failed(); }
  TrngModel& source() { return trng_; }
  const RepetitionCountTest& health() const { return rct_; }

 private:
  TrngModel trng_;
  RepetitionCountTest rct_;
};

/// Key an HMAC-DRBG from health-tested TRNG output. Returns nullopt when
/// the health test tripped during harvest: the DRBG refuses to
/// instantiate from an entropy source known to be faulty, and without a
/// DRBG the device has no blind/scalar source — it refuses to operate
/// rather than degrade silently.
inline std::optional<HmacDrbg> seed_drbg_from_trng(
    HealthGatedTrng& trng, std::size_t seed_bytes = 48) {
  std::vector<std::uint8_t> seed(seed_bytes);
  if (!trng.harvest(seed)) return std::nullopt;
  return HmacDrbg(seed);
}

/// RandomSource facade over the health-gated pipeline: TRNG → repetition
/// count test → HMAC-DRBG, reseeding every `reseed_interval` draws. Once
/// the health test fails — at construction or at any reseed — every draw
/// throws std::runtime_error. This is the source the hardened ladder's
/// blind draws ride on: a plan_hardened_coproc_mult over a failed source
/// aborts before any key-dependent computation, instead of running the
/// "randomized" ladder with degenerate blinds.
class GatedTrngSource final : public RandomSource {
 public:
  explicit GatedTrngSource(const TrngModel::Params& p,
                           double claimed_min_entropy_per_bit = 0.9,
                           std::uint64_t reseed_interval = 1024)
      : trng_(p, claimed_min_entropy_per_bit),
        reseed_interval_(reseed_interval) {
    std::array<std::uint8_t, 48> seed{};
    if (trng_.harvest(seed)) drbg_.emplace(seed);
  }

  bool healthy() const { return drbg_.has_value() && trng_.healthy(); }

  std::uint64_t next_u64() override {
    check();
    return drbg_->next_u64();
  }
  void fill(std::span<std::uint8_t> out) override {
    check();
    drbg_->fill(out);
  }

 private:
  void check() {
    if (drbg_ && ++draws_ > reseed_interval_) {
      draws_ = 0;
      std::array<std::uint8_t, 32> entropy{};
      if (trng_.harvest(entropy))
        drbg_->reseed(entropy);
      else
        drbg_.reset();  // latched: no output past a failed reseed
    }
    if (!drbg_)
      throw std::runtime_error(
          "GatedTrngSource: entropy source failed its repetition-count "
          "health test; output refused");
  }

  HealthGatedTrng trng_;
  std::uint64_t reseed_interval_;
  std::uint64_t draws_ = 0;
  std::optional<HmacDrbg> drbg_;
};

}  // namespace medsec::rng
