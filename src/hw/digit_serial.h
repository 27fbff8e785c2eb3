// digit_serial.h — bit-exact model of the digit-serial F_2^163 multiplier
// (MALU) at the heart of the paper's co-processor.
//
// §5: "a digit-serial multiplier for F_2^163 is used. The choice of the
// digit-size determines the power needed for the computation, as well as
// the latency and area. By using a digit serial multiplication with a
// 163×4 modular multiplier we achieve the optimal area-energy product
// within the given latency constraints."
//
// The model processes the multiplier operand most-significant-digit first,
// d bits per clock cycle, exactly as the hardware would:
//
//   acc <- (acc << d) mod f(x)  XOR  a * digit(b, i)   (one cycle)
//
// and records, per cycle, the switching activity of the accumulator
// register (Hamming distance between consecutive states) — the quantity
// the CMOS power model and the side-channel trace simulator consume.
//
// The primary execution path is multiply_stream: the per-cycle activity is
// handed to an inlined callback as it is produced, with no per-call heap
// allocation (the partial-product rows live on the stack, as wires do in
// the hardware). multiply() wraps it and materializes the MaluResult
// activity log for callers that want the whole pass at once.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "gf2m/gf2_163.h"
#include "hw/activity.h"
#include "hw/gates.h"
#include "hw/technology.h"

namespace medsec::hw {

/// Per-cycle activity record of one multiplier pass.
struct MaluCycle {
  std::uint32_t acc_toggles;   ///< accumulator register Hamming distance
  std::uint32_t logic_toggles; ///< estimated combinational toggles
};

/// Result of one modular multiplication with full instrumentation.
struct MaluResult {
  gf2m::Gf163 product;
  std::size_t cycles = 0;
  std::vector<MaluCycle> activity;  ///< one entry per cycle
};

namespace detail {

/// Joint population count of a 3-limb value, branch- and libcall-free
/// (without -mpopcnt, std::popcount lowers to a __popcountdi2 call per
/// limb — ~40% of the MALU hot loop). Classic SWAR bytewise counts,
/// summed across the limbs before the one multiply-fold: per-byte sums
/// reach at most 3 * 8 = 24 < 255, and the folded total at most 192, so
/// nothing overflows.
inline int popcount3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  const auto byte_counts = [](std::uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    return (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  };
  const std::uint64_t s = byte_counts(a) + byte_counts(b) + byte_counts(c);
  return static_cast<int>((s * 0x0101010101010101ULL) >> 56);
}

}  // namespace detail

/// Most-significant-digit-first digit-serial multiplier over F_2^163.
class DigitSerialMultiplier {
 public:
  /// digit_size in bits per cycle; the paper sweeps this dimension and
  /// settles on 4. Valid range [1, 32].
  explicit DigitSerialMultiplier(std::size_t digit_size);

  std::size_t digit_size() const { return digit_size_; }

  /// Latency of one multiplication in clock cycles: ceil(163 / d).
  std::size_t cycles_per_mult() const { return cycles_; }

  /// Datapath area in gate equivalents.
  double area_ge() const { return area_ge_; }

  /// Execute a full a*b mod f(x) pass, bit-exact, streaming the per-cycle
  /// activity into `per_cycle(acc_toggles, logic_toggles)` as each cycle
  /// completes. Allocation-free; the callback is inlined at the call
  /// site, and the paper's d = 4 gets a fully unrolled constant-width
  /// body. Returns the reduced product. Exactly the cycles and activity
  /// values of multiply() — that wrapper is implemented on top of this.
  template <typename PerCycle>
  gf2m::Gf163 multiply_stream(const gf2m::Gf163& a, const gf2m::Gf163& b,
                              PerCycle&& per_cycle) const;

 private:
  /// One body for every digit size: D > 0 bakes the width in as a
  /// compile-time constant (shift amounts, digit mask, row count all
  /// fold); D == 0 reads the runtime width.
  template <std::size_t D, typename PerCycle>
  gf2m::Gf163 multiply_stream_body(const gf2m::Gf163& a,
                                   const gf2m::Gf163& b,
                                   PerCycle&& per_cycle) const;

 public:

  /// Execute a full a*b mod f(x) pass, bit-exact, with activity log.
  /// The result is cross-checked against gf2m::Gf163::mul in tests.
  /// Internally word-parallel: the d-bit shift-reduce network and digit
  /// extraction are single word operations per cycle, not bit loops.
  MaluResult multiply(const gf2m::Gf163& a, const gf2m::Gf163& b) const;

  /// Product only, no per-cycle activity model: delegates to the active
  /// gf2m backend (bit-exact with multiply().product — asserted by the
  /// backend cross-check tests). Use when the caller needs functional
  /// hardware-equivalence, not the power trace.
  gf2m::Gf163 product_only(const gf2m::Gf163& a, const gf2m::Gf163& b) const;

  /// Average energy of one multiplication under the given technology,
  /// using the average switching activity of random operands (analytic,
  /// no simulation): used by the d-sweep bench.
  double avg_mult_energy_j(const Technology& tech) const;

 private:
  std::size_t digit_size_;
  std::size_t cycles_;
  double area_ge_;
  double glitch_;  ///< ActivityWeights::glitch_factor(digit_size_)
};

template <typename PerCycle>
gf2m::Gf163 DigitSerialMultiplier::multiply_stream(const gf2m::Gf163& a,
                                                   const gf2m::Gf163& b,
                                                   PerCycle&& per_cycle) const {
  // The paper's chosen width gets the constant-folded body; everything
  // else (the d-sweep bench, tests) takes the generic one.
  if (digit_size_ == 4)
    return multiply_stream_body<4>(a, b, std::forward<PerCycle>(per_cycle));
  return multiply_stream_body<0>(a, b, std::forward<PerCycle>(per_cycle));
}

template <std::size_t D, typename PerCycle>
gf2m::Gf163 DigitSerialMultiplier::multiply_stream_body(
    const gf2m::Gf163& a, const gf2m::Gf163& b, PerCycle&& per_cycle) const {
  constexpr std::uint64_t kTop35 = (std::uint64_t{1} << 35) - 1;
  // Pentanomial fold taps of f(x) = x^163 + x^7 + x^6 + x^3 + 1 packed as
  // the low-limb XOR pattern of one overflow bit: 1 + x^3 + x^6 + x^7.
  constexpr std::uint64_t kFold = (1u << 7) | (1u << 6) | (1u << 3) | 1u;
  const std::size_t d = D > 0 ? D : digit_size_;

  // Precompute a, a*x, ..., a*x^(d-1): the d partial-product rows that
  // exist as wires in the hardware. Their aggregate weight drives the
  // per-cycle row activity (all rows switch every cycle as the digit
  // pattern changes, whether or not they are selected into the sum).
  std::uint64_t r0[32], r1[32], r2[32];
  r0[0] = a.limb(0);
  r1[0] = a.limb(1);
  r2[0] = a.limb(2);
  int row_weight = detail::popcount3(r0[0], r1[0], r2[0]);
  for (std::size_t j = 1; j < d; ++j) {
    // row[j] = row[j-1] * x mod f(x): one slice of the shift network.
    const std::uint64_t carry = (r2[j - 1] >> 34) & 1;
    r0[j] = (r0[j - 1] << 1) ^ (carry ? kFold : 0);
    r1[j] = (r1[j - 1] << 1) | (r0[j - 1] >> 63);
    r2[j] = ((r2[j - 1] << 1) | (r1[j - 1] >> 63)) & kTop35;
    row_weight += detail::popcount3(r0[j], r1[j], r2[j]);
  }

  const double glitch = glitch_;
  const double depth_term = 8.0 * static_cast<double>(d);
  const std::uint64_t digit_mask = (std::uint64_t{1} << d) - 1;
  const std::uint64_t b0 = b.limb(0), b1 = b.limb(1), b2 = b.limb(2);

  std::uint64_t acc0 = 0, acc1 = 0, acc2 = 0;  // accumulator register
  for (std::size_t c = 0; c < cycles_; ++c) {
    // MSD first: cycle c consumes bits [pos, pos+d).
    const std::size_t pos = (cycles_ - 1 - c) * d;
    const std::size_t limb = pos / 64;
    const std::size_t off = pos % 64;
    std::uint64_t v = (limb == 0 ? b0 : limb == 1 ? b1 : b2) >> off;
    if (off + d > 64 && limb + 1 < 3)
      v |= (limb == 0 ? b1 : b2) << (64 - off);
    const std::uint64_t digit = v & digit_mask;

    // acc <- acc * x^d mod f  (shift-reduce network, one word-parallel
    // step; folded tap bits land at positions <= d + 6 < 163, so they can
    // never re-overflow within one step).
    const std::uint64_t t = acc2 >> (35 - d);  // bits 163..162+d
    std::uint64_t s0 = acc0 << d;
    const std::uint64_t s1 = (acc1 << d) | (acc0 >> (64 - d));
    const std::uint64_t s2 = ((acc2 << d) | (acc1 >> (64 - d))) & kTop35;
    s0 ^= t ^ (t << 3) ^ (t << 6) ^ (t << 7);

    // partial <- a * digit (selected partial-product rows XORed together,
    // branchless row selects).
    std::uint64_t p0 = 0, p1 = 0, p2 = 0;
    for (std::size_t j = 0; j < d; ++j) {
      const std::uint64_t m = std::uint64_t{0} - ((digit >> j) & 1);
      p0 ^= r0[j] & m;
      p1 ^= r1[j] & m;
      p2 ^= r2[j] & m;
    }

    const std::uint64_t n0 = s0 ^ p0, n1 = s1 ^ p1, n2 = s2 ^ p2;

    // Activity: the accumulator register flips HD(acc, next) bits; the
    // combinational cloud (d partial-product rows, the XOR reduction tree,
    // the shift/reduce fabric) sees roughly one event per set wire, and
    // glitches multiply with the tree depth (grows with d).
    const int acc_toggles = detail::popcount3(acc0 ^ n0, acc1 ^ n1, acc2 ^ n2);
    const int pp = detail::popcount3(p0, p1, p2);
    const int ps = detail::popcount3(s0, s1, s2);
    per_cycle(static_cast<std::uint32_t>(acc_toggles),
              static_cast<std::uint32_t>(
                  glitch * (row_weight + pp / 2 + ps / 2 + depth_term)));

    acc0 = n0;
    acc1 = n1;
    acc2 = n2;
  }
  return gf2m::Gf163{acc0, acc1, acc2};
}

/// One row of the paper's §5 sweep: the area / latency / power / energy /
/// area-energy-product trade-off at a given digit size.
struct DigitSweepPoint {
  std::size_t digit_size;
  std::size_t cycles_per_mult;
  double area_ge;
  double avg_power_w;           ///< during multiplication
  double energy_per_mult_j;
  double area_energy_product;   ///< GE * J (the §5 objective)
};

/// Evaluate the sweep for the given digit sizes (default: the hardware-
/// sensible powers of two the paper's design space covers).
std::vector<DigitSweepPoint> digit_size_sweep(
    const Technology& tech,
    const std::vector<std::size_t>& sizes = {1, 2, 4, 8, 16});

}  // namespace medsec::hw
