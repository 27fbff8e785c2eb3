// batch_verifier.h — amortized verification for fleets of Schnorr sessions.
//
// A mini-server fronting thousands of implanted tags spends its cycles on
// two things per session: decoding/validating the commitment point and
// evaluating the verifier equation. Both amortize:
//
//   * decode_points_batch decompresses a whole batch of X9.62-compressed
//     points with ONE shared field inversion (Gf163::batch_inv over the
//     x^2 denominators of z^2 + z = x + a + b/x^2) instead of one
//     Itoh–Tsujii inversion per point;
//
//   * schnorr_verify_batch checks n transcripts with ONE interleaved
//     multi-scalar multiplication via a random linear combination: draw
//     random nonzero 64-bit coefficients c_i and test
//
//         (sum_i c_i s_i)·P  −  sum_i c_i·R_i  −  sum_i (c_i e_i)·X_i  =  O.
//
//     Honest transcripts always pass. A batch containing a forgery passes
//     with probability 2^-64 per draw (the c_i are chosen after the
//     transcripts are fixed); a failing batch falls back to per-item
//     verification to isolate the offenders, so a rejected session can
//     never hide behind its batch, and an honest session can never be
//     rejected because of one.
//
// SchnorrBatchVerifier is the thread-safe queue each shard drains (one
// per ShardEngine, flushed every tick): sessions enqueue their (still
// wire-encoded) transcripts plus a completion callback; the queue also
// flushes on its own at batch_size.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/counters.h"
#include "ecc/curve.h"
#include "protocol/schnorr.h"
#include "rng/random_source.h"
#include "rng/xoshiro.h"

namespace medsec::engine {

/// Batch point decoding: each entry is one X9.62-compressed wire encoding
/// (1 prefix byte + 21 bytes of x, as produced by protocol::encode_point).
/// Returns, per entry, the validated affine point or nullopt — exactly the
/// accept/reject behavior of protocol::decode_point, but with the
/// decompression inversions shared across the batch.
std::vector<std::optional<ecc::Point>> decode_points_batch(
    const ecc::Curve& curve,
    const std::vector<std::vector<std::uint8_t>>& encoded);

struct BatchVerifyOutcome {
  std::vector<bool> ok;      ///< one accept bit per input transcript
  bool rlc_passed = true;    ///< false: the combined equation failed and
                             ///< every item was re-checked individually
};

/// Random-linear-combination batch verification of decoded transcripts
/// (commitments already validated). `rng` supplies the 64-bit combination
/// coefficients.
BatchVerifyOutcome schnorr_verify_batch(
    const ecc::Curve& curve,
    std::span<const protocol::SchnorrTranscript> transcripts,
    std::span<const ecc::Point> keys, rng::RandomSource& rng);

/// One Schnorr transcript awaiting verification, still in wire form.
struct PendingTranscript {
  /// Owning session id (0 = anonymous).
  std::uint64_t session = 0;
  ecc::Point X;                               ///< registered device key
  std::vector<std::uint8_t> commitment_wire;  ///< compressed R_c
  ecc::Scalar challenge;
  ecc::Scalar response;
  std::function<void(bool accepted)> on_result;
};

struct BatchVerifierStats {
  std::uint64_t items = 0;
  std::uint64_t batches = 0;           ///< flushes that reached the verifier
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t decode_failures = 0;   ///< commitments that failed decoding
  std::uint64_t rlc_failures = 0;      ///< batches that fell back to singles
  std::uint64_t single_fallbacks = 0;  ///< per-item checks run by fallbacks
};
inline BatchVerifierStats& operator+=(BatchVerifierStats& a,
                                      const BatchVerifierStats& b) {
  return core::add_counters(a, b);
}

/// Thread-safe batched verifier queue. batch_size == 1 degenerates to
/// independent per-session verification (the baseline the fleet bench
/// compares against).
class SchnorrBatchVerifier {
 public:
  SchnorrBatchVerifier(const ecc::Curve& curve, std::size_t batch_size,
                       std::uint64_t rlc_seed = 0xBA7C5EED);

  /// Enqueue one transcript; flushes synchronously on the calling thread
  /// when the queue reaches batch_size. Callbacks run on whichever thread
  /// flushes — never with internal locks held, so they may re-enter the
  /// verifier or take session locks.
  void enqueue(PendingTranscript t);

  /// Verify everything still pending (e.g. at drain time).
  void flush();

  /// Transcripts without a verdict yet: queued PLUS mid-verification on
  /// some thread. A session is only "drained" once this excludes it.
  std::size_t pending() const;
  BatchVerifierStats stats() const;

 private:
  void verify_batch(std::vector<PendingTranscript> batch);

  const ecc::Curve* curve_;
  std::size_t batch_size_;
  mutable std::mutex mu_;          ///< guards queue_, in_verify_, stats_
  std::vector<PendingTranscript> queue_;
  /// Transcripts moved out of queue_ and currently inside verify_batch —
  /// still verdict-pending, no longer "queued".
  std::size_t in_verify_ = 0;
  BatchVerifierStats stats_;
  std::mutex rng_mu_;              ///< guards rng_
  rng::Xoshiro256 rng_;
};

}  // namespace medsec::engine
