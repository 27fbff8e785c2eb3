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
//         (sum_i c_i s_i)·P  −  sum_i c_i·R_i  −  sum_i (c_i e_i)·X_i  =  O,
//
//     with the items that share a key X folded into one term
//     (sum_{i: X_i = X} c_i e_i)·X (Bellare, Garay and Rabin, "Fast batch
//     verification for modular exponentiation and digital signatures",
//     EUROCRYPT 1998): a fleet whose tags all prove one key pays one
//     full-length key term per batch instead of one per item. Keys used
//     once keep their own term; the folded ones are bases of the MSM
//     table, like P, whose scalars each check sums over its own items.
//     Honest transcripts always pass. A batch containing a forgery passes
//     with probability 2^-64 per draw (the c_i are chosen after the
//     transcripts are fixed). A failing batch is bisected over the same
//     coefficients and MSM table until every run of items either sums to
//     O or is one item, whose verdict is then exactly schnorr_verify's:
//     a rejected session can never hide behind its batch, and an honest
//     session can never be rejected because of one. One forgery in 64
//     costs six shrinking MSMs over the table.
//
// SchnorrBatchVerifier is the deferred-verdict queue each shard drains
// (one per ShardEngine, flushed every tick). Its shard thread is its one
// owner; only its stats are read from other threads. It holds the checks
// deferred machines leave behind (SessionMachine::deferred()), of two
// kinds, each with a completion callback:
//
//   * Schnorr claims (protocol::SchnorrClaim) from deferred verifiers,
//     still wire-encoded, checked as above;
//   * key multiplications (protocol::LadderJob) from deferred PH readers
//     and ECIES receivers: one flush runs all of them as one
//     constant-time lane batch (ecc::ladder_x_many — lockstep ladders and
//     one batch inversion), then each job's own continuation.
//
// One flush runs at most one RLC batch (one MSM table, bisected only if
// its check fails) and one ladder batch; the queue also flushes on its own
// once it holds batch_size items of either kind.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/counters.h"
#include "ecc/curve.h"
#include "ecc/ladder_many.h"
#include "protocol/schnorr.h"
#include "protocol/session.h"
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
                             ///< the batch was bisected
  std::size_t isolation_msms = 0;  ///< MSM evaluations the bisection ran
};

/// Random-linear-combination batch verification of decoded transcripts
/// (commitments already validated, keys in the prime-order subgroup).
/// `rng` supplies the 64-bit combination coefficients, drawn once per
/// call; a failed batch is bisected over them.
BatchVerifyOutcome schnorr_verify_batch(
    const ecc::Curve& curve,
    std::span<const protocol::SchnorrTranscript> transcripts,
    std::span<const ecc::Point> keys, rng::RandomSource& rng);

/// One check a deferred machine left behind, awaiting its batch.
struct DeferredCheck {
  protocol::DeferredWork work;
  std::function<void(bool accepted)> on_result;
};

/// A Schnorr transcript built by hand rather than taken from a machine,
/// still in wire form: enqueued as the DeferredCheck of its claim.
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
  // Schnorr transcripts.
  std::uint64_t items = 0;
  std::uint64_t batches = 0;           ///< flushes that reached the verifier
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t decode_failures = 0;   ///< commitments that failed decoding
  std::uint64_t rlc_failures = 0;      ///< batches whose RLC check failed
  /// Isolation MSMs the bisection of failed batches ran (the name is
  /// older than the bisection; perfbench reads it).
  std::uint64_t single_fallbacks = 0;
  // Key multiplications.
  std::uint64_t ladders = 0;           ///< jobs enqueued
  std::uint64_t ladder_batches = 0;    ///< flushes that ran ladder jobs
  /// Jobs refused: their continuation said no or threw, or their point
  /// was no ladder input (infinity, x = 0).
  std::uint64_t ladders_rejected = 0;
};
inline BatchVerifierStats& operator+=(BatchVerifierStats& a,
                                      const BatchVerifierStats& b) {
  return core::add_counters(a, b);
}

/// The batched verifier queue of one owning thread: every method but
/// stats() runs there. batch_size == 1 degenerates to independent
/// per-session verification (the baseline the fleet bench compares
/// against).
class SchnorrBatchVerifier {
 public:
  SchnorrBatchVerifier(const ecc::Curve& curve, std::size_t batch_size,
                       std::uint64_t rlc_seed = 0xBA7C5EED);

  /// Enqueue one check; flushes once batch_size items are queued. A flush
  /// moves its items out of the queues before it decides them, and runs
  /// the callbacks last, so a callback may enqueue again: its item waits
  /// for a later flush. A ladder job whose continuation throws is refused
  /// alone (the gateway's poison rule); the rest of its batch still lands.
  void enqueue(DeferredCheck check);
  void enqueue(PendingTranscript t);

  /// Run everything still pending (e.g. at drain time): at most one RLC
  /// batch and one ladder batch.
  void flush();

  /// Transcripts and ladder jobs queued for the next flush. Items a flush
  /// has moved out are no longer counted, even while their callbacks run.
  std::size_t pending() const { return queue_.size() + ladders_.size(); }
  /// The counters so far. Safe to call from any thread while the owner
  /// runs.
  BatchVerifierStats stats() const { return stats_.load(); }

 private:
  /// If both queues hold at least `min_items` between them, move them out
  /// and decide them: at most one RLC batch and one ladder batch.
  void drain(std::size_t min_items);
  void verify_transcripts(std::vector<DeferredCheck>& batch);
  void run_ladders(std::vector<DeferredCheck>& batch);

  const ecc::Curve* curve_;
  std::size_t batch_size_;
  std::vector<DeferredCheck> queue_;    ///< Schnorr claims
  std::vector<DeferredCheck> ladders_;  ///< key multiplications
  core::PublishedCounters<BatchVerifierStats> stats_;
  rng::Xoshiro256 rng_;
  /// Lane buffers of the ladder batch, sized at its first run.
  ecc::LadderManyWorkspace ladder_ws_;
};

}  // namespace medsec::engine
