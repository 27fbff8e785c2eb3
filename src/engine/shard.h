// shard.h — the sharded async gateway engine: N independent event loops,
// each owning one core::EventQueue, one GatewayServer (its partition of
// the session registry, hashed by session id) and one SchnorrBatchVerifier,
// the deferred-verdict queue, which drains per tick into at most ONE
// Straus/Shamir multi-scalar multiplication over the queued Schnorr
// transcripts and ONE constant-time lane batch over the queued PH and
// ECIES key multiplications.
//
// Data flow (socket mode):
//
//   UDP datagrams ──> net.h front end (poll readiness loop)
//                         │  peek session id from the frame header,
//                         │  shard = shard_of(id)
//                         ▼
//              lock-free SPSC mailbox lane        (core/mpsc_ring.h,
//                         │                        one lane per producer —
//                         ▼                        full lane => kReject)
//     shard thread: drain mailbox -> ingest -> GatewayServer::on_uplink
//                   run virtual-clock timers (ARQ retransmits, deadlines)
//                   flush the deferred queue (<= 1 MSM + 1 ladder batch
//                   per tick)
//                         │
//                         ▼
//              Transport::send_downlink (sendto / LossyLink)
//
// Threading contract: everything inside a ShardEngine (queue, gateway,
// batch verifier, session records) is owned by its shard thread — the
// single-threaded discipline of core::EventQueue. The only cross-thread
// edges are the mailbox rings (wait-free) and the stats counters, which
// the shard and its verifier publish through core::PublishedCounters.
//
// Deterministic mode: run_sharded_campaign() is the chaos campaign — device
// <-> gateway sessions over seeded LossyLinks, hash-partitioned across N
// shard worlds with Schnorr verdicts and PH / ECIES key multiplications
// deferred to per-shard queues. Each world is one ShardEngine driven from
// outside: sessions open through open(), uplinks arrive through ingest(),
// downlinks leave through a Transport onto each session's own link, and the
// failover drill is failover() — the same code that serves UDP, so the pinned
// digests cover it. Every per-session seed is a pure function of (campaign
// seed, global session id) — see campaign_fixtures.h — so the outcome digest
// is bit-identical at ANY shard count, serial or parallel; the gateway and
// shard suites pin the digests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/counters.h"
#include "core/event_queue.h"
#include "core/mpsc_ring.h"
#include "engine/batch_verifier.h"
#include "engine/gateway.h"

namespace medsec::engine {

/// A datagram return address. Socket front ends fill ip/port (IPv4, host
/// byte order); in-process transports may use it as an opaque cookie.
struct Peer {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;
  bool valid() const { return port != 0; }
  bool operator==(const Peer& o) const {
    return ip == o.ip && port == o.port;
  }
};

/// One ingress datagram, routed into a shard mailbox.
struct IngressItem {
  std::uint64_t session = 0;
  Peer peer;
  std::vector<std::uint8_t> bytes;
};

/// Where a shard writes a session's downlink bytes: the UDP front end
/// (net.h, sendto is datagram-atomic and thread-safe), or an in-process
/// loopback to device endpoints (tests, examples/fleet_server).
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send_downlink(std::uint64_t session, const Peer& peer,
                             std::vector<std::uint8_t> bytes) = 0;
};

/// Session -> shard partition: splitmix64 finalizer over the id. Pure
/// function of the id, so the front end and every test agree without
/// coordination.
inline std::size_t shard_of(std::uint64_t session, std::size_t shards) {
  std::uint64_t z = session + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return shards <= 1 ? 0 : static_cast<std::size_t>(z % shards);
}

/// What a shard needs to serve one new session (auto-opened on its first
/// datagram in socket mode). The machine says how it is judged: a check it
/// leaves through SessionMachine::deferred() goes to the shard's queue,
/// and any other verdict is its own accepted().
struct SessionSetup {
  std::unique_ptr<protocol::SessionMachine> machine;
  /// Inert: nothing reads it. perfbench's UDP workload still sets it, so
  /// it stays until the next change to the benchmark.
  bool deferred_schnorr = false;
  std::unique_ptr<rng::Xoshiro256> rng;
};

/// Builds the server half for a session id. Must be thread-safe across
/// shards (each shard calls it from its own thread) and deterministic in
/// the id for reproducible runs. A setup without a machine refuses the
/// session (e.g. a DeviceRegistry quarantine): the shard answers the
/// datagram with a kReject frame.
using SessionFactory = std::function<SessionSetup(std::uint64_t session)>;

struct ShardFleetConfig {
  std::size_t shards = 1;
  /// Mailbox ring capacity per producer lane per shard (rounded up to a
  /// power of two). A full lane sheds with kReject — bounded memory and
  /// explicit backpressure, never a blocked readiness loop.
  std::size_t mailbox_capacity = 4096;
  /// Per-shard deferred-queue flush threshold (Schnorr transcripts plus
  /// key ladders); the shard tick also flushes whatever is queued, so this
  /// is a ceiling, not a latency.
  std::size_t verify_batch = 64;
  /// Base seed for per-session derivations (delivery jitter — the same
  /// on every shard — and, with process entropy, RLC coefficients).
  std::uint64_t seed = 0x5EC0FFEE;
  GatewayConfig gateway;
  /// Socket mode: virtual cycles per real microsecond (drives ARQ
  /// retransmit timers off the wall clock).
  double cycles_per_us = 1.0;
  /// Max mailbox items drained per tick before timers run again.
  static constexpr std::size_t drain_chunk = 256;
};

/// Counters a shard publishes while running (core::PublishedCounters).
/// Its shard thread writes them, except mailbox_shed (the producers).
struct ShardStats {
  std::uint64_t ingress = 0;         ///< datagrams drained from the mailbox
  std::uint64_t mailbox_shed = 0;    ///< try_push failures (backpressure)
  /// Datagrams for an unknown session that are not a well-formed kData
  /// frame (CRC failure, ack, reject): dropped unanswered, nothing opened.
  std::uint64_t stray_dropped = 0;
  std::uint64_t opened = 0;
  std::uint64_t completed = 0;       ///< verdict landed (deferred included)
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t verifier_flushes = 0;  ///< ticks that ran an MSM
  std::uint64_t ticks = 0;
};
inline ShardStats& operator+=(ShardStats& a, const ShardStats& b) {
  return core::add_counters(a, b);
}

/// One shard: event queue + gateway partition + batch verifier + mailbox.
/// Producer API (offer) is wait-free and callable from its designated
/// producer threads; everything else belongs to the shard thread.
class ShardEngine {
 public:
  ShardEngine(std::size_t index, const ShardFleetConfig& config,
              const ecc::Curve& curve, SessionFactory factory,
              std::size_t producers);

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  std::size_t index() const { return index_; }

  /// Producer path (front-end thread `lane`): route one datagram into
  /// this shard's mailbox. False = lane full; the caller sheds (replies
  /// kReject) — this never blocks.
  bool offer(std::size_t lane, IngressItem&& item);

  // --- shard-thread API ------------------------------------------------------

  void set_transport(Transport* t) { transport_ = t; }

  /// Drain up to `limit` mailbox items through ingest(). Returns items
  /// processed.
  std::size_t drain_mailbox(std::size_t limit);

  /// Serve one datagram: track the peer's latest return address, open an
  /// unknown session, hand the bytes to the gateway. Only bytes that
  /// decode as a kData frame open a session; anything else for an unknown
  /// id is dropped without a reply and counted in stats().stray_dropped.
  void ingest(IngressItem&& item);

  /// Open session `id` (not open yet) with the factory's setup, `peer`
  /// recorded first so any reply can reach it. A factory refusal or an
  /// admission shed answers with one kReject frame and counts in
  /// stats().rejected.
  void open(std::uint64_t id, const Peer& peer);

  /// Node death: snapshot every session onto a fresh gateway, each with a
  /// machine and rng the factory builds anew (the snapshot overwrites
  /// their state; a refused one is not restored). Queued verdicts land on
  /// the restored sessions. Returns the dead gateway's stats.
  GatewayStats failover();

  /// Run timers due by virtual cycle `t` (ARQ retransmits, deadlines).
  void advance_to(core::Cycle t) { queue_.run_until(t); }

  /// Decide everything queued — at most one MSM and one ladder batch per
  /// call/tick.
  void flush_verifier();

  /// One socket-mode tick: drain -> timers -> flush. Returns the number
  /// of mailbox items drained (0 lets the loop thread sleep briefly).
  std::size_t tick(core::Cycle virtual_now);

  bool quiescent() const {
    return mailbox_.size_approx() == 0 && queue_.empty() &&
           verifier_.pending() == 0;
  }

  core::EventQueue& queue() { return queue_; }
  GatewayServer& gateway() { return *gateway_; }
  SchnorrBatchVerifier& verifier() { return verifier_; }

  /// Verdict bookkeeping per session, inline and deferred alike; the
  /// gateway holds the same verdicts (shard-thread owned; read from other
  /// threads only after the shard stops).
  struct Record {
    bool completed = false;  ///< verdict landed
    bool accepted = false;
    core::Cycle settled = 0;
  };
  const std::unordered_map<std::uint64_t, Record>& records() const {
    return records_;
  }

  /// The counters so far. Safe to call from any thread.
  ShardStats stats() const { return stats_.load(); }

 private:
  std::unique_ptr<GatewayServer> make_gateway();
  GatewayServer::Downlink downlink(std::uint64_t id);
  GatewayServer::Judge judge(std::uint64_t id);
  /// The callback a deferred verdict of session `id` lands through.
  std::function<void(bool)> land(std::uint64_t id);
  void send(std::uint64_t id, std::vector<std::uint8_t> bytes);
  void record_verdict(std::uint64_t id, bool accepted);

  std::size_t index_;
  ShardFleetConfig config_;
  const ecc::Curve* curve_;
  SessionFactory factory_;
  core::EventQueue queue_;
  std::unique_ptr<GatewayServer> gateway_;
  SchnorrBatchVerifier verifier_;
  core::MpscRing<IngressItem> mailbox_;
  Transport* transport_ = nullptr;
  std::unordered_map<std::uint64_t, Peer> peers_;
  std::unordered_map<std::uint64_t, Record> records_;
  core::PublishedCounters<ShardStats> stats_;
};

/// What a bounded drain left behind.
struct DrainReport {
  /// Every loop went quiescent (mailbox, timers and verifier empty) within
  /// the budget; false = at least one was force-stopped.
  bool quiescent = false;
  /// Sessions still active on their shard once the loops stopped, in id
  /// order: a device that went silent mid-protocol shows up here.
  std::vector<std::uint64_t> stragglers;
};

/// The shard collective: owns N ShardEngines and (in socket mode) one
/// real-time event-loop thread per shard.
class ShardFleet {
 public:
  /// `producers` = number of distinct threads that will call offer()
  /// (each gets its own wait-free mailbox lane in every shard).
  ShardFleet(const ecc::Curve& curve, const ShardFleetConfig& config,
             SessionFactory factory, std::size_t producers);
  ~ShardFleet();

  std::size_t shards() const { return engines_.size(); }
  ShardEngine& shard(std::size_t i) { return *engines_[i]; }
  std::size_t shard_index(std::uint64_t session) const {
    return shard_of(session, engines_.size());
  }

  /// Producer path: route to the owning shard's mailbox. False = shed.
  bool offer(std::size_t lane, IngressItem&& item);

  /// Socket mode: start one real-time loop thread per shard (ticks at
  /// config.cycles_per_us against the wall clock, sleeping briefly when
  /// idle). `transport` receives every downlink; must outlive stop().
  void start(Transport& transport);
  /// Signal the loops to finish draining and join them. Loops exit once
  /// told to stop AND their shard is quiescent (or `force` is set).
  void stop(bool force = false);
  /// stop() with a deadline: let the loops stop as they go quiescent,
  /// force-stop whatever is still running when `budget` expires (at most
  /// one more tick each), then list the sessions left active. The
  /// operator's shutdown path: it never hangs on a stuck session.
  DrainReport drain_for(std::chrono::milliseconds budget);
  bool running() const { return !threads_.empty(); }

  /// Sum of per-shard stats.
  ShardStats totals() const;

 private:
  ShardFleetConfig config_;
  std::vector<std::unique_ptr<ShardEngine>> engines_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> force_stop_{false};
  std::atomic<std::size_t> loops_running_{0};
};

// --- deterministic sharded campaign ------------------------------------------

struct ChaosCampaignConfig {
  std::size_t sessions = 256;
  std::uint64_t seed = 0xC4A05CA7;
  FaultProfile uplink;
  FaultProfile downlink;
  DeliveryConfig delivery;
  core::Cycle session_deadline = 0;
  core::Cycle idle_timeout = 0;
  /// Virtual-time safety valve per shard.
  static constexpr core::Cycle max_cycles = 4'000'000;
  /// >0: at this virtual cycle each shard snapshots EVERY session, tears
  /// its GatewayServer down, and restores onto a fresh one — node death
  /// mid-protocol, the failover drill.
  core::Cycle failover_at = 0;
};

struct ChaosCampaignResult {
  std::size_t sessions = 0;
  std::size_t completed = 0;  ///< device done AND server verdict in
  std::size_t accepted = 0;
  std::size_t failed = 0;
  std::size_t stuck = 0;  ///< neither completed nor failed at shard end
  GatewayStats gateway;   ///< summed across shards
  // Channel + delivery aggregates (both directions, all sessions).
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t dup_suppressed = 0;
  /// Frames a session machine saw whose bytes had been corrupted in
  /// flight: must be 0 — the CRC turns corruption into loss.
  std::uint64_t corrupt_accepted = 0;
  // Completion latency over completed sessions, virtual cycles.
  core::Cycle latency_p50 = 0;
  core::Cycle latency_p99 = 0;
  core::Cycle latency_max = 0;
  /// FNV-1a over every per-session outcome in session order — two runs
  /// are bit-identical iff their digests match.
  std::uint64_t digest = 0;
};

struct ShardedCampaignConfig {
  /// The campaign knobs — seeds, fault profiles, deadlines, failover.
  ChaosCampaignConfig chaos;
  std::size_t shards = 4;
  /// Per-shard deferred-queue batch size.
  std::size_t verify_batch = 64;
  /// Run shard worlds on the shared thread pool (true) or serially
  /// (false) — bit-identical either way.
  bool parallel = true;
};

struct ShardedCampaignResult {
  ChaosCampaignResult chaos;
  BatchVerifierStats verifier;   ///< summed across shards
  std::size_t shards = 0;
};

/// Run a seeded chaos campaign: `chaos.sessions` device <-> gateway
/// sessions (session gid runs Schnorr / Peeters–Hermans / mutual auth /
/// ECIES by gid % 4), each over its own seeded LossyLink, hash-partitioned
/// across `shards` ShardEngine worlds, the Schnorr verdicts and the PH and
/// ECIES key multiplications deferred through each shard's queue. The
/// digest depends on the campaign config only — not on `shards`,
/// `verify_batch` or `parallel`.
ShardedCampaignResult run_sharded_campaign(
    const ShardedCampaignConfig& config);

}  // namespace medsec::engine
