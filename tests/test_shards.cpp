// Tests for the serving stack (UdpFrontEnd -> ShardFleet/ShardEngine ->
// GatewayServer): the lock-free SPSC/MPSC mailbox rings under concurrent
// producers (the TSan target), explicit shedding under mailbox overflow, the
// shard-count invariance contract (one pinned run_sharded_campaign digest at
// ANY shard count, failover and faults included), per-shard batch
// verification with forgery isolation and unpredictable RLC coefficients,
// deferred verdicts landing in the gateway (inside their own judge, across a
// snapshot and across ShardEngine::failover), deferred PH and ECIES key
// ladders (inline-equal verdicts, the refusal shape, the poison rule for
// continuations), the inline-judge path, registry refusals answered with
// kReject, CRC-failing datagrams that open no session, a multi-shard fleet
// on its loop threads, bounded drain_for, the stats merge, frame-buffer
// pooling, and the UDP front end end-to-end over loopback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ciphers/aes128.h"
#include "core/event_queue.h"
#include "core/mpsc_ring.h"
#include "ecc/curve.h"
#include "ecc/fixed_base.h"
#include "engine/campaign_fixtures.h"
#include "engine/delivery.h"
#include "engine/device_registry.h"
#include "engine/gateway.h"
#include "engine/net.h"
#include "engine/shard.h"
#include "engine/transport.h"
#include "ecc/ladder.h"
#include "protocol/ecies.h"
#include "protocol/mutual_auth.h"
#include "protocol/peeters_hermans.h"
#include "protocol/schnorr.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace {

using medsec::ecc::Curve;
using medsec::rng::Xoshiro256;
namespace core = medsec::core;
namespace proto = medsec::protocol;
namespace engine = medsec::engine;

// --- SPSC / MPSC rings -------------------------------------------------------

TEST(SpscRing, FifoAndExplicitBackpressure) {
  core::SpscRing<std::unique_ptr<int>> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);  // power of two, as requested
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(ring.try_push(std::make_unique<int>(i)));
  // Full ring: push fails WITHOUT consuming — the shed item must stay
  // intact so the front end can still build its kReject reply from it.
  auto extra = std::make_unique<int>(99);
  EXPECT_FALSE(ring.try_push(std::move(extra)));
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(*extra, 99);
  std::unique_ptr<int> out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(*out, i);  // strict FIFO
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(ring.size_approx(), 0u);
}

TEST(SpscRing, ConcurrentProducerConsumerStress) {
  // The TSan target: one producer thread, one consumer thread, a ring
  // small enough that both full and empty transitions happen constantly.
  constexpr std::uint64_t kItems = 100'000;
  core::SpscRing<std::uint64_t> ring(64);
  std::uint64_t received = 0, sum = 0;
  std::thread consumer([&] {
    std::uint64_t expect = 0, v = 0;
    while (received < kItems) {
      if (ring.try_pop(v)) {
        EXPECT_EQ(v, expect++);  // order survives the thread boundary
        sum += v;
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < kItems;) {
    if (ring.try_push(std::uint64_t(i)))
      ++i;
    else
      std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(received, kItems);
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
}

TEST(MpscRing, PerLaneFifoUnderConcurrentProducers) {
  constexpr std::size_t kProducers = 3;
  constexpr std::uint64_t kPerLane = 20'000;
  // Items carry (lane, seq) so the consumer can check each lane's order.
  core::MpscRing<std::pair<std::size_t, std::uint64_t>> ring(kProducers, 32);
  std::atomic<std::uint64_t> received{0};
  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::thread consumer([&] {
    std::pair<std::size_t, std::uint64_t> item;
    while (received.load(std::memory_order_relaxed) <
           kProducers * kPerLane) {
      if (ring.try_pop(item)) {
        // Round-robin drain interleaves lanes, but WITHIN a lane order
        // is the producer's push order.
        EXPECT_EQ(item.second, next_seq[item.first]++);
        received.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t lane = 0; lane < kProducers; ++lane)
    producers.emplace_back([&, lane] {
      for (std::uint64_t i = 0; i < kPerLane;) {
        if (ring.try_push(lane, {lane, std::uint64_t(i)}))
          ++i;
        else
          std::this_thread::yield();
      }
    });
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(received.load(), kProducers * kPerLane);
  for (std::size_t lane = 0; lane < kProducers; ++lane)
    EXPECT_EQ(next_seq[lane], kPerLane);
}

// --- shard partition ---------------------------------------------------------

TEST(ShardOf, DeterministicAndCoversEveryShard) {
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    std::vector<std::size_t> hits(shards, 0);
    for (std::uint64_t id = 1; id <= 4096; ++id) {
      const std::size_t s = engine::shard_of(id, shards);
      ASSERT_LT(s, shards);
      EXPECT_EQ(s, engine::shard_of(id, shards));  // pure function
      ++hits[s];
    }
    // splitmix64 finalizer: no shard starves (a contiguous-id workload
    // must not land on one shard).
    for (const std::size_t h : hits) EXPECT_GT(h, 4096u / shards / 4);
  }
}

// --- ShardEngine: mailbox overflow sheds -------------------------------------

TEST(ShardEngine, MailboxOverflowShedsExplicitly) {
  const Curve& c = Curve::k163();
  engine::ShardFleetConfig cfg;
  cfg.mailbox_capacity = 2;
  engine::ShardEngine eng(0, cfg, c, /*factory=*/{}, /*producers=*/1);
  const auto item = [](std::uint64_t id) {
    engine::IngressItem it;
    it.session = id;
    it.bytes = {0xAA, 0xBB};
    return it;
  };
  EXPECT_TRUE(eng.offer(0, item(1)));
  EXPECT_TRUE(eng.offer(0, item(2)));
  // Lane full: offer refuses (never blocks) and the shed counter moves —
  // the caller's cue to reply kReject.
  engine::IngressItem shed = item(3);
  EXPECT_FALSE(eng.offer(0, std::move(shed)));
  EXPECT_FALSE(eng.offer(0, item(4)));
  EXPECT_EQ(eng.stats().mailbox_shed, 2u);
  EXPECT_EQ(shed.session, 3u);  // intact for the reject reply
  EXPECT_FALSE(shed.bytes.empty());
}

// --- ShardEngine: in-process sessions, batch verify, forgery isolation -------

/// live_sessions() recomputed the slow way.
std::size_t scan_live(const engine::GatewayServer& gw) {
  std::size_t n = 0;
  for (const std::uint64_t id : gw.session_ids())
    if (gw.status(id) == engine::GatewaySessionStatus::kActive) ++n;
  return n;
}

/// Transport that loops shard downlinks straight into client endpoints.
struct LoopTransport final : engine::Transport {
  std::map<std::uint64_t, engine::ReliableEndpoint*> clients;
  void send_downlink(std::uint64_t session, const engine::Peer&,
                     std::vector<std::uint8_t> bytes) override {
    const auto it = clients.find(session);
    if (it != clients.end()) it->second->on_bytes(std::move(bytes));
  }
};

// --- in-process devices looped into the serving stack ------------------------

/// Device halves looped straight into a ShardEngine or ShardFleet. Each
/// device is a tag machine behind a DeviceEndpoint on its own client-side
/// EventQueue, never advanced: the loop loses nothing, so no device
/// retransmit ever comes due. A device's downlinks arrive on the thread
/// that runs its shard; its uplinks go out through `offer` on its `lane`.
/// Devices are added (and send their opening frame) before any loop
/// thread starts; from then on only their shard's thread touches them.
struct LoopDevices final : engine::Transport {
  struct Device {
    explicit Device(std::uint64_t seed) : rng(seed) {}
    Xoshiro256 rng;
    std::unique_ptr<proto::SessionMachine> machine;
    core::EventQueue queue;
    std::unique_ptr<engine::DeviceEndpoint> endpoint;
    std::size_t lane = 0;
    bool silent = false;  ///< drops every downlink: a device gone dark
  };
  using MakeMachine =
      std::function<std::unique_ptr<proto::SessionMachine>(Xoshiro256&)>;

  std::function<bool(std::size_t lane, engine::IngressItem&&)> offer;
  std::map<std::uint64_t, std::unique_ptr<Device>> devices;

  Device& add(std::uint64_t id, const MakeMachine& make) {
    auto owned = std::make_unique<Device>(1000 + id);
    Device& d = *owned;
    devices.emplace(id, std::move(owned));
    d.machine = make(d.rng);
    d.endpoint =
        std::make_unique<engine::DeviceEndpoint>(d.queue, id, id, *d.machine);
    d.endpoint->set_uplink([this, id, &d](std::vector<std::uint8_t> bytes) {
      engine::IngressItem item;
      item.session = id;
      item.peer = engine::Peer{1, 1};
      item.bytes = std::move(bytes);
      EXPECT_TRUE(offer(d.lane, std::move(item))) << "shed " << id;
    });
    d.endpoint->start();
    return d;
  }

  void send_downlink(std::uint64_t session, const engine::Peer&,
                     std::vector<std::uint8_t> bytes) override {
    Device& d = *devices.at(session);
    if (!d.silent) d.endpoint->on_downlink(std::move(bytes));
  }
};

proto::CipherFactory aes_factory() {
  return [](std::span<const std::uint8_t> key) {
    return std::unique_ptr<medsec::ciphers::BlockCipher>(
        new medsec::ciphers::Aes128(key));
  };
}

// --- ShardEngine: deferred verdicts (Schnorr transcripts, key ladders) -------

/// Deferred Schnorr sessions 100.. served by one ShardEngine over a
/// lossless loop; the last session answers with a wrong response.
struct DeferredSchnorrRig {
  static constexpr std::size_t kSessions = 9;
  static constexpr std::size_t kForged = kSessions - 1;  // last one lies

  static engine::ShardFleetConfig config(std::size_t verify_batch) {
    engine::ShardFleetConfig cfg;
    cfg.verify_batch = verify_batch;
    return cfg;
  }

  explicit DeferredSchnorrRig(std::size_t verify_batch)
      : eng(0, config(verify_batch), c,
            [this](std::uint64_t id) {
              engine::SessionSetup s;
              auto rng = std::make_unique<Xoshiro256>(1000 + id);
              s.machine = std::make_unique<proto::SchnorrVerifier>(
                  c, kp.X, *rng, proto::SchnorrVerifier::Mode::kDeferred);
              s.rng = std::move(rng);
              return s;
            },
            /*producers=*/1) {
    eng.set_transport(&loop);
  }

  /// Every device sends its commitment: the factory opens each session,
  /// the verifier machine answers with its challenge synchronously
  /// through the loop.
  void commit() {
    Xoshiro256 krng(7);
    k = krng.uniform_nonzero(c.order());
    const std::vector<std::uint8_t> commitment =
        proto::encode_point(c, medsec::ecc::generator_comb(c).mult_ct(k));
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::uint64_t id = 100 + i;
      auto ep = std::make_unique<engine::ReliableEndpoint>(cq, id, 9 + id);
      ep->set_frame_sink([this, id](std::vector<std::uint8_t> bytes) {
        engine::IngressItem it;
        it.session = id;
        it.peer = engine::Peer{1, 1};
        it.bytes = std::move(bytes);
        ASSERT_TRUE(eng.offer(0, std::move(it)));
      });
      ep->set_message_sink([this, i](const engine::Frame& f) {
        if (std::strcmp(f.label, proto::kLabelChallenge) == 0) {
          challenges[i] = proto::decode_scalar(f.payload);
          have[i] = true;
        }
      });
      eps.push_back(std::move(ep));
      loop.clients[id] = eps.back().get();
      eps.back()->send_message(proto::kLabelCommitment, commitment);
    }
    eng.drain_mailbox(1024);
    eng.drain_mailbox(1024);  // the challenge acks
    for (std::size_t i = 0; i < kSessions; ++i) ASSERT_TRUE(have[i]);
  }

  /// Every device answers its challenge; every exchange settles.
  void respond() {
    const auto& ring = c.scalar_ring();
    for (std::size_t i = 0; i < kSessions; ++i) {
      medsec::ecc::Scalar s = ring.add(k, ring.mul(challenges[i], kp.x));
      if (i == kForged) s = ring.add(s, s);  // valid scalar, wrong response
      eps[i]->send_message(proto::kLabelResponse, proto::encode_scalar(s));
    }
    eng.drain_mailbox(1024);
    eng.drain_mailbox(1024);
  }

  /// Every verdict has landed, in the shard's records and in the gateway
  /// alike, and the forgery is the one reject.
  void expect_verdicts() {
    const engine::ShardStats st = eng.stats();
    EXPECT_EQ(st.completed, kSessions);
    EXPECT_EQ(st.accepted, kSessions - 1);
    EXPECT_EQ(st.rejected, 1u);
    for (std::size_t i = 0; i < kSessions; ++i) {
      const auto rec = eng.records().find(100 + i);
      ASSERT_NE(rec, eng.records().end());
      EXPECT_TRUE(rec->second.completed);
      EXPECT_EQ(rec->second.accepted, i != kForged);
      EXPECT_EQ(eng.gateway().status(100 + i),
                engine::GatewaySessionStatus::kCompleted);
      EXPECT_EQ(eng.gateway().accepted(100 + i), i != kForged) << i;
    }
    EXPECT_EQ(eng.gateway().stats().accepted, kSessions - 1);
    EXPECT_EQ(eng.gateway().live_sessions(), 0u);
  }

  const Curve& c = Curve::k163();
  Xoshiro256 keyrng{42};
  proto::SchnorrKeyPair kp = proto::schnorr_keygen(c, keyrng);
  LoopTransport loop;
  engine::ShardEngine eng;
  core::EventQueue cq;  // client-side virtual world (never advances: no loss)
  std::vector<std::unique_ptr<engine::ReliableEndpoint>> eps;
  std::vector<medsec::ecc::Scalar> challenges =
      std::vector<medsec::ecc::Scalar>(kSessions);
  std::vector<bool> have = std::vector<bool>(kSessions, false);
  medsec::ecc::Scalar k;
};

/// PH and ECIES sessions 1..4 served by one ShardEngine over a lossless
/// loop, their server halves in `mode`: 1 a registered PH tag, 2 an
/// honest ECIES upload, 3 a PH tag the reader never registered, 4 an ECIES
/// blob encrypted to another key. 1 and 2 must be accepted, 3 and 4 not.
struct DeferredLadderRig {
  static constexpr std::uint64_t kSessions = 4;
  static bool honest(std::uint64_t id) { return id <= 2; }

  /// Forwards every downlink, counting kReject frames per session.
  struct Tally final : engine::Transport {
    engine::Transport* inner = nullptr;
    std::map<std::uint64_t, std::size_t> rejects;
    void send_downlink(std::uint64_t session, const engine::Peer& peer,
                       std::vector<std::uint8_t> bytes) override {
      const auto f = engine::decode_frame(bytes);
      if (f && f->type == engine::FrameType::kReject) ++rejects[session];
      inner->send_downlink(session, peer, std::move(bytes));
    }
  };

  /// `inert_flag` fills SessionSetup's second field, the Schnorr flag
  /// that nothing reads any more.
  explicit DeferredLadderRig(proto::VerdictMode mode, bool inert_flag = false)
      : eng(0, engine::ShardFleetConfig{}, c,
            [this, mode, inert_flag](std::uint64_t id) {
              engine::SessionSetup s{nullptr, inert_flag,
                                     std::make_unique<Xoshiro256>(500 + id)};
              if (id % 2 == 1)
                s.machine = std::make_unique<proto::PhReaderMachine>(
                    c, reader, *s.rng, mode);
              else
                s.machine = std::make_unique<proto::EciesReceiver>(
                    c, key.y, aes, 16, mode);
              return s;
            },
            /*producers=*/1) {
    loop.offer = [this](std::size_t lane, engine::IngressItem&& item) {
      return eng.offer(lane, std::move(item));
    };
    tally.inner = &loop;
    eng.set_transport(&tally);
  }

  /// Every device runs its side until the shard's mailbox is quiet.
  void run() {
    const auto ph = [this](const proto::PhTag& t) {
      return [this, &t](Xoshiro256& r) {
        return std::make_unique<proto::PhTagMachine>(c, t, r);
      };
    };
    const auto ecies = [this](const proto::EciesKeyPair& to) {
      return [this, &to](Xoshiro256& r) {
        return std::make_unique<proto::EciesUploader>(c, to.Y, telemetry,
                                                      aes, 16, r);
      };
    };
    loop.add(1, ph(tag));
    loop.add(2, ecies(key));
    loop.add(3, ph(stranger));
    loop.add(4, ecies(other));
    while (eng.drain_mailbox(1024) != 0) {
    }
  }

  proto::PhTag make_stranger() {
    proto::PhReader elsewhere = proto::ph_setup_reader(c, setup);
    proto::PhTag t = proto::ph_register_tag(c, elsewhere, setup);
    t.Y = reader.Y;  // provisioned for our reader, never registered
    return t;
  }

  const Curve& c = Curve::k163();
  Xoshiro256 setup{0x1AD};
  proto::PhReader reader = proto::ph_setup_reader(c, setup);
  proto::PhTag tag = proto::ph_register_tag(c, reader, setup);
  proto::PhTag stranger = make_stranger();
  proto::EciesKeyPair key = proto::ecies_keygen(c, setup);
  proto::EciesKeyPair other = proto::ecies_keygen(c, setup);
  proto::CipherFactory aes = aes_factory();
  std::vector<std::uint8_t> telemetry = std::vector<std::uint8_t>(48, 0xC3);
  LoopDevices loop;
  Tally tally;
  engine::ShardEngine eng;
};

TEST(ShardEngine, DeferredSchnorrBatchIsolatesForgedSession) {
  DeferredSchnorrRig rig(/*verify_batch=*/16);  // > sessions: ONE batch
  rig.commit();
  rig.respond();
  // Every exchange settled; every verdict is still parked in the batch.
  EXPECT_EQ(rig.eng.verifier().pending(), rig.kSessions);
  EXPECT_EQ(rig.eng.stats().completed, 0u);
  EXPECT_EQ(rig.eng.gateway().stats().completed, rig.kSessions);
  EXPECT_EQ(rig.eng.gateway().stats().accepted, 0u);

  rig.eng.flush_verifier();  // ONE multi-scalar multiplication...
  EXPECT_EQ(rig.eng.stats().verifier_flushes, 1u);
  rig.expect_verdicts();  // ...and the forgery is isolated
  const auto vs = rig.eng.verifier().stats();
  EXPECT_EQ(vs.items, rig.kSessions);
  EXPECT_GE(vs.single_fallbacks, 1u);  // the failed RLC batch was bisected
  EXPECT_TRUE(rig.eng.quiescent());
}

TEST(ShardEngine, DeferredVerdictLandsFromInsideItsOwnJudge) {
  // Batch size 1: each transcript fills its batch inside the judge, so
  // each verdict lands before the gateway's judge call has returned.
  DeferredSchnorrRig rig(/*verify_batch=*/1);
  rig.commit();
  rig.respond();
  EXPECT_EQ(rig.eng.verifier().pending(), 0u);
  rig.expect_verdicts();
  EXPECT_EQ(rig.eng.verifier().stats().batches, rig.kSessions);
}

TEST(ShardEngine, DeferredAcceptSurvivesSnapshotRestore) {
  DeferredSchnorrRig rig(/*verify_batch=*/16);
  rig.commit();
  rig.respond();
  rig.eng.flush_verifier();
  // A fresh node restores the sessions as the gateway recorded them.
  core::EventQueue q;
  engine::GatewayServer fresh(q, 0x78);
  for (std::size_t i = 0; i < rig.kSessions; ++i) {
    const std::uint64_t id = 100 + i;
    auto rng = std::make_unique<Xoshiro256>(0);
    auto machine = std::make_unique<proto::SchnorrVerifier>(
        rig.c, rig.kp.X, *rng, proto::SchnorrVerifier::Mode::kDeferred);
    fresh.restore_session(id, std::move(machine),
                          [](std::vector<std::uint8_t>) {},
                          rig.eng.gateway().snapshot_session(id), {},
                          std::move(rng));
    EXPECT_EQ(fresh.status(id), engine::GatewaySessionStatus::kCompleted);
    EXPECT_EQ(fresh.accepted(id), i != rig.kForged) << i;
  }
}

TEST(ShardEngine, FailoverLandsQueuedVerdictsOnRestoredSessions) {
  DeferredSchnorrRig rig(/*verify_batch=*/16);
  rig.commit();
  // Node death mid-protocol: every session is awaiting its response.
  const engine::GatewayStats first = rig.eng.failover();
  EXPECT_EQ(first.opened, rig.kSessions);
  EXPECT_EQ(rig.eng.gateway().stats().restored, rig.kSessions);
  EXPECT_EQ(rig.eng.gateway().live_sessions(), rig.kSessions);
  EXPECT_EQ(rig.eng.gateway().live_sessions(), scan_live(rig.eng.gateway()));
  rig.respond();
  EXPECT_EQ(rig.eng.verifier().pending(), rig.kSessions);

  // And again with every verdict still queued in the verifier.
  const engine::GatewayStats second = rig.eng.failover();
  EXPECT_EQ(second.completed, rig.kSessions);
  EXPECT_EQ(second.accepted, 0u);
  EXPECT_EQ(rig.eng.gateway().live_sessions(), 0u);
  EXPECT_EQ(rig.eng.gateway().live_sessions(), scan_live(rig.eng.gateway()));
  rig.eng.flush_verifier();
  rig.expect_verdicts();  // they landed on the restored sessions
  for (const auto& [id, rec] : rig.eng.records())
    EXPECT_EQ(rec.accepted, rig.eng.gateway().accepted(id)) << id;

  // PH and ECIES sessions with their key multiplications queued: the jobs
  // outlive the machines the node death takes with it, and land on the
  // restored sessions too.
  DeferredLadderRig ladders(proto::VerdictMode::kDeferred);
  ladders.run();
  ASSERT_EQ(ladders.eng.verifier().pending(), ladders.kSessions);
  const engine::GatewayStats dead = ladders.eng.failover();
  EXPECT_EQ(dead.completed, ladders.kSessions);
  EXPECT_EQ(dead.accepted, 0u);
  EXPECT_EQ(ladders.eng.gateway().stats().restored, ladders.kSessions);
  EXPECT_EQ(ladders.eng.verifier().pending(), ladders.kSessions);
  ladders.eng.flush_verifier();
  for (std::uint64_t id = 1; id <= ladders.kSessions; ++id) {
    EXPECT_EQ(ladders.eng.gateway().status(id),
              engine::GatewaySessionStatus::kCompleted);
    EXPECT_EQ(ladders.eng.gateway().accepted(id), ladders.honest(id)) << id;
    const auto rec = ladders.eng.records().find(id);
    ASSERT_NE(rec, ladders.eng.records().end()) << id;
    EXPECT_EQ(rec->second.accepted, ladders.honest(id)) << id;
  }
  EXPECT_EQ(ladders.eng.gateway().stats().accepted, 2u);
}

TEST(ShardEngine, DeferredLaddersLandTheInlineVerdicts) {
  DeferredLadderRig inline_rig(proto::VerdictMode::kInline);
  inline_rig.run();
  EXPECT_EQ(inline_rig.eng.verifier().pending(), 0u);

  DeferredLadderRig rig(proto::VerdictMode::kDeferred);
  rig.run();
  // Every exchange settled; every key multiplication is still queued,
  // and the queue keeps the shard from being quiescent.
  EXPECT_EQ(rig.eng.verifier().pending(), rig.kSessions);
  EXPECT_FALSE(rig.eng.quiescent());
  EXPECT_EQ(rig.eng.gateway().stats().completed, rig.kSessions);
  EXPECT_EQ(rig.eng.gateway().stats().accepted, 0u);
  EXPECT_EQ(rig.eng.stats().completed, 0u);

  rig.eng.flush_verifier();  // one lane batch, then each continuation
  EXPECT_EQ(rig.eng.verifier().pending(), 0u);
  EXPECT_TRUE(rig.eng.quiescent());
  for (std::uint64_t id = 1; id <= rig.kSessions; ++id) {
    EXPECT_EQ(rig.eng.gateway().accepted(id), rig.honest(id)) << id;
    EXPECT_EQ(inline_rig.eng.gateway().accepted(id), rig.honest(id)) << id;
    const auto rec = rig.eng.records().find(id);
    ASSERT_NE(rec, rig.eng.records().end()) << id;
    EXPECT_TRUE(rec->second.completed);
    EXPECT_EQ(rec->second.accepted, rig.honest(id)) << id;
  }
  const engine::BatchVerifierStats vs = rig.eng.verifier().stats();
  EXPECT_EQ(vs.ladders, rig.kSessions);
  EXPECT_EQ(vs.ladder_batches, 1u);
  EXPECT_EQ(vs.ladders_rejected, 2u);
  EXPECT_EQ(vs.items, 0u);  // no Schnorr transcript rode along
}

TEST(ShardEngine, DeferredEciesRefusalLandsCompletedWithoutReject) {
  // Inline, the receiver refuses a blob it cannot open on the spot: the
  // session fails and the device hears a kReject frame.
  DeferredLadderRig inline_rig(proto::VerdictMode::kInline);
  inline_rig.run();
  EXPECT_EQ(inline_rig.eng.gateway().status(4),
            engine::GatewaySessionStatus::kFailed);
  EXPECT_EQ(inline_rig.tally.rejects[4], 1u);

  // Deferred, the exchange has completed before the ladder runs, so the
  // refusal lands as a completed session that is not accepted, and no
  // kReject goes back — the way a deferred Schnorr forgery lands.
  DeferredLadderRig rig(proto::VerdictMode::kDeferred);
  rig.run();
  rig.eng.flush_verifier();
  EXPECT_EQ(rig.eng.gateway().status(4),
            engine::GatewaySessionStatus::kCompleted);
  EXPECT_FALSE(rig.eng.gateway().accepted(4));
  EXPECT_EQ(rig.tally.rejects.count(4), 0u);
  EXPECT_TRUE(rig.loop.devices.at(4)->endpoint->done());
  // An unidentified PH tag completes unaccepted in either mode.
  for (DeferredLadderRig* r : {&inline_rig, &rig}) {
    EXPECT_EQ(r->eng.gateway().status(3),
              engine::GatewaySessionStatus::kCompleted);
    EXPECT_FALSE(r->eng.gateway().accepted(3));
    EXPECT_EQ(r->tally.rejects.count(3), 0u);
  }
}

// --- ShardEngine: the machine says how it is judged --------------------------

TEST(ShardEngine, DeferredSchnorrVerifierNeedsNoFlagOrJudge) {
  // The rig's setups carry neither the old Schnorr flag nor a judge: the
  // verifier's kDeferred mode alone sends its claim to the queue, and only
  // the forgery is refused — in the records, ShardStats and the gateway.
  DeferredSchnorrRig rig(/*verify_batch=*/4);
  rig.commit();
  rig.respond();
  rig.eng.flush_verifier();
  rig.expect_verdicts();
  const engine::BatchVerifierStats vs = rig.eng.verifier().stats();
  EXPECT_EQ(vs.items, rig.kSessions);
  EXPECT_EQ(vs.rejected, 1u);
}

TEST(ShardEngine, InlinePhReaderWithoutJudgeRefusesUnregisteredTag) {
  // No judge: an inline reader's verdict is its own accepted(), so the
  // tag it never registered (session 3) completes the protocol unaccepted.
  DeferredLadderRig rig(proto::VerdictMode::kInline);
  rig.run();
  EXPECT_EQ(rig.eng.gateway().status(3),
            engine::GatewaySessionStatus::kCompleted);
  EXPECT_FALSE(rig.eng.gateway().accepted(3));
  const auto rec = rig.eng.records().find(3);
  ASSERT_NE(rec, rig.eng.records().end());
  EXPECT_TRUE(rec->second.completed);
  EXPECT_FALSE(rec->second.accepted);
  EXPECT_TRUE(rig.eng.gateway().accepted(1));
  // Sessions 1-3 settle with a verdict; the ECIES blob no key opens (4)
  // fails inline instead.
  const engine::ShardStats st = rig.eng.stats();
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.accepted, 2u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(rig.eng.gateway().stats().accepted, 2u);
}

TEST(ShardEngine, InertSchnorrFlagChangesNothing) {
  // The old flag on inline PH readers and ECIES receivers: nothing reads
  // it, so every session lands the verdict it lands without it.
  DeferredLadderRig plain(proto::VerdictMode::kInline);
  DeferredLadderRig flagged(proto::VerdictMode::kInline, /*inert_flag=*/true);
  plain.run();
  flagged.run();
  for (std::uint64_t id = 1; id <= flagged.kSessions; ++id) {
    EXPECT_EQ(flagged.eng.gateway().status(id),
              plain.eng.gateway().status(id))
        << id;
    EXPECT_EQ(flagged.eng.gateway().accepted(id), flagged.honest(id)) << id;
    EXPECT_EQ(plain.eng.gateway().accepted(id), flagged.honest(id)) << id;
  }
  EXPECT_EQ(flagged.eng.stats().accepted, 2u);
  EXPECT_EQ(flagged.eng.verifier().stats().items, 0u);
}

/// Device: one blob, then done.
struct OneShotDevice final : proto::SessionMachine {
  proto::StepResult start() override {
    return step(proto::StepResult::done(
        proto::Message{proto::kLabelEciesBlob, {0x01}}));
  }
  proto::StepResult on_message(const proto::Message&) override {
    return step(proto::StepResult::failed());
  }
};

/// Server: finishes on its first message and leaves `job` to the host.
struct JobServer final : proto::SessionMachine {
  explicit JobServer(proto::LadderJob j) : job(std::move(j)) {}
  proto::StepResult on_message(const proto::Message&) override {
    return step(proto::StepResult::done());
  }
  std::optional<proto::DeferredWork> deferred() const override {
    if (state() != proto::SessionState::kDone) return std::nullopt;
    return job;
  }
  proto::LadderJob job;
};

TEST(ShardEngine, ThrowingLadderContinuationRejectsOnlyItsSession) {
  // The gateway's poison rule, applied to the deferred queue: a
  // continuation that throws refuses its own session, every other job of
  // its lane batch still lands, and nothing escapes the tick.
  const Curve& c = Curve::k163();
  constexpr std::uint64_t kSessions = 9;  // one full 8-lane group + a tail
  constexpr std::uint64_t kPoison = 5;
  Xoshiro256 rng(46);
  const medsec::ecc::Scalar k = rng.uniform_nonzero(c.order());
  const medsec::ecc::Point q =
      medsec::ecc::generator_comb(c).mult_ct(rng.uniform_nonzero(c.order()));
  const std::optional<medsec::ecc::Fe> want = medsec::ecc::ladder_x(c, k, q);
  engine::SessionFactory factory = [&k, &q, &want](std::uint64_t id) {
    engine::SessionSetup s;
    s.machine = std::make_unique<JobServer>(proto::LadderJob{
        k, q, [id, want](const std::optional<medsec::ecc::Fe>& x) {
          if (id == kPoison) throw std::runtime_error("poisoned continuation");
          return x == want;
        }});
    return s;
  };
  engine::ShardEngine eng(0, engine::ShardFleetConfig{}, c, factory,
                          /*producers=*/1);
  LoopDevices loop;
  loop.offer = [&eng](std::size_t lane, engine::IngressItem&& item) {
    return eng.offer(lane, std::move(item));
  };
  eng.set_transport(&loop);
  for (std::uint64_t id = 1; id <= kSessions; ++id)
    loop.add(id, [](Xoshiro256&) { return std::make_unique<OneShotDevice>(); });
  while (eng.drain_mailbox(1024) != 0) {
  }
  ASSERT_EQ(eng.verifier().pending(), kSessions);

  EXPECT_NO_THROW(eng.tick(0));  // the tick's flush runs the batch
  EXPECT_TRUE(eng.quiescent());
  for (std::uint64_t id = 1; id <= kSessions; ++id) {
    EXPECT_EQ(eng.gateway().accepted(id), id != kPoison) << id;
    const auto rec = eng.records().find(id);
    ASSERT_NE(rec, eng.records().end()) << id;
    EXPECT_TRUE(rec->second.completed);
    EXPECT_EQ(rec->second.accepted, id != kPoison) << id;
  }
  const engine::BatchVerifierStats vs = eng.verifier().stats();
  EXPECT_EQ(vs.ladders, kSessions);
  EXPECT_EQ(vs.ladder_batches, 1u);
  EXPECT_EQ(vs.ladders_rejected, 1u);
}

// --- shard-count invariance --------------------------------------------------

TEST(ShardedCampaign, DigestBitIdenticalAtAnyShardCount) {
  engine::ShardedCampaignConfig sc;
  sc.chaos.sessions = 96;
  sc.chaos.uplink.drop = 0.05;
  sc.chaos.uplink.corrupt = 0.03;
  sc.chaos.downlink.drop = 0.05;
  sc.chaos.downlink.duplicate = 0.02;
  sc.chaos.failover_at = 3000;  // node death mid-protocol rides along
  sc.verify_batch = 8;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const bool parallel : {false, true}) {
      sc.shards = shards;
      sc.parallel = parallel;
      const auto r = engine::run_sharded_campaign(sc);
      // Hash-partitioned shard worlds with deferred batched Schnorr
      // verification give one campaign, bit for bit, at any width.
      EXPECT_EQ(r.chaos.digest, 0x536390b50aa6aba0ull)
          << std::hex << "shards=" << shards << " parallel=" << parallel
          << " digest 0x" << r.chaos.digest;
      EXPECT_EQ(r.chaos.completed, 96u);
      EXPECT_EQ(r.chaos.corrupt_accepted, 0u);
      EXPECT_EQ(r.chaos.gateway.accepted, r.chaos.accepted);
      // The gid%4==0 Schnorr quarter really went through the batch path,
      // and the PH and ECIES halves through the lane batch.
      EXPECT_GT(r.verifier.items, 0u);
      EXPECT_GT(r.verifier.batches, 0u);
      EXPECT_GT(r.verifier.ladders, 0u);
      EXPECT_GT(r.verifier.ladder_batches, 0u);
    }
  }
}

// --- ShardEngine: batch-verify coefficients ----------------------------------

TEST(ShardEngine, BatchCoefficientsAreUnpredictableToDevices) {
  // If a shard's RLC coefficients were a function of its config, a device
  // could read them off the source and forge two transcripts
  // s_i = k_i + e_i·x + δ_i with c1·δ1 + c2·δ2 = 0: each fails alone,
  // and their errors cancel in the combined equation.
  const Curve& c = Curve::k163();
  const engine::ShardFleetConfig cfg;
  engine::ShardEngine eng(0, cfg, c, /*factory=*/{}, /*producers=*/1);
  Xoshiro256 predicted(engine::campaign::mix_seed(cfg.seed, 0xB47C));
  const auto coefficient = [&predicted] {
    std::uint64_t v;
    do {
      v = predicted.next_u64();
    } while (v == 0);
    return medsec::ecc::Scalar{v};
  };
  const medsec::ecc::Scalar c1 = coefficient();
  const medsec::ecc::Scalar c2 = coefficient();

  const auto& ring = c.scalar_ring();
  Xoshiro256 rng(61);
  const auto kp = proto::schnorr_keygen(c, rng);
  int accepted = 0, rejected = 0;
  for (const medsec::ecc::Scalar& delta : {c2, ring.neg(c1)}) {
    const medsec::ecc::Scalar k = rng.uniform_nonzero(c.order());
    const medsec::ecc::Scalar e = rng.uniform_nonzero(c.order());
    const medsec::ecc::Point R = medsec::ecc::generator_comb(c).mult_ct(k);
    const medsec::ecc::Scalar s =
        ring.add(ring.add(k, ring.mul(e, kp.x)), delta);
    ASSERT_FALSE(proto::schnorr_verify(c, kp.X, {R, e, s}));
    engine::PendingTranscript t;
    t.X = kp.X;
    t.commitment_wire = proto::encode_point(c, R);
    t.challenge = e;
    t.response = s;
    t.on_result = [&](bool ok) { ++(ok ? accepted : rejected); };
    eng.verifier().enqueue(std::move(t));
  }
  eng.flush_verifier();
  EXPECT_EQ(accepted, 0);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(eng.verifier().stats().rlc_failures, 1u);
  // The bisection sums the first item alone and the second by difference.
  EXPECT_EQ(eng.verifier().stats().single_fallbacks, 1u);
}

// --- ShardEngine: the inline-judge path --------------------------------------

TEST(ShardEngine, InlineJudgeSettlesMutualAuthSessions) {
  // Generic sessions ride the same shard: a symmetric mutual-auth server
  // machine, judged inline at settle by its own accepted() instead of
  // through the batch queue.
  const Curve& c = Curve::k163();
  const proto::CipherFactory aes = aes_factory();
  const auto keys =
      proto::derive_session_keys(std::vector<std::uint8_t>(16, 7), 16);
  const std::vector<std::uint8_t> telemetry{'o', 'k'};
  engine::SessionFactory factory = [&aes, &keys](std::uint64_t id) {
    engine::SessionSetup s;
    auto rng = std::make_unique<Xoshiro256>(300 + id);
    s.machine = std::make_unique<proto::MutualAuthServer>(aes, keys, *rng);
    s.rng = std::move(rng);
    return s;
  };
  engine::ShardEngine eng(0, engine::ShardFleetConfig{}, c, factory,
                          /*producers=*/1);
  LoopDevices loop;
  loop.offer = [&eng](std::size_t lane, engine::IngressItem&& item) {
    return eng.offer(lane, std::move(item));
  };
  eng.set_transport(&loop);

  constexpr std::uint64_t kSessions = 4;
  for (std::uint64_t id = 1; id <= kSessions; ++id)
    loop.add(id, [&](Xoshiro256& r) {
      return std::make_unique<proto::MutualAuthTag>(aes, keys, telemetry, r);
    });
  while (eng.drain_mailbox(1024) != 0) {
  }

  const engine::ShardStats st = eng.stats();
  EXPECT_EQ(st.opened, kSessions);
  EXPECT_EQ(st.completed, kSessions);
  EXPECT_EQ(st.accepted, kSessions);
  EXPECT_EQ(st.rejected, 0u);
  for (std::uint64_t id = 1; id <= kSessions; ++id) {
    const auto rec = eng.records().find(id);
    ASSERT_NE(rec, eng.records().end()) << id;
    EXPECT_TRUE(rec->second.completed);
    EXPECT_TRUE(rec->second.accepted);
    EXPECT_TRUE(loop.devices.at(id)->endpoint->done());
    EXPECT_TRUE(static_cast<const proto::MutualAuthTag&>(
                    *loop.devices.at(id)->machine)
                    .accepted_server());
  }
  EXPECT_EQ(eng.verifier().stats().items, 0u);  // nothing was deferred
}

// --- ShardEngine: a refused open is answered, not dropped -------------------

TEST(ShardEngine, RefusedOpenIsAnsweredWithReject) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(44);
  const auto kp = proto::schnorr_keygen(c, rng);
  engine::DeviceRegistry registry(c);
  const std::uint32_t device = registry.enroll(kp.X);
  for (std::size_t i = 0; i < engine::DeviceRegistry::kFaultThreshold; ++i)
    registry.report_unrecovered_fault(device);
  ASSERT_TRUE(registry.quarantined(device));

  engine::SessionFactory factory = [&c, &registry, device](std::uint64_t id) {
    engine::SessionSetup s;
    const auto key = registry.admit(device);
    if (!key) return s;  // quarantined: refuse
    auto r = std::make_unique<Xoshiro256>(id);
    s.machine = std::make_unique<proto::SchnorrVerifier>(
        c, *key, *r, proto::SchnorrVerifier::Mode::kDeferred);
    s.rng = std::move(r);
    return s;
  };
  engine::ShardEngine eng(0, engine::ShardFleetConfig{}, c, factory,
                          /*producers=*/1);
  std::vector<std::vector<std::uint8_t>> downlinks;
  struct Capture final : engine::Transport {
    std::vector<std::vector<std::uint8_t>>* out;
    void send_downlink(std::uint64_t, const engine::Peer&,
                       std::vector<std::uint8_t> bytes) override {
      out->push_back(std::move(bytes));
    }
  } capture;
  capture.out = &downlinks;
  eng.set_transport(&capture);

  core::EventQueue cq;
  engine::ReliableEndpoint ep(cq, 7, 9);
  ep.set_frame_sink([&eng](std::vector<std::uint8_t> bytes) {
    engine::IngressItem it;
    it.session = 7;
    it.peer = engine::Peer{1, 1};
    it.bytes = std::move(bytes);
    ASSERT_TRUE(eng.offer(0, std::move(it)));
  });
  ep.send_message("commitment R", proto::encode_point(c, kp.X));
  eng.drain_mailbox(1024);

  ASSERT_EQ(downlinks.size(), 1u);
  const auto f = engine::decode_frame(downlinks[0]);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, engine::FrameType::kReject);
  EXPECT_EQ(f->session, 7u);
  EXPECT_FALSE(eng.gateway().has_session(7));
  const engine::ShardStats st = eng.stats();
  EXPECT_EQ(st.opened, 0u);
  EXPECT_EQ(st.rejected, 1u);
  // The device fails fast instead of retransmitting into silence.
  ep.on_bytes(std::move(downlinks[0]));
  EXPECT_TRUE(ep.failed());
}

// --- ShardEngine: bytes that fail the CRC open nothing ----------------------

TEST(ShardEngine, CrcFailingDatagramsOpenNoSession) {
  // What the UDP front end forwards: anything with a frame-sized header
  // and the magic. N such datagrams with distinct ids and a bad CRC must
  // not make the factory build N machines that no timer ever settles.
  const Curve& c = Curve::k163();
  Xoshiro256 key_rng(45);
  const auto kp = proto::schnorr_keygen(c, key_rng);
  std::size_t built = 0;
  engine::SessionFactory factory = [&](std::uint64_t id) {
    ++built;
    engine::SessionSetup s;
    auto r = std::make_unique<Xoshiro256>(id);
    s.machine = std::make_unique<proto::SchnorrVerifier>(c, kp.X, *r);
    s.rng = std::move(r);
    return s;
  };
  engine::ShardEngine eng(0, engine::ShardFleetConfig{}, c, factory,
                          /*producers=*/1);
  struct Count final : engine::Transport {
    std::size_t sent = 0;
    void send_downlink(std::uint64_t, const engine::Peer&,
                       std::vector<std::uint8_t>) override {
      ++sent;
    }
  } transport;
  eng.set_transport(&transport);

  constexpr std::uint64_t kDatagrams = 1000;
  engine::Frame f;
  f.label = proto::kLabelCommitment;
  f.payload = proto::encode_point(c, kp.X);
  for (std::uint64_t id = 1; id <= kDatagrams; ++id) {
    f.session = id;
    std::vector<std::uint8_t> bytes = engine::encode_frame(f);
    bytes[bytes.size() - 6] ^= 0x5A;  // a payload byte: the CRC fails
    ASSERT_EQ(engine::peek_frame_session(bytes), id);
    eng.ingest(engine::IngressItem{id, engine::Peer{1, 1}, std::move(bytes)});
  }
  EXPECT_TRUE(eng.gateway().session_ids().empty());
  EXPECT_EQ(eng.gateway().live_sessions(), 0u);
  EXPECT_EQ(eng.stats().opened, 0u);
  EXPECT_EQ(eng.stats().rejected, 0u);
  EXPECT_EQ(eng.stats().stray_dropped, kDatagrams);
  EXPECT_EQ(transport.sent, 0u);
  EXPECT_EQ(built, 0u);

  // Intact frames that are not data (an ack, a reject) open nothing
  // either; the same data frame intact opens its session as before.
  engine::Frame control;
  control.session = kDatagrams + 1;
  for (const auto type : {engine::FrameType::kAck,
                          engine::FrameType::kReject}) {
    control.type = type;
    eng.ingest(engine::IngressItem{control.session, engine::Peer{1, 1},
                                   engine::encode_frame(control)});
  }
  EXPECT_EQ(eng.stats().stray_dropped, kDatagrams + 2);
  f.session = kDatagrams + 1;
  eng.ingest(engine::IngressItem{f.session, engine::Peer{1, 1},
                                 engine::encode_frame(f)});
  EXPECT_EQ(eng.stats().opened, 1u);
  EXPECT_EQ(eng.gateway().live_sessions(), 1u);
  EXPECT_EQ(eng.stats().stray_dropped, kDatagrams + 2);
  EXPECT_EQ(built, 1u);
}

// --- ShardFleet: a multi-shard fleet on its loop threads ---------------------

constexpr std::uint32_t kFleetDevices = 8;

std::uint32_t device_of(std::uint64_t session) {
  return static_cast<std::uint32_t>((session - 1) % kFleetDevices);
}

engine::ShardFleetConfig loop_fleet_config(std::size_t shards,
                                           std::size_t verify_batch) {
  engine::ShardFleetConfig cfg;
  cfg.shards = shards;
  cfg.verify_batch = verify_batch;
  // 1 cycle = 1 µs: no retransmit comes due on a lossless loop.
  cfg.gateway.delivery.rto_initial = 1'000'000;
  cfg.gateway.delivery.rto_max = 4'000'000;
  return cfg;
}

/// Deferred Schnorr verifiers against the key the registry admits for the
/// session's device.
engine::SessionFactory registry_factory(const Curve& c,
                                        const engine::DeviceRegistry& reg) {
  return [&c, &reg](std::uint64_t id) {
    engine::SessionSetup s;
    const auto key = reg.admit(device_of(id));
    if (!key) return s;
    auto r = std::make_unique<Xoshiro256>(5000 + id);
    s.machine = std::make_unique<proto::SchnorrVerifier>(
        c, *key, *r, proto::SchnorrVerifier::Mode::kDeferred);
    s.rng = std::move(r);
    return s;
  };
}

void run_forged_fleet(std::size_t verify_batch) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(9);
  engine::DeviceRegistry registry(c);
  std::vector<proto::SchnorrKeyPair> keys;
  for (std::uint32_t d = 0; d < kFleetDevices; ++d) {
    keys.push_back(proto::schnorr_keygen(c, rng));
    registry.enroll(keys.back().X);
  }
  const engine::ShardFleetConfig cfg = loop_fleet_config(4, verify_batch);
  LoopDevices loop;
  engine::ShardFleet fleet(c, cfg, registry_factory(c, registry),
                           /*producers=*/1 + cfg.shards);
  loop.offer = [&fleet](std::size_t lane, engine::IngressItem&& item) {
    return fleet.offer(lane, std::move(item));
  };

  constexpr std::uint64_t kSessions = 40;
  const auto forged = [](std::uint64_t id) { return id == 18 || id == 32; };
  for (std::uint64_t id = 1; id <= kSessions; ++id) {
    // Impersonators prove knowledge of a key that is not the one enrolled
    // for their device.
    const proto::SchnorrKeyPair key =
        forged(id) ? proto::schnorr_keygen(c, rng) : keys[device_of(id)];
    loop.add(id, [&](Xoshiro256& r) {
          return std::make_unique<proto::SchnorrProver>(c, key, r);
        }).lane = 1 + fleet.shard_index(id);
  }
  fleet.start(loop);
  const engine::DrainReport report = fleet.drain_for(std::chrono::seconds(60));
  EXPECT_TRUE(report.quiescent);
  EXPECT_TRUE(report.stragglers.empty());

  engine::BatchVerifierStats vs;
  for (std::size_t s = 0; s < fleet.shards(); ++s)
    vs += fleet.shard(s).verifier().stats();
  for (std::uint64_t id = 1; id <= kSessions; ++id) {
    const auto& records = fleet.shard(fleet.shard_index(id)).records();
    const auto rec = records.find(id);
    ASSERT_NE(rec, records.end()) << id;
    EXPECT_TRUE(rec->second.completed) << id;
    EXPECT_EQ(rec->second.accepted, !forged(id)) << id;
  }
  const engine::ShardStats st = fleet.totals();
  EXPECT_EQ(st.opened, kSessions);
  EXPECT_EQ(st.completed, kSessions);
  EXPECT_EQ(st.accepted, kSessions - 2);
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_EQ(st.mailbox_shed, 0u);
  EXPECT_EQ(vs.items, kSessions);
  EXPECT_GE(vs.rlc_failures, 1u);  // the forgeries' batches were bisected
  if (verify_batch == 1) {
    EXPECT_EQ(vs.batches, kSessions);
  }
}

TEST(ShardFleet, BatchedFleetAcceptsHonestAndIsolatesForged) {
  run_forged_fleet(16);
}

TEST(ShardFleet, BatchSizeOneIsIndependentVerification) {
  run_forged_fleet(1);
}

TEST(ShardFleet, DrainForNamesDeviceThatWentSilent) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(31);
  engine::DeviceRegistry registry(c);
  std::vector<proto::SchnorrKeyPair> keys;
  for (std::uint32_t d = 0; d < kFleetDevices; ++d) {
    keys.push_back(proto::schnorr_keygen(c, rng));
    registry.enroll(keys.back().X);
  }
  const engine::ShardFleetConfig cfg = loop_fleet_config(2, 64);
  LoopDevices loop;
  engine::ShardFleet fleet(c, cfg, registry_factory(c, registry),
                           /*producers=*/1 + cfg.shards);
  loop.offer = [&fleet](std::size_t lane, engine::IngressItem&& item) {
    return fleet.offer(lane, std::move(item));
  };
  constexpr std::uint64_t kSilent = 3;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    LoopDevices::Device& d = loop.add(id, [&](Xoshiro256& r) {
      return std::make_unique<proto::SchnorrProver>(c, keys[device_of(id)],
                                                    r);
    });
    d.lane = 1 + fleet.shard_index(id);
    // Sends its commitment, then hears nothing: the challenge is never
    // acked, so its shard keeps a retransmit timer and never goes quiet.
    d.silent = id == kSilent;
  }
  fleet.start(loop);
  const auto t0 = std::chrono::steady_clock::now();
  while (fleet.totals().completed < 3) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t1 = std::chrono::steady_clock::now();
  const engine::DrainReport report =
      fleet.drain_for(std::chrono::milliseconds(20));
  EXPECT_LT(std::chrono::steady_clock::now() - t1, std::chrono::seconds(5));
  EXPECT_FALSE(fleet.running());
  EXPECT_FALSE(report.quiescent);  // the silent session's shard was forced
  EXPECT_EQ(report.stragglers, std::vector<std::uint64_t>{kSilent});
  for (const std::uint64_t id : {1u, 2u, 4u}) {
    const auto& records = fleet.shard(fleet.shard_index(id)).records();
    const auto rec = records.find(id);
    ASSERT_NE(rec, records.end()) << id;
    EXPECT_TRUE(rec->second.accepted) << id;
  }
}

// --- stats merge -------------------------------------------------------------

TEST(Counters, PlusEqualsSumsEveryFieldOfEveryStatsStruct) {
  // Distinct values everywhere, so a field summed into its neighbour (or
  // not at all) shows up by name.
  engine::GatewayStats g{1, 2, 3, 4, 5, 6, 7, 8, 9};
  g += engine::GatewayStats{10, 20, 30, 40, 50, 60, 70, 80, 90};
  EXPECT_EQ(g.opened, 11u);
  EXPECT_EQ(g.shed, 22u);
  EXPECT_EQ(g.completed, 33u);
  EXPECT_EQ(g.accepted, 44u);
  EXPECT_EQ(g.failed, 55u);
  EXPECT_EQ(g.quarantined, 66u);
  EXPECT_EQ(g.deadline_evicted, 77u);
  EXPECT_EQ(g.idle_evicted, 88u);
  EXPECT_EQ(g.restored, 99u);

  engine::LinkStats l{1, 2, 3, 4, 5, 6, 7};
  l += engine::LinkStats{10, 20, 30, 40, 50, 60, 70};
  EXPECT_EQ(l.sent, 11u);
  EXPECT_EQ(l.delivered, 22u);
  EXPECT_EQ(l.dropped, 33u);
  EXPECT_EQ(l.corrupted, 44u);
  EXPECT_EQ(l.duplicated, 55u);
  EXPECT_EQ(l.reordered, 66u);
  EXPECT_EQ(l.corrupted_delivered, 77u);

  engine::DeliveryStats d{1, 2, 3, 4, 5, 6, 7};
  d += engine::DeliveryStats{10, 20, 30, 40, 50, 60, 70};
  EXPECT_EQ(d.data_sent, 11u);
  EXPECT_EQ(d.retransmits, 22u);
  EXPECT_EQ(d.acks_sent, 33u);
  EXPECT_EQ(d.delivered, 44u);
  EXPECT_EQ(d.dup_suppressed, 55u);
  EXPECT_EQ(d.decode_failures, 66u);
  EXPECT_EQ(d.out_of_window, 77u);

  engine::ShardStats sh{1, 2, 3, 4, 5, 6, 7, 8, 9};
  sh += engine::ShardStats{10, 20, 30, 40, 50, 60, 70, 80, 90};
  EXPECT_EQ(sh.ingress, 11u);
  EXPECT_EQ(sh.mailbox_shed, 22u);
  EXPECT_EQ(sh.stray_dropped, 33u);
  EXPECT_EQ(sh.opened, 44u);
  EXPECT_EQ(sh.completed, 55u);
  EXPECT_EQ(sh.accepted, 66u);
  EXPECT_EQ(sh.rejected, 77u);
  EXPECT_EQ(sh.verifier_flushes, 88u);
  EXPECT_EQ(sh.ticks, 99u);

  engine::BatchVerifierStats v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  v += engine::BatchVerifierStats{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(v.items, 11u);
  EXPECT_EQ(v.batches, 22u);
  EXPECT_EQ(v.accepted, 33u);
  EXPECT_EQ(v.rejected, 44u);
  EXPECT_EQ(v.decode_failures, 55u);
  EXPECT_EQ(v.rlc_failures, 66u);
  EXPECT_EQ(v.single_fallbacks, 77u);
  EXPECT_EQ(v.ladders, 88u);
  EXPECT_EQ(v.ladder_batches, 99u);
  EXPECT_EQ(v.ladders_rejected, 110u);

  // Counters wrap like the std::uint64_t they are, each on its own.
  engine::LinkStats w{~0ull, 0, 0, 0, 0, 0, 0};
  w += engine::LinkStats{2, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(w.sent, 1u);
  EXPECT_EQ(w.delivered, 0u);
}

// --- frame pool --------------------------------------------------------------

TEST(FramePool, EncodeReusesReleasedBuffers) {
  engine::Frame f;
  f.type = engine::FrameType::kData;
  f.session = 7;
  f.label = proto::kLabelResponse;
  f.payload = {1, 2, 3};
  std::vector<std::uint8_t> a = engine::encode_frame(f);
  const std::uint8_t* ptr = a.data();
  const std::size_t cap = a.capacity();
  engine::FramePool::release(std::move(a));
  // Same thread, immediately after release: the pooled allocation comes
  // back instead of a fresh one (the transport/delivery hot-path reuse).
  std::vector<std::uint8_t> b = engine::encode_frame(f);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_GE(b.capacity(), cap);
  const auto decoded = engine::decode_frame(b);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->session, 7u);
  engine::FramePool::release(std::move(b));
}

// --- UDP front end over loopback ---------------------------------------------

TEST(UdpFrontEnd, PeekSocketSmokeAndEndToEndSession) {
  const Curve& c = Curve::k163();
  Xoshiro256 keyrng(5);
  const auto kp = proto::schnorr_keygen(c, keyrng);

  // Header peek: a real frame yields its session id, junk yields nothing.
  engine::Frame f;
  f.type = engine::FrameType::kData;
  f.session = 0xAB54A98CEB1F0AD2ULL;
  f.label = "probe";
  f.payload = {9, 9};
  std::vector<std::uint8_t> enc = engine::encode_frame(f);
  const auto peeked = engine::peek_frame_session(enc);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, f.session);
  engine::FramePool::release(std::move(enc));
  const std::vector<std::uint8_t> junk = {0xDE, 0xAD};
  EXPECT_FALSE(engine::peek_frame_session(junk).has_value());

  // Fleet + front end on an ephemeral port; a raw-socket client runs two
  // full Schnorr exchanges (one honest, one forged) over real datagrams.
  engine::ShardFleetConfig cfg;
  cfg.shards = 1;
  cfg.verify_batch = 4;
  cfg.cycles_per_us = 0.01;
  engine::SessionFactory factory = [&c, &kp](std::uint64_t id) {
    engine::SessionSetup s;
    auto rng = std::make_unique<Xoshiro256>(500 + id);
    s.machine = std::make_unique<proto::SchnorrVerifier>(
        c, kp.X, *rng, proto::SchnorrVerifier::Mode::kDeferred);
    s.rng = std::move(rng);
    return s;
  };
  engine::ShardFleet fleet(c, cfg, factory, /*producers=*/1);
  engine::UdpFrontEnd front(fleet, /*port=*/0);
  ASSERT_NE(front.local_port(), 0u);
  front.start();
  fleet.start(front);

  const engine::Peer server{0x7F000001, front.local_port()};
  engine::UdpSocket sock;
  core::EventQueue cq;
  Xoshiro256 krng(11);
  const medsec::ecc::Scalar k = krng.uniform_nonzero(c.order());
  const std::vector<std::uint8_t> commitment =
      proto::encode_point(c, medsec::ecc::generator_comb(c).mult_ct(k));

  constexpr std::size_t kSessions = 2;  // id 1 honest, id 2 forged
  std::vector<std::unique_ptr<engine::ReliableEndpoint>> eps;
  std::vector<medsec::ecc::Scalar> challenges(kSessions);
  std::vector<bool> have(kSessions, false), done(kSessions, false);
  const auto& ring = c.scalar_ring();
  for (std::size_t i = 0; i < kSessions; ++i) {
    const std::uint64_t id = i + 1;
    auto ep = std::make_unique<engine::ReliableEndpoint>(cq, id, 77 + id);
    ep->set_frame_sink([&sock, server](std::vector<std::uint8_t> bytes) {
      sock.send_to(server, bytes);
      engine::FramePool::release(std::move(bytes));
    });
    ep->set_message_sink([&, i](const engine::Frame& fr) {
      if (std::strcmp(fr.label, "challenge e") == 0 && !have[i]) {
        challenges[i] = proto::decode_scalar(fr.payload);
        have[i] = true;
      }
    });
    eps.push_back(std::move(ep));
    eps.back()->send_message("commitment R", commitment);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto pump = [&] {
    engine::Peer from;
    for (;;) {
      std::vector<std::uint8_t> bytes = engine::FramePool::acquire();
      if (!sock.recv_from(bytes, from)) {
        engine::FramePool::release(std::move(bytes));
        break;
      }
      const auto sid = engine::peek_frame_session(bytes);
      if (sid && *sid >= 1 && *sid <= kSessions)
        eps[*sid - 1]->on_bytes(std::move(bytes));
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    cq.run_until(static_cast<core::Cycle>(
        static_cast<double>(us) * cfg.cycles_per_us));
  };
  const auto spin_until = [&](const std::function<bool()>& cond) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!cond()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      pump();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  spin_until([&] { return have[0] && have[1]; });
  for (std::size_t i = 0; i < kSessions; ++i) {
    medsec::ecc::Scalar s = ring.add(k, ring.mul(challenges[i], kp.x));
    if (i == 1) s = ring.add(s, s);  // the forged response
    eps[i]->send_message("response s", proto::encode_scalar(s));
  }
  spin_until([&] { return eps[0]->idle() && eps[1]->idle(); });
  spin_until([&] { return fleet.totals().completed >= kSessions; });

  fleet.stop();
  front.stop();
  const engine::ShardStats st = fleet.totals();
  EXPECT_EQ(st.opened, kSessions);
  EXPECT_EQ(st.completed, kSessions);
  EXPECT_EQ(st.accepted, 1u);  // honest in, forgery out — over real UDP
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.mailbox_shed, 0u);
  const engine::UdpFrontEndStats fs = front.stats();
  EXPECT_GT(fs.datagrams_in, 0u);
  EXPECT_GT(fs.datagrams_out, 0u);
}

TEST(UdpSocket, RecvFromYieldsExactlyTheDatagramIntoAReusedBuffer) {
  engine::UdpSocket rx;
  engine::UdpSocket tx;
  const engine::Peer to{0x7F000001, rx.local_port()};
  // A pooled buffer comes back holding an earlier datagram's bytes.
  const std::vector<std::uint8_t> stale(100, 0xEE);
  engine::Peer from;

  std::vector<std::uint8_t> out = stale;
  EXPECT_FALSE(rx.recv_from(out, from));
  EXPECT_TRUE(out.empty());

  for (const std::size_t len :
       {std::size_t{1}, std::size_t{60}, engine::UdpSocket::kMaxDatagram}) {
    SCOPED_TRACE("datagram of " + std::to_string(len) + " bytes");
    std::vector<std::uint8_t> sent(len);
    for (std::size_t i = 0; i < len; ++i)
      sent[i] = static_cast<std::uint8_t>(i * 7 + len);
    ASSERT_TRUE(tx.send_to(to, sent));
    out = stale;
    from = engine::Peer{};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!rx.recv_from(out, from)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    EXPECT_EQ(out, sent);
    EXPECT_EQ(from.ip, 0x7F000001u);
    EXPECT_EQ(from.port, tx.local_port());
  }
  out = stale;
  EXPECT_FALSE(rx.recv_from(out, from));
  EXPECT_TRUE(out.empty());
}

}  // namespace
