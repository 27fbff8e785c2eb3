// Tests for the resilience layer: framed transport + CRC and the label
// vocabulary, the seeded LossyLink fault schedule, ARQ delivery and its
// receive window, the GatewayServer's degradation policies (shedding,
// eviction, quarantine) and live count, session snapshot/restore
// failover, and the seeded chaos campaign's determinism contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ciphers/aes128.h"
#include "core/event_queue.h"
#include "ecc/curve.h"
#include "engine/delivery.h"
#include "engine/gateway.h"
#include "engine/shard.h"
#include "engine/transport.h"
#include "protocol/ecies.h"
#include "protocol/mutual_auth.h"
#include "protocol/peeters_hermans.h"
#include "protocol/schnorr.h"
#include "protocol/session.h"
#include "protocol/snapshot.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace {

using medsec::ecc::Curve;
using medsec::rng::Xoshiro256;
namespace core = medsec::core;
namespace proto = medsec::protocol;
namespace engine = medsec::engine;

using engine::decode_frame;
using engine::encode_frame;
using engine::Frame;
using engine::FrameType;

// --- shared fixtures ---------------------------------------------------------

proto::CipherFactory aes_factory() {
  return [](std::span<const std::uint8_t> key) {
    return std::unique_ptr<medsec::ciphers::BlockCipher>(
        new medsec::ciphers::Aes128(key));
  };
}

std::uint64_t fnv1a_bytes(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// A machine that throws out of on_message — the poison the quarantine
/// policies exist for.
class ThrowingMachine final : public proto::SessionMachine {
 public:
  proto::StepResult on_message(const proto::Message&) override {
    throw std::runtime_error("poison");
  }
};

// --- event queue -------------------------------------------------------------

TEST(EventQueue, SameCycleFiresInScheduleOrder) {
  core::EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(10, [&] { order.push_back(2); });
  q.schedule(5, [&] { order.push_back(0); });
  q.schedule(10, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, CancelledEventNeverFires) {
  core::EventQueue q;
  bool fired = false;
  const core::EventId id = q.schedule(7, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel is a safe no-op
  q.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelAfterFireIsANoOp) {
  core::EventQueue q;
  int fired = 0;
  const core::EventId first = q.schedule(1, [&] { ++fired; });
  const core::EventId second = q.schedule(5, [&] { ++fired; });
  ASSERT_TRUE(q.run_next());
  // The handle outlived its event: cancelling it must not touch the count
  // of events still queued (a run loop keyed on pending() depends on it).
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(first));
  EXPECT_FALSE(q.cancel(second));
  EXPECT_FALSE(q.cancel(core::kInvalidEvent));
  EXPECT_EQ(q.pending(), 0u);
}

/// Two sides of one scripted run: the real EventQueue, and a naive model
/// that keeps every event ever scheduled in a flat list and scans it for
/// the earliest live (time, insertion) pair. Events are named by their
/// insertion index on both sides. What a firing event does is a pure
/// function of (seed, index), so both sides take the same actions and
/// append the same entries to their logs: ('F', i) when event i fires,
/// ('C', j) or ('c', j) when a callback's cancel of event j returns true
/// or false.
using QueueLog = std::vector<std::pair<char, std::size_t>>;

template <typename Side>
void scripted_fire(Side& side, std::uint64_t seed, std::size_t i) {
  side.log.emplace_back('F', i);
  std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
  const std::uint64_t w = medsec::rng::splitmix64(s);
  switch (w % 4) {
    case 0:  // schedule another event, often in this very cycle
      side.schedule((w >> 8) % 3);
      break;
    case 1: {  // cancel any event seen so far: live, fired or cancelled
      const std::size_t j = (w >> 8) % side.count();
      side.log.emplace_back(side.cancel(j) ? 'C' : 'c', j);
      break;
    }
    default:
      break;
  }
}

struct RealQueueSide {
  explicit RealQueueSide(std::uint64_t seed) : seed(seed) {}
  std::size_t count() const { return ids.size(); }
  void schedule(core::Cycle delay) {
    const std::size_t i = ids.size();
    ids.push_back(
        q.schedule(delay, [this, i] { scripted_fire(*this, seed, i); }));
  }
  bool cancel(std::size_t i) { return q.cancel(ids[i]); }

  std::uint64_t seed;
  core::EventQueue q;
  std::vector<core::EventId> ids;
  QueueLog log;
};

struct ModelQueueSide {
  explicit ModelQueueSide(std::uint64_t seed) : seed(seed) {}
  std::size_t count() const { return events.size(); }
  void schedule(core::Cycle delay) {
    events.push_back({now + delay, true});
    ++pending;
  }
  bool cancel(std::size_t i) {
    if (!events[i].live) return false;
    events[i].live = false;
    --pending;
    return true;
  }
  bool run_next() {
    std::size_t best = events.size();
    for (std::size_t i = 0; i < events.size(); ++i)
      if (events[i].live &&
          (best == events.size() || events[i].at < events[best].at))
        best = i;  // strict <: the earliest-inserted wins a tie
    if (best == events.size()) return false;
    events[best].live = false;
    --pending;
    now = events[best].at;
    scripted_fire(*this, seed, best);
    return true;
  }
  void run_until(core::Cycle t) {
    for (;;) {
      bool due = false;
      for (const Event& e : events) due = due || (e.live && e.at <= t);
      if (!due) break;
      run_next();
    }
    if (now < t) now = t;
  }

  struct Event {
    core::Cycle at;
    bool live;
  };
  std::uint64_t seed;
  core::Cycle now = 0;
  std::size_t pending = 0;
  std::vector<Event> events;
  QueueLog log;
};

TEST(EventQueue, MatchesReferenceModel) {
  std::size_t stale_reused = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RealQueueSide real(seed);
    ModelQueueSide model(seed);
    Xoshiro256 rng(seed);
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t w = rng.next_u64();
      switch (w % 8) {
        case 0:
        case 1:
        case 2:  // delays in [0, 6): same-cycle ties are common
          real.schedule((w >> 8) % 6);
          model.schedule((w >> 8) % 6);
          break;
        case 3: {
          if (real.count() == 0) break;
          const std::size_t j = (w >> 8) % real.count();
          const core::EventId id = real.ids[j];
          // A dead id whose slot a live event now holds is the stale case
          // a generation count exists for; count it to prove coverage.
          if (!model.events[j].live)
            for (std::size_t k = 0; k < real.count(); ++k)
              if (model.events[k].live &&
                  static_cast<std::uint32_t>(real.ids[k]) ==
                      static_cast<std::uint32_t>(id))
                ++stale_reused;
          EXPECT_EQ(real.cancel(j), model.cancel(j)) << "cancel of " << j;
          break;
        }
        case 4:
          EXPECT_FALSE(real.q.cancel(core::kInvalidEvent));
          break;
        case 5:
        case 6:
          EXPECT_EQ(real.q.run_next(), model.run_next());
          break;
        default: {
          const core::Cycle t = model.now + (w >> 8) % 6;
          real.q.run_until(t);
          model.run_until(t);
          break;
        }
      }
      ASSERT_EQ(real.log, model.log) << "after op " << op;
      ASSERT_EQ(real.q.now(), model.now) << "after op " << op;
      ASSERT_EQ(real.q.pending(), model.pending) << "after op " << op;
      ASSERT_EQ(real.q.empty(), model.pending == 0) << "after op " << op;
    }
    real.q.run_all();
    while (model.run_next()) {
    }
    EXPECT_EQ(real.log, model.log);
    EXPECT_EQ(real.q.pending(), 0u);
  }
  EXPECT_GT(stale_reused, 0u);
}

// --- framed transport --------------------------------------------------------

TEST(Transport, Crc32KnownVector) {
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(engine::crc32(msg), 0xCBF43926u);
}

TEST(Transport, FrameRoundtripAllTypes) {
  for (const FrameType type :
       {FrameType::kData, FrameType::kAck, FrameType::kReject}) {
    Frame f;
    f.type = type;
    f.session = 0x0123456789ABCDEFULL;
    f.seq = 42;
    f.label = proto::kLabelChallenge;
    f.payload = {0xDE, 0xAD, 0xBE, 0xEF};
    const auto bytes = encode_frame(f);
    const auto back = decode_frame(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, type);
    EXPECT_EQ(back->session, f.session);
    EXPECT_EQ(back->seq, f.seq);
    EXPECT_STREQ(back->label, "challenge e");
    EXPECT_EQ(back->payload, f.payload);
  }
}

TEST(Transport, DecodeRejectsEveryTruncation) {
  Frame f;
  f.session = 7;
  f.seq = 3;
  f.label = proto::kLabelCommitment;
  f.payload = std::vector<std::uint8_t>(37, 0xA5);
  const auto bytes = encode_frame(f);
  ASSERT_TRUE(decode_frame(bytes).has_value());  // only the cuts fail
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_frame(std::span(bytes.data(), len)).has_value())
        << "truncation to " << len << " bytes decoded";
  }
}

TEST(Transport, DecodeRejectsEveryBitFlip) {
  Frame f;
  f.session = 9;
  f.label = proto::kLabelResponse;
  f.payload = {1, 2, 3};
  const auto bytes = encode_frame(f);
  ASSERT_TRUE(decode_frame(bytes).has_value());  // only the flips fail
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mangled = bytes;
      mangled[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(decode_frame(mangled).has_value())
          << "flip of byte " << i << " bit " << bit << " decoded";
    }
  }
}

TEST(Transport, DecodeRejectsTrailingBytes) {
  Frame f;
  f.payload = {5};
  auto bytes = encode_frame(f);
  bytes.push_back(0x00);
  EXPECT_FALSE(decode_frame(bytes).has_value());
}

TEST(Transport, DecodeAcceptsOnlyTheProtocolLabels) {
  Frame f;
  f.session = 5;
  f.payload = {7};
  // Every label a machine sends decodes to the vocabulary's own storage,
  // which outlives the frame.
  for (const std::string_view label : proto::kMessageLabels) {
    const std::string copy(label);
    f.label = copy.c_str();
    const auto back = decode_frame(encode_frame(f));
    ASSERT_TRUE(back.has_value()) << label;
    EXPECT_EQ(back->label, label.data()) << label;
  }
  // The empty label of acks and rejects.
  f.label = "";
  f.type = FrameType::kAck;
  const auto ack = decode_frame(encode_frame(f));
  ASSERT_TRUE(ack.has_value());
  EXPECT_STREQ(ack->label, "");
  // Anything else is malformed, however well its CRC checks out: a peer
  // cannot make the transport keep a label nobody sends.
  f.type = FrameType::kData;
  for (const char* unknown :
       {"gateway-test-label", "challenge", "commitment R ", "x"}) {
    f.label = unknown;
    EXPECT_FALSE(decode_frame(encode_frame(f)).has_value()) << unknown;
  }
}

TEST(Transport, LossyLinkFaultScheduleIsSeedReproducible) {
  engine::FaultProfile faults;
  faults.drop = 0.2;
  faults.corrupt = 0.1;
  faults.duplicate = 0.1;
  faults.reorder = 0.15;

  const auto run = [&](std::uint64_t seed) {
    core::EventQueue q;
    engine::LossyLink link(q, seed, faults, faults);
    std::vector<std::vector<std::uint8_t>> received;
    link.set_receiver(engine::LossyLink::kUp,
                      [&](std::vector<std::uint8_t> b) {
                        received.push_back(std::move(b));
                      });
    for (std::uint8_t n = 0; n < 50; ++n)
      link.send(engine::LossyLink::kUp, {n, 0x55, n});
    q.run_all();
    return std::pair(received, link.stats(engine::LossyLink::kUp));
  };

  const auto [recv_a, stats_a] = run(0xFEED);
  const auto [recv_b, stats_b] = run(0xFEED);
  const auto [recv_c, stats_c] = run(0xFEED + 1);
  EXPECT_EQ(recv_a, recv_b);  // same seed: identical delivery schedule
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
  EXPECT_EQ(stats_a.corrupted, stats_b.corrupted);
  EXPECT_EQ(stats_a.duplicated, stats_b.duplicated);
  EXPECT_EQ(stats_a.reordered, stats_b.reordered);
  EXPECT_GT(stats_a.dropped, 0u);
  EXPECT_NE(recv_a, recv_c);  // and a different seed genuinely differs
}

// --- reliable delivery -------------------------------------------------------

/// Wire two endpoints through one LossyLink; collect what each surfaces.
struct EndpointPair {
  core::EventQueue q;
  engine::LossyLink link;
  engine::ReliableEndpoint a;  // sends kUp
  engine::ReliableEndpoint b;  // sends kDown
  std::vector<Frame> a_got, b_got;
  bool a_failed = false, b_failed = false;

  EndpointPair(std::uint64_t seed, const engine::FaultProfile& faults,
               const engine::DeliveryConfig& cfg = {})
      : link(q, seed, faults, faults),
        a(q, 1, seed ^ 1, cfg),
        b(q, 1, seed ^ 2, cfg) {
    a.set_frame_sink([this](std::vector<std::uint8_t> raw) {
      link.send(engine::LossyLink::kUp, std::move(raw));
    });
    b.set_frame_sink([this](std::vector<std::uint8_t> raw) {
      link.send(engine::LossyLink::kDown, std::move(raw));
    });
    link.set_receiver(engine::LossyLink::kUp,
                      [this](std::vector<std::uint8_t> raw) {
                        b.on_bytes(std::move(raw));
                      });
    link.set_receiver(engine::LossyLink::kDown,
                      [this](std::vector<std::uint8_t> raw) {
                        a.on_bytes(std::move(raw));
                      });
    a.set_message_sink([this](const Frame& f) { a_got.push_back(f); });
    b.set_message_sink([this](const Frame& f) { b_got.push_back(f); });
    a.set_failure_sink([this] { a_failed = true; });
    b.set_failure_sink([this] { b_failed = true; });
  }
};

TEST(Delivery, ExactlyOnceInOrderOverFaultlessLink) {
  EndpointPair p(0x11, {});
  for (std::uint8_t n = 0; n < 10; ++n)
    p.a.send_message(proto::kLabelCommitment, {n});
  p.q.run_all();
  ASSERT_EQ(p.b_got.size(), 10u);
  for (std::uint8_t n = 0; n < 10; ++n)
    EXPECT_EQ(p.b_got[n].payload, std::vector<std::uint8_t>{n});
  EXPECT_TRUE(p.a.idle());
  EXPECT_EQ(p.b.stats().delivered, 10u);
  EXPECT_EQ(p.b.stats().decode_failures, 0u);
}

TEST(Delivery, LossAndCorruptionRepairedByRetransmission) {
  engine::FaultProfile faults;
  faults.drop = 0.25;
  faults.corrupt = 0.1;
  faults.duplicate = 0.05;
  faults.reorder = 0.1;
  EndpointPair p(0x22, faults);
  for (std::uint8_t n = 0; n < 16; ++n) {
    p.a.send_message(proto::kLabelResponse, {n, 0xAA});
    p.b.send_message(proto::kLabelChallenge, {n, 0xBB});
  }
  p.q.run_all();
  ASSERT_EQ(p.b_got.size(), 16u);
  ASSERT_EQ(p.a_got.size(), 16u);
  for (std::uint8_t n = 0; n < 16; ++n) {
    EXPECT_EQ(p.b_got[n].payload, (std::vector<std::uint8_t>{n, 0xAA}));
    EXPECT_EQ(p.a_got[n].payload, (std::vector<std::uint8_t>{n, 0xBB}));
  }
  EXPECT_FALSE(p.a_failed);
  EXPECT_FALSE(p.b_failed);
  EXPECT_GT(p.a.stats().retransmits + p.b.stats().retransmits, 0u);
  // Every corrupted delivery died at the CRC, none reached a message sink.
  const auto& up = p.link.stats(engine::LossyLink::kUp);
  const auto& down = p.link.stats(engine::LossyLink::kDown);
  EXPECT_EQ(up.corrupted_delivered + down.corrupted_delivered,
            p.a.stats().decode_failures + p.b.stats().decode_failures);
}

TEST(Delivery, RetryExhaustionDeclaresFailure) {
  core::EventQueue q;
  engine::DeliveryConfig cfg;
  cfg.max_retries = 3;
  engine::ReliableEndpoint ep(q, 1, 0x33, cfg);
  ep.set_frame_sink([](std::vector<std::uint8_t>) {});  // black hole
  bool failed = false;
  ep.set_failure_sink([&] { failed = true; });
  ep.send_message("void", {1});
  q.run_all();
  EXPECT_TRUE(failed);
  EXPECT_TRUE(ep.failed());
  EXPECT_EQ(ep.stats().retransmits, 3u);
}

TEST(Delivery, ReceiveWindowBoundsWhatAPeerCanMakeItBuffer) {
  // A peer that never sends seq 0 and streams valid frames at rising
  // sequence numbers: only the frames inside the receive window may wait
  // for the gap, the rest are dropped unacked.
  core::EventQueue q;
  const engine::DeliveryConfig cfg;
  engine::ReliableEndpoint rx(q, 1, 0x45, cfg);
  std::vector<std::uint32_t> got;
  rx.set_message_sink([&](const Frame& f) { got.push_back(f.seq); });
  Frame f;
  f.session = 1;
  f.label = proto::kLabelEciesBlob;
  f.payload.assign(4000, 0x5A);
  constexpr std::uint32_t kFlood = 1000;
  for (std::uint32_t seq = 1; seq <= kFlood; ++seq) {
    f.seq = seq;
    rx.on_bytes(encode_frame(f));
  }
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(rx.stats().out_of_window, kFlood - (cfg.window - 1));
  proto::SnapshotWriter w;
  rx.snapshot(w);
  EXPECT_LT(w.take().size(), cfg.window * f.payload.size());

  // The gap fills: the buffered in-window frames follow it, in order.
  f.seq = 0;
  rx.on_bytes(encode_frame(f));
  std::vector<std::uint32_t> want(cfg.window);
  for (std::uint32_t i = 0; i < want.size(); ++i) want[i] = i;
  EXPECT_EQ(got, want);
}

/// Golden digest of one endpoint's snapshot with every kind of pending
/// state: in-flight frames (retransmitted once), a backlog behind the
/// window, and out-of-order frames waiting for a gap. Everything
/// underneath is seeded, so a serialization change must come with a
/// deliberate re-pin here.
constexpr std::uint64_t kGoldenEndpointSnapshotDigest = 0x3a026c36bafb267aULL;

TEST(Delivery, EndpointSnapshotDigestMatchesGolden) {
  core::EventQueue q;
  const engine::DeliveryConfig cfg;  // window 4
  engine::ReliableEndpoint ep(q, 0x5E55, 0x77, cfg);
  ep.set_frame_sink([](std::vector<std::uint8_t>) {});  // black hole
  for (std::uint8_t n = 0; n < 10; ++n)
    ep.send_message(proto::kLabelCommitment, {n, 0xC0});
  q.run_until(100);  // one retransmission of every in-flight frame
  Frame f;
  f.session = 0x5E55;
  f.label = proto::kLabelChallenge;
  for (const std::uint32_t seq : {3u, 1u, 2u}) {  // seq 0 never arrives
    f.seq = seq;
    f.payload = {static_cast<std::uint8_t>(seq), 0xD0};
    ep.on_bytes(encode_frame(f));
  }
  EXPECT_EQ(ep.stats().data_sent, cfg.window);
  EXPECT_EQ(ep.stats().retransmits, cfg.window);
  proto::SnapshotWriter w;
  ep.snapshot(w);
  const auto bytes = w.take();
  EXPECT_EQ(fnv1a_bytes(bytes), kGoldenEndpointSnapshotDigest)
      << "digest 0x" << std::hex << fnv1a_bytes(bytes);

  // The same bytes survive a restore onto a fresh endpoint.
  engine::ReliableEndpoint clone(q, 0x5E55, 0x77, cfg);
  proto::SnapshotReader r(bytes);
  clone.restore(r);
  EXPECT_TRUE(r.exhausted());
  proto::SnapshotWriter again;
  clone.snapshot(again);
  EXPECT_EQ(again.take(), bytes);
}

TEST(Delivery, RejectFrameFailsThePeer) {
  EndpointPair p(0x44, {});
  p.a.send_reject();
  p.q.run_all();
  EXPECT_TRUE(p.b_failed);
  EXPECT_FALSE(p.a_failed);
}

// --- gateway: one session, by hand -------------------------------------------

/// One device ↔ gateway session with a recording device half: the raw
/// ReliableEndpoint wiring run_shard uses, but with every delivered
/// downlink message captured for transcript comparison.
struct SessionHarness {
  core::EventQueue q;
  engine::LossyLink link;
  engine::GatewayServer gw;
  engine::ReliableEndpoint dev;
  proto::SessionMachine* dev_machine = nullptr;
  std::vector<proto::Message> dev_got;  ///< downlink messages, in order
  bool dev_failed = false;

  SessionHarness(std::uint64_t seed, const engine::FaultProfile& faults,
                 const engine::GatewayConfig& gcfg = {})
      : link(q, seed, faults, faults),
        gw(q, seed ^ 0x6A7E, gcfg),
        dev(q, 1, seed ^ 0xDE71CE) {
    dev.set_frame_sink([this](std::vector<std::uint8_t> raw) {
      link.send(engine::LossyLink::kUp, std::move(raw));
    });
    link.set_receiver(engine::LossyLink::kUp,
                      [this](std::vector<std::uint8_t> raw) {
                        gw.on_uplink(1, std::move(raw));
                      });
    link.set_receiver(engine::LossyLink::kDown,
                      [this](std::vector<std::uint8_t> raw) {
                        dev.on_bytes(std::move(raw));
                      });
    dev.set_message_sink([this](const Frame& f) {
      dev_got.push_back(proto::Message{f.label, f.payload});
      if (dev_machine &&
          dev_machine->state() == proto::SessionState::kAwait) {
        auto r = dev_machine->on_message(dev_got.back());
        for (auto& out : r.out)
          dev.send_message(out.label, std::move(out.payload));
      }
    });
    dev.set_failure_sink([this] { dev_failed = true; });
  }

  engine::GatewayServer::Downlink downlink() {
    return [this](std::vector<std::uint8_t> raw) {
      link.send(engine::LossyLink::kDown, std::move(raw));
    };
  }

  void start(proto::SessionMachine& m) {
    dev_machine = &m;
    auto r = m.start();
    for (auto& out : r.out)
      dev.send_message(out.label, std::move(out.payload));
  }
};

TEST(Gateway, FaultlessSessionMatchesDriveSession) {
  const Curve& c = Curve::k163();
  // Reference: the same seeded machines pumped directly.
  Xoshiro256 kr(0x51);
  const auto kp = proto::schnorr_keygen(c, kr);
  Xoshiro256 dev_rng_ref(0x52), srv_rng_ref(0x53);
  proto::SchnorrProver prover_ref(c, kp, dev_rng_ref);
  proto::SchnorrVerifier verifier_ref(c, kp.X, srv_rng_ref);
  proto::Transcript ref;
  ASSERT_TRUE(proto::drive_session(prover_ref, verifier_ref, ref));
  ASSERT_TRUE(verifier_ref.accepted());

  // Same machines, same seeds, but over the framed transport through the
  // gateway. The delivery layer steps each machine exactly once per unique
  // message, so the transcript must be identical.
  Xoshiro256 dev_rng(0x52), srv_rng(0x54);
  auto srv_rng_owned = std::make_unique<Xoshiro256>(0x53);
  proto::SchnorrProver prover(c, kp, dev_rng);
  SessionHarness h(0x60, {});
  auto verifier =
      std::make_unique<proto::SchnorrVerifier>(c, kp.X, *srv_rng_owned);
  auto* verifier_raw = verifier.get();
  ASSERT_TRUE(h.gw.open_session(
      1, std::move(verifier), h.downlink(),
      [](const proto::SessionMachine& m) {
        return static_cast<const proto::SchnorrVerifier&>(m).accepted();
      },
      std::move(srv_rng_owned)));
  h.start(prover);
  h.q.run_all();

  EXPECT_EQ(h.gw.status(1), engine::GatewaySessionStatus::kCompleted);
  EXPECT_TRUE(h.gw.accepted(1));
  EXPECT_TRUE(verifier_raw->accepted());
  EXPECT_EQ(prover.state(), proto::SessionState::kDone);
  // Downlink messages ≡ the reference reader→tag transcript, bit for bit.
  ASSERT_EQ(h.dev_got.size(), ref.reader_to_tag.size());
  for (std::size_t i = 0; i < h.dev_got.size(); ++i) {
    EXPECT_STREQ(h.dev_got[i].label, ref.reader_to_tag[i].label);
    EXPECT_EQ(h.dev_got[i].payload, ref.reader_to_tag[i].payload);
  }
  // Same protocol work, message for message: the ledgers agree.
  EXPECT_EQ(prover.ledger().ecpm, prover_ref.ledger().ecpm);
  EXPECT_EQ(prover.ledger().rng_bits, prover_ref.ledger().rng_bits);
}

TEST(Gateway, EmptyJudgeTakesTheMachinesOwnVerdict) {
  // No judge: the verdict is the machine's accepted(), not "it finished".
  // An inline PH reader facing a tag it never registered completes the
  // protocol and identifies no one.
  const Curve& c = Curve::k163();
  Xoshiro256 setup(0x7D);
  proto::PhReader reader = proto::ph_setup_reader(c, setup);
  proto::PhTag tag = proto::ph_register_tag(c, reader, setup);
  proto::PhReader elsewhere = proto::ph_setup_reader(c, setup);
  proto::PhTag stranger = proto::ph_register_tag(c, elsewhere, setup);
  stranger.Y = reader.Y;  // provisioned for our reader, never registered
  for (const proto::PhTag* t : {&tag, &stranger}) {
    const bool registered = t == &tag;
    Xoshiro256 dev_rng(0x7E), srv_rng(0x7F);
    proto::PhTagMachine device(c, *t, dev_rng);
    SessionHarness h(0x80, {});
    ASSERT_TRUE(h.gw.open_session(
        1, std::make_unique<proto::PhReaderMachine>(c, reader, srv_rng),
        h.downlink()));
    h.start(device);
    h.q.run_all();
    EXPECT_EQ(device.state(), proto::SessionState::kDone);
    EXPECT_EQ(h.gw.status(1), engine::GatewaySessionStatus::kCompleted);
    EXPECT_EQ(h.gw.accepted(1), registered);
    EXPECT_EQ(h.gw.stats().accepted, registered ? 1u : 0u);
  }
}

TEST(Gateway, DeadlineEvictsStalledSession) {
  engine::GatewayConfig gcfg;
  gcfg.session_deadline = 500;
  SessionHarness h(0x70, {}, gcfg);
  Xoshiro256 rng(1);
  const Curve& c = Curve::k163();
  const auto kp = proto::schnorr_keygen(c, rng);
  ASSERT_TRUE(h.gw.open_session(
      1, std::make_unique<proto::SchnorrVerifier>(c, kp.X, rng),
      h.downlink()));
  h.q.run_all();  // no device ever speaks
  EXPECT_EQ(h.gw.status(1),
            engine::GatewaySessionStatus::kDeadlineEvicted);
  EXPECT_EQ(h.gw.stats().deadline_evicted, 1u);
  EXPECT_EQ(h.gw.settled_at(1), 500u);
  EXPECT_EQ(h.gw.live_sessions(), 0u);
}

TEST(Gateway, IdleTimeoutEvictsQuietSession) {
  engine::GatewayConfig gcfg;
  gcfg.idle_timeout = 300;
  SessionHarness h(0x71, {}, gcfg);
  Xoshiro256 rng(2);
  const Curve& c = Curve::k163();
  const auto kp = proto::schnorr_keygen(c, rng);
  ASSERT_TRUE(h.gw.open_session(
      1, std::make_unique<proto::SchnorrVerifier>(c, kp.X, rng),
      h.downlink()));
  h.q.run_all();
  EXPECT_EQ(h.gw.status(1), engine::GatewaySessionStatus::kIdleEvicted);
  EXPECT_EQ(h.gw.stats().idle_evicted, 1u);
}

TEST(Gateway, AdmissionControlShedsWithExplicitReject) {
  engine::GatewayConfig gcfg;
  gcfg.max_live_sessions = 1;
  core::EventQueue q;
  engine::GatewayServer gw(q, 0x72, gcfg);
  Xoshiro256 rng(3);
  const Curve& c = Curve::k163();
  const auto kp = proto::schnorr_keygen(c, rng);
  ASSERT_TRUE(gw.open_session(
      1, std::make_unique<proto::SchnorrVerifier>(c, kp.X, rng),
      [](std::vector<std::uint8_t>) {}));
  std::vector<std::uint8_t> refusal;
  EXPECT_FALSE(gw.open_session(
      2, std::make_unique<proto::SchnorrVerifier>(c, kp.X, rng),
      [&](std::vector<std::uint8_t> raw) { refusal = std::move(raw); }));
  EXPECT_EQ(gw.stats().shed, 1u);
  EXPECT_FALSE(gw.has_session(2));
  // The refusal is a well-formed kReject frame, not silence.
  const auto f = decode_frame(refusal);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kReject);
  EXPECT_EQ(f->session, 2u);
}

TEST(Gateway, PoisonMachineIsQuarantined) {
  SessionHarness h(0x73, {});
  ASSERT_TRUE(h.gw.open_session(1, std::make_unique<ThrowingMachine>(),
                                h.downlink()));
  h.dev.send_message(proto::kLabelCommitment, {0xFF});
  h.q.run_all();
  EXPECT_EQ(h.gw.status(1), engine::GatewaySessionStatus::kQuarantined);
  EXPECT_EQ(h.gw.stats().quarantined, 1u);
  EXPECT_TRUE(h.dev_failed);  // the kReject told the device to stop
}

/// A responder that settles on its first message, done or failed.
class OneMoveMachine final : public proto::SessionMachine {
 public:
  explicit OneMoveMachine(bool ok) : ok_(ok) {}
  proto::StepResult on_message(const proto::Message&) override {
    return step(ok_ ? proto::StepResult::done() : proto::StepResult::failed());
  }

 private:
  bool ok_;
};

/// live_sessions() recomputed the slow way.
std::size_t scan_live(const engine::GatewayServer& gw) {
  std::size_t n = 0;
  for (const std::uint64_t id : gw.session_ids())
    if (gw.status(id) == engine::GatewaySessionStatus::kActive) ++n;
  return n;
}

TEST(Gateway, LiveCountMatchesAStatusScanAfterEveryTransition) {
  engine::GatewayConfig gcfg;
  gcfg.max_live_sessions = 5;
  gcfg.idle_timeout = 600;
  gcfg.session_deadline = 1000;
  core::EventQueue q;
  engine::GatewayServer gw(q, 0x76, gcfg);
  const auto check = [&gw](const char* after) {
    EXPECT_EQ(gw.live_sessions(), scan_live(gw)) << "after " << after;
  };
  const auto ignore = [](std::vector<std::uint8_t>) {};
  const auto message = [&gw](std::uint64_t id) {
    Frame f;
    f.session = id;
    f.label = proto::kLabelCommitment;
    f.payload = {1};
    gw.on_uplink(id, encode_frame(f));
  };
  // Session 2 fails on its first message, 3 throws, the rest complete.
  const auto machine = [](std::uint64_t id)
      -> std::unique_ptr<proto::SessionMachine> {
    if (id == 3) return std::make_unique<ThrowingMachine>();
    return std::make_unique<OneMoveMachine>(id != 2);
  };

  for (std::uint64_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(gw.open_session(id, machine(id), ignore));
    check("open");
  }
  EXPECT_EQ(gw.live_sessions(), 5u);
  EXPECT_FALSE(gw.open_session(6, machine(6), ignore));
  check("shed");
  message(1);
  EXPECT_EQ(gw.status(1), engine::GatewaySessionStatus::kCompleted);
  check("complete");
  message(2);
  EXPECT_EQ(gw.status(2), engine::GatewaySessionStatus::kFailed);
  check("fail");
  message(3);
  EXPECT_EQ(gw.status(3), engine::GatewaySessionStatus::kQuarantined);
  check("quarantine");
  q.run_until(500);
  gw.on_uplink(5, {0x00});  // activity (not a frame) keeps 5 from idling
  q.run_until(600);
  EXPECT_EQ(gw.status(4), engine::GatewaySessionStatus::kIdleEvicted);
  check("idle");
  q.run_until(1000);
  EXPECT_EQ(gw.status(5), engine::GatewaySessionStatus::kDeadlineEvicted);
  check("deadline");
  ASSERT_TRUE(gw.open_session(7, machine(7), ignore));
  EXPECT_EQ(gw.live_sessions(), 1u);

  // Onto a fresh node: the active session counts, the settled ones not.
  core::EventQueue q2;
  engine::GatewayServer gw2(q2, 0x77, gcfg);
  for (const std::uint64_t id : gw.session_ids())
    gw2.restore_session(id, machine(id), ignore, gw.snapshot_session(id));
  EXPECT_EQ(gw2.live_sessions(), 1u);
  EXPECT_EQ(gw2.live_sessions(), scan_live(gw2)) << "after restore";
}

// --- snapshot / restore ------------------------------------------------------

/// Fleet credentials shared by the per-protocol snapshot tests; mirrors
/// the chaos campaign's fixture set.
struct ProtoFixtures {
  const Curve& c = Curve::k163();
  Xoshiro256 setup{0x90};
  proto::SchnorrKeyPair kp = proto::schnorr_keygen(c, setup);
  proto::PhReader reader = proto::ph_setup_reader(c, setup);
  proto::PhTag tag = proto::ph_register_tag(c, reader, setup);
  proto::CipherFactory aes = aes_factory();
  proto::SharedKeys keys =
      proto::derive_session_keys(std::vector<std::uint8_t>(16, 7), 16);
  proto::EciesKeyPair ek = proto::ecies_keygen(c, setup);
  std::vector<std::uint8_t> telemetry = std::vector<std::uint8_t>(48, 0xC3);

  std::unique_ptr<proto::SessionMachine> device(std::size_t kind,
                                                Xoshiro256& rng) const {
    switch (kind) {
      case 0:
        return std::make_unique<proto::SchnorrProver>(c, kp, rng);
      case 1:
        return std::make_unique<proto::PhTagMachine>(c, tag, rng);
      case 2:
        return std::make_unique<proto::MutualAuthTag>(aes, keys, telemetry,
                                                      rng);
      default:
        return std::make_unique<proto::EciesUploader>(c, ek.Y, telemetry,
                                                      aes, 16, rng);
    }
  }
  std::unique_ptr<proto::SessionMachine> server(std::size_t kind,
                                                Xoshiro256& rng) const {
    switch (kind) {
      case 0:
        return std::make_unique<proto::SchnorrVerifier>(c, kp.X, rng);
      case 1:
        return std::make_unique<proto::PhReaderMachine>(c, reader, rng);
      case 2:
        return std::make_unique<proto::MutualAuthServer>(aes, keys, rng);
      default:
        return std::make_unique<proto::EciesReceiver>(c, ek.y, aes, 16);
    }
  }
};

/// Golden digests of each server machine's snapshot after absorbing the
/// device's opening message. Everything underneath is seeded, so these
/// bytes are a stable format commitment: a serialization change must come
/// with a deliberate re-pin here.
constexpr std::uint64_t kGoldenServerSnapshotDigest[4] = {
    0xd592195d99d8809bULL,  // Schnorr verifier
    0x63be237074abb908ULL,  // Peeters–Hermans reader
    0x69c4ddbf6ff8ca57ULL,  // mutual-auth server
    0x41492cdf9824f039ULL,  // ECIES receiver
};

TEST(Snapshot, ServerMachineDigestsMatchGolden) {
  const ProtoFixtures fx;
  for (std::size_t kind = 0; kind < 4; ++kind) {
    Xoshiro256 dev_rng(100 + kind), srv_rng(200 + kind);
    auto dev = fx.device(kind, dev_rng);
    auto srv = fx.server(kind, srv_rng);
    auto opening = dev->start();
    ASSERT_FALSE(opening.out.empty()) << "kind " << kind;
    srv->on_message(opening.out[0]);  // mid-protocol state
    proto::SnapshotWriter w;
    srv->snapshot(w);
    const auto bytes = w.take();
    EXPECT_EQ(fnv1a_bytes(bytes), kGoldenServerSnapshotDigest[kind])
        << "kind " << kind << " digest 0x" << std::hex
        << fnv1a_bytes(bytes);
  }
}

TEST(Snapshot, RestoredMachineContinuesBitIdentically) {
  const ProtoFixtures fx;
  for (std::size_t kind = 0; kind < 4; ++kind) {
    Xoshiro256 dev_rng(300 + kind), srv_rng(400 + kind);
    auto dev = fx.device(kind, dev_rng);
    auto srv = fx.server(kind, srv_rng);
    auto opening = dev->start();
    ASSERT_FALSE(opening.out.empty());
    auto first = srv->on_message(opening.out[0]);

    // Freeze the server mid-protocol: machine state + its rng's state.
    proto::SnapshotWriter w;
    srv->snapshot(w);
    const auto bytes = w.take();
    const Xoshiro256::State rng_state = srv_rng.save_state();

    // The device answers (if the protocol has a next move)...
    if (first.out.empty()) continue;  // single-shot protocol (ECIES)
    auto reply = dev->on_message(first.out[0]);
    if (reply.out.empty()) continue;

    // ...and both the original and a restored clone absorb that answer.
    Xoshiro256 clone_rng(0);
    clone_rng.load_state(rng_state);
    auto clone = fx.server(kind, clone_rng);
    proto::SnapshotReader r(bytes);
    clone->restore(r);
    EXPECT_TRUE(r.exhausted());

    const auto a = srv->on_message(reply.out[0]);
    const auto b = clone->on_message(reply.out[0]);
    EXPECT_EQ(a.state, b.state) << "kind " << kind;
    ASSERT_EQ(a.out.size(), b.out.size()) << "kind " << kind;
    for (std::size_t i = 0; i < a.out.size(); ++i) {
      EXPECT_STREQ(a.out[i].label, b.out[i].label);
      EXPECT_EQ(a.out[i].payload, b.out[i].payload) << "kind " << kind;
    }
  }
}

TEST(Snapshot, GatewayFailoverPreservesTranscriptsAcrossAllProtocols) {
  const ProtoFixtures fx;
  engine::FaultProfile faults;
  faults.drop = 0.1;
  faults.reorder = 0.1;

  for (std::size_t kind = 0; kind < 4; ++kind) {
    // Scenario A: one session runs to completion, no failover.
    const auto run = [&](bool failover) {
      Xoshiro256 dev_rng(500 + kind);
      auto dev_machine = fx.device(kind, dev_rng);
      auto h = std::make_unique<SessionHarness>(0x1000 + kind, faults);
      auto srv_rng = std::make_unique<Xoshiro256>(600 + kind);
      auto srv = fx.server(kind, *srv_rng);
      EXPECT_TRUE(h->gw.open_session(1, std::move(srv), h->downlink(), {},
                                     std::move(srv_rng)));
      h->start(*dev_machine);
      if (failover) {
        h->q.run_until(150);  // mid-protocol for every kind
        const auto snap = h->gw.snapshot_session(1);
        // Node death: a FRESH GatewayServer takes over the same queue and
        // link. (SessionHarness owns the gateway, so emulate by restoring
        // onto a second harness-less server.)
        auto gw2 = std::make_unique<engine::GatewayServer>(
            h->q, (0x1000 + kind) ^ 0x6A7E);
        auto rng2 = std::make_unique<Xoshiro256>(0);
        auto srv2 = fx.server(kind, *rng2);
        engine::GatewayServer* gw2_raw = gw2.get();
        h->link.set_receiver(
            engine::LossyLink::kUp,
            [gw2_raw](std::vector<std::uint8_t> raw) {
              gw2_raw->on_uplink(1, std::move(raw));
            });
        gw2_raw->restore_session(1, std::move(srv2), h->downlink(), snap,
                                 {}, std::move(rng2));
        EXPECT_EQ(gw2_raw->stats().restored, 1u);
        h->q.run_all();
        const bool dev_done =
            dev_machine->state() == proto::SessionState::kDone;
        auto got = std::move(h->dev_got);
        // Keep gw2 alive until the queue drained; drop it before h.
        gw2.reset();
        return std::pair(dev_done, std::move(got));
      }
      h->q.run_all();
      return std::pair(dev_machine->state() == proto::SessionState::kDone,
                       std::move(h->dev_got));
    };

    const auto [done_a, msgs_a] = run(false);
    const auto [done_b, msgs_b] = run(true);
    EXPECT_TRUE(done_a) << "kind " << kind;
    EXPECT_TRUE(done_b) << "kind " << kind;
    // The device saw the SAME protocol conversation, bit for bit —
    // failover cost it nothing but a retransmit.
    ASSERT_EQ(msgs_a.size(), msgs_b.size()) << "kind " << kind;
    for (std::size_t i = 0; i < msgs_a.size(); ++i) {
      EXPECT_STREQ(msgs_a[i].label, msgs_b[i].label);
      EXPECT_EQ(msgs_a[i].payload, msgs_b[i].payload) << "kind " << kind;
    }
  }
}

TEST(Snapshot, RestoreRejectsMalformedSnapshots) {
  const ProtoFixtures fx;
  SessionHarness h(0x74, {});
  Xoshiro256 rng(5);
  auto srv_rng = std::make_unique<Xoshiro256>(6);
  auto srv = fx.server(0, *srv_rng);
  ASSERT_TRUE(h.gw.open_session(1, std::move(srv), h.downlink(), {},
                                std::move(srv_rng)));
  auto snap = h.gw.snapshot_session(1);

  core::EventQueue q2;
  engine::GatewayServer gw2(q2, 0x75);
  // Truncation at any point must throw, never crash or half-restore.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{3}, snap.size() / 2,
        snap.size() - 1}) {
    auto rng2 = std::make_unique<Xoshiro256>(0);
    // Build the machine BEFORE the call: evaluation order of the
    // arguments is unspecified, so `*rng2` inside the call could read
    // the unique_ptr after the move-parameter already gutted it.
    auto machine2 = fx.server(0, *rng2);
    EXPECT_THROW(
        gw2.restore_session(9, std::move(machine2),
                            [](std::vector<std::uint8_t>) {},
                            std::span(snap.data(), len), {},
                            std::move(rng2)),
        proto::SnapshotError);
    EXPECT_FALSE(gw2.has_session(9));
  }
  // Bad magic.
  auto mangled = snap;
  mangled[0] ^= 0xFF;
  auto rng3 = std::make_unique<Xoshiro256>(0);
  auto machine3 = fx.server(0, *rng3);
  EXPECT_THROW(gw2.restore_session(9, std::move(machine3),
                                   [](std::vector<std::uint8_t>) {},
                                   mangled, {}, std::move(rng3)),
               proto::SnapshotError);
  // Missing rng when the snapshot recorded one.
  EXPECT_THROW(gw2.restore_session(9, fx.server(0, rng),
                                   [](std::vector<std::uint8_t>) {}, snap,
                                   {}, nullptr),
               proto::SnapshotError);
}

TEST(Snapshot, RejectCorpusEveryTruncationAndHeaderFlip) {
  const ProtoFixtures fx;
  SessionHarness h(0x74, {});
  auto srv_rng = std::make_unique<Xoshiro256>(6);
  auto srv = fx.server(0, *srv_rng);
  ASSERT_TRUE(h.gw.open_session(1, std::move(srv), h.downlink(), {},
                                std::move(srv_rng)));
  const auto snap = h.gw.snapshot_session(1);

  core::EventQueue q2;
  engine::GatewayServer gw2(q2, 0x75);
  std::uint64_t next_id = 100;
  // Attempt a restore; returns true when it threw the TYPED error. A
  // clean restore is the only other acceptable outcome (a mutated counter
  // byte is indistinguishable from valid data); any other exception type
  // escapes and fails the test, and memory bugs are the ASan/UBSan
  // tier's kill. Either way there must be no half-restored session.
  const auto attempt = [&](std::span<const std::uint8_t> bytes) -> bool {
    const std::uint64_t id = next_id++;
    auto rng = std::make_unique<Xoshiro256>(0);
    // Machine first, then the call: *rng and the unique_ptr move must
    // not race inside one argument list (unspecified evaluation order).
    auto machine = fx.server(0, *rng);
    try {
      gw2.restore_session(id, std::move(machine),
                          [](std::vector<std::uint8_t>) {}, bytes, {},
                          std::move(rng));
    } catch (const proto::SnapshotError&) {
      EXPECT_FALSE(gw2.has_session(id));
      return true;
    }
    EXPECT_TRUE(gw2.has_session(id));
    return false;
  };

  // Truncation at EVERY byte offset — every field boundary included —
  // must throw: the byte stream up to the cut is unchanged, so some read
  // must eventually run off the end before the exhausted() check passes.
  for (std::size_t len = 0; len < snap.size(); ++len)
    EXPECT_TRUE(attempt(std::span(snap.data(), len)))
        << "truncation to " << len << " bytes restored";

  // Flip every byte of the fixed-layout header: magic(4) status(1)
  // accepted(1) settled_at(8) rng-presence(1).
  constexpr std::size_t kHeaderBytes = 4 + 1 + 1 + 8 + 1;
  ASSERT_GE(snap.size(), kHeaderBytes);
  std::size_t typed_rejections = 0;
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    auto mangled = snap;
    mangled[i] ^= 0xFF;
    if (attempt(mangled)) ++typed_rejections;
  }
  // The structurally-validated bytes — magic(4), status(1), the two
  // booleans — can never survive a flip.
  EXPECT_GE(typed_rejections, 7u);
  // And a single-bit nudge of each magic byte must be caught, not just
  // the full complement.
  for (std::size_t i = 0; i < 4; ++i) {
    auto mangled = snap;
    mangled[i] ^= 0x01;
    EXPECT_TRUE(attempt(mangled)) << "magic byte " << i;
  }
}

// --- the chaos campaign ------------------------------------------------------

// Golden digests of the two campaigns below: bit-identical at every shard
// count, serial or parallel.
constexpr std::uint64_t kChaosDigest = 0xf379b53b80c8c567ull;
constexpr std::uint64_t kFailoverDigest = 0xd8f35e0f0679a377ull;

engine::ShardedCampaignConfig chaos_config() {
  engine::ShardedCampaignConfig sc;
  sc.chaos.sessions = 64;
  sc.chaos.seed = 0xC4A05;
  sc.chaos.uplink.drop = 0.20;
  sc.chaos.uplink.corrupt = 0.05;
  sc.chaos.uplink.reorder = 0.10;
  sc.chaos.uplink.duplicate = 0.05;
  sc.chaos.downlink = sc.chaos.uplink;
  sc.shards = 4;
  return sc;
}

TEST(ChaosCampaign, AllSessionsCompleteUnderHeavyFaults) {
  const auto r = engine::run_sharded_campaign(chaos_config()).chaos;
  EXPECT_EQ(r.sessions, 64u);
  EXPECT_EQ(r.completed, 64u);  // 100% completion at 20% loss
  EXPECT_EQ(r.accepted, 64u);   // every verdict accepts honest devices
  EXPECT_EQ(r.stuck, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.corrupt_accepted, 0u);  // the CRC held the line
  EXPECT_GT(r.frames_dropped, 0u);
  EXPECT_GT(r.frames_corrupted, 0u);
  EXPECT_GT(r.retransmits, 0u);
  EXPECT_GT(r.decode_failures, 0u);
  EXPECT_GT(r.latency_p99, r.latency_p50);
  EXPECT_GE(r.latency_max, r.latency_p99);
  EXPECT_EQ(r.digest, kChaosDigest) << std::hex << "digest 0x" << r.digest;
}

TEST(ChaosCampaign, FaultlessRunIsCleanAndCheaper) {
  auto cfg = chaos_config();
  cfg.chaos.uplink = {};
  cfg.chaos.downlink = {};
  const auto r = engine::run_sharded_campaign(cfg).chaos;
  EXPECT_EQ(r.completed, 64u);
  EXPECT_EQ(r.decode_failures, 0u);
  EXPECT_EQ(r.frames_dropped, 0u);
  EXPECT_EQ(r.corrupt_accepted, 0u);

  const auto faulty = engine::run_sharded_campaign(chaos_config()).chaos;
  EXPECT_LT(r.latency_p99, faulty.latency_p99);
  EXPECT_LT(r.frames_sent, faulty.frames_sent);
}

TEST(ChaosCampaign, DigestIsIdenticalAcrossRerunsAndThreadCounts) {
  auto cfg = chaos_config();
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const bool parallel : {false, true}) {
      cfg.shards = shards;
      cfg.parallel = parallel;
      const auto r = engine::run_sharded_campaign(cfg).chaos;
      EXPECT_EQ(r.digest, kChaosDigest)
          << "shards=" << shards << " parallel=" << parallel;
      EXPECT_EQ(r.completed, 64u);
      EXPECT_EQ(r.gateway.accepted, 64u);
    }
  }

  // And a different seed is a genuinely different campaign.
  cfg.chaos.seed ^= 1;
  EXPECT_NE(engine::run_sharded_campaign(cfg).chaos.digest, kChaosDigest);
}

TEST(ChaosCampaign, MidProtocolFailoverStillCompletesEverySession) {
  auto cfg = chaos_config();
  cfg.chaos.sessions = 32;
  cfg.chaos.failover_at = 200;  // mid-protocol under these delay bands
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const bool parallel : {false, true}) {
      cfg.shards = shards;
      cfg.parallel = parallel;
      const auto r = engine::run_sharded_campaign(cfg).chaos;
      EXPECT_EQ(r.completed, 32u);
      EXPECT_EQ(r.stuck, 0u);
      EXPECT_EQ(r.corrupt_accepted, 0u);
      // Every session crossed the failover...
      EXPECT_EQ(r.gateway.restored, 32u);
      // ...and failover is inside the determinism contract.
      EXPECT_EQ(r.digest, kFailoverDigest)
          << "shards=" << shards << " parallel=" << parallel;
    }
  }
}

// --- session-tap fault corpus (drive_session robustness) ---------------------

TEST(SessionTapFaults, TruncationDropAndDuplicationNeverCrash) {
  const ProtoFixtures fx;
  // Mutators: truncate to nothing / one byte / half / all-but-one, and a
  // tamper that extends. Fates: drop the second message, duplicate all.
  const std::vector<std::function<void(proto::Message&)>> mutators = {
      [](proto::Message& m) { m.payload.clear(); },
      [](proto::Message& m) { m.payload.resize(std::min<std::size_t>(
                                  1, m.payload.size())); },
      [](proto::Message& m) { m.payload.resize(m.payload.size() / 2); },
      [](proto::Message& m) {
        if (!m.payload.empty()) m.payload.pop_back();
      },
      [](proto::Message& m) { m.payload.push_back(0xEE); },
  };
  for (std::size_t kind = 0; kind < 4; ++kind) {
    for (std::size_t mi = 0; mi < mutators.size(); ++mi) {
      for (const bool uplink : {true, false}) {
        Xoshiro256 dev_rng(700 + kind), srv_rng(800 + kind);
        auto dev = fx.device(kind, dev_rng);
        auto srv = fx.server(kind, srv_rng);
        proto::Transcript t;
        proto::SessionTap tap;
        if (uplink)
          tap.tag_to_reader = mutators[mi];
        else
          tap.reader_to_tag = mutators[mi];
        // A mangled message may sink the session — it must never crash.
        EXPECT_NO_THROW(proto::drive_session(*dev, *srv, t, tap))
            << "kind " << kind << " mutator " << mi << " up " << uplink;
      }
    }
    for (const proto::TapFate fate :
         {proto::TapFate::kDrop, proto::TapFate::kDuplicate}) {
      Xoshiro256 dev_rng(900 + kind), srv_rng(1000 + kind);
      auto dev = fx.device(kind, dev_rng);
      auto srv = fx.server(kind, srv_rng);
      proto::Transcript t;
      proto::SessionTap tap;
      std::size_t n = 0;
      tap.tag_to_reader_fate = [&n, fate](const proto::Message&) {
        return ++n == 2 ? fate : proto::TapFate::kDeliver;
      };
      EXPECT_NO_THROW(proto::drive_session(*dev, *srv, t, tap))
          << "kind " << kind;
    }
  }
}

}  // namespace
