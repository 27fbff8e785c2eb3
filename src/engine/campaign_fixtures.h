// campaign_fixtures.h — the deterministic world-building kit shared by the
// sharded campaign (shard.cpp: run_sharded_campaign, one ShardEngine per
// world, whose SessionFactory builds the server halves from here), the
// fault drill (fault_drill.cpp) and the benchmark's traced campaign
// replica.
//
// The determinism contract the campaign relies on: every per-session
// object (device machine, server machine, link fault schedule, delivery
// jitter) is seeded by a pure function of (campaign seed, global session
// id). That makes a session's outcome independent of which shard hosts it
// and which sessions it shares an EventQueue with — the property the
// shard-count-invariance suite pins. Anything here that changes seed
// derivation, the protocol mix, or the outcome digest breaks bit-identity
// with the pinned campaign digests; change with intent.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ecc/curve.h"
#include "engine/gateway.h"
#include "protocol/ecies.h"
#include "protocol/mutual_auth.h"
#include "protocol/peeters_hermans.h"
#include "protocol/schnorr.h"
#include "rng/xoshiro.h"

namespace medsec::engine::campaign {

/// The shared per-entity seed derivation (splitmix64 over a golden-ratio
/// mix). Used with fixed role offsets: gid*4 = device rng, gid*4+1 =
/// server rng, gid*4+2 = link schedule; 0x6A7E = gateway, 0xF177 =
/// fixtures.
inline std::uint64_t mix_seed(std::uint64_t base, std::uint64_t n) {
  std::uint64_t s = base ^ (0x9E3779B97F4A7C15ULL * (n + 1));
  return rng::splitmix64(s);
}

/// FNV-1a over little-endian u64s — the campaign outcome digest.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Everything shared, read-only, across shards: curve, fleet credentials,
/// cipher factory. Built once per campaign from the seed.
struct Fixtures {
  const ecc::Curve& curve;
  protocol::SchnorrKeyPair schnorr_key;
  protocol::PhReader ph_reader;
  protocol::PhTag ph_tag;
  protocol::SharedKeys keys;
  protocol::CipherFactory make_cipher;
  protocol::EciesKeyPair ecies_key;
  std::vector<std::uint8_t> telemetry;
};

/// Draw every credential on `curve` from `rng`, in a fixed order.
Fixtures make_fixtures(const ecc::Curve& curve, rng::Xoshiro256& rng);

/// The campaign's fixtures: K-163, drawn from mix_seed(seed, 0xF177).
Fixtures make_fixtures(std::uint64_t seed);

using MachineFactory =
    std::function<std::unique_ptr<protocol::SessionMachine>(
        rng::RandomSource&)>;

/// The protocol mix: session gid runs protocol gid % 4
/// (Schnorr / Peeters–Hermans / mutual auth / ECIES).
MachineFactory device_factory(const Fixtures& fx, std::uint64_t gid);

/// Server-side responder for gid's protocol. `deferred` builds it in
/// VerdictMode::kDeferred where the protocol has one — the Schnorr
/// verifier, the PH reader and the ECIES receiver: same wire traffic and
/// rng consumption, but the verdict comes from the shard's deferred
/// queue (a batched Schnorr check, a batched key ladder) instead of an
/// inline check. Mutual auth has no deferred mode.
MachineFactory server_factory(const Fixtures& fx, std::uint64_t gid,
                              bool deferred = false);

/// The verdict of gid's server machine: its own accepted(), which every
/// protocol's server overrides. A deferred machine answers false: its
/// verdict comes from the shard's queue and lands in the gateway. Kept
/// for callers that take a Judge; the gid no longer matters.
GatewayServer::Judge judge_for(std::uint64_t gid);

/// One session's campaign outcome — the digest unit.
struct SessionOutcome {
  std::uint64_t id = 0;
  bool completed = false;
  bool accepted = false;
  bool failed = false;
  core::Cycle cycle = 0;
  std::uint64_t retransmits = 0;
};

/// Fold one outcome into the running campaign digest (FNV-1a, session
/// order). Every driver of the campaign must fold identically.
inline std::uint64_t digest_outcome(std::uint64_t digest,
                                    const SessionOutcome& o) {
  digest = fnv1a(digest, o.id);
  digest = fnv1a(digest, (o.completed ? 1u : 0u) | (o.accepted ? 2u : 0u) |
                             (o.failed ? 4u : 0u));
  digest = fnv1a(digest, o.cycle);
  digest = fnv1a(digest, o.retransmits);
  return digest;
}

}  // namespace medsec::engine::campaign
