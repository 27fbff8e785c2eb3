// Golden-vector conformance suite: fixed-seed protocol transcripts and
// campaign digests as checked-in constants.
//
// Every flow below runs from a fixed deterministic RNG seed and must
// produce *bit-identical* output on every field-arithmetic backend
// (karatsuba / clmul) and every wide-lane backend (scalar / clmulwide /
// vpclmul256 / vpclmul512) — CI runs this suite once per backend cell. A
// failing vector means cross-backend drift: some path produced different
// bytes than the recorded reference, which previously could only be
// caught indirectly (a verifier rejecting, a statistic shifting).
//
// Regenerating after an *intentional* protocol/wire change:
//   MEDSEC_PRINT_GOLDEN=1 ./test_golden_vectors
// prints the new constants in paste-ready form (and fails, so a
// regeneration can never silently land as a green run).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ciphers/aes128.h"
#include "ecc/curve.h"
#include "hash/sha256.h"
#include "protocol/ecies.h"
#include "protocol/mutual_auth.h"
#include "protocol/peeters_hermans.h"
#include "protocol/schnorr.h"
#include "rng/xoshiro.h"
#include "sidechannel/countermeasures.h"
#include "sidechannel/trace_sim.h"

namespace {

using medsec::ciphers::kAes128Suite;
using medsec::ecc::Curve;
using medsec::rng::Xoshiro256;
namespace proto = medsec::protocol;
namespace sc = medsec::sidechannel;

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(2 * bytes.size());
  for (const std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xF]);
  }
  return s;
}

/// Canonical transcript serialization: every tag->reader message, then
/// every reader->tag message, direction-prefixed, '|'-joined.
std::string transcript_hex(const proto::Transcript& t) {
  std::string s;
  for (const auto& m : t.tag_to_reader) {
    s += "T:";
    s += to_hex(m.payload);
    s += '|';
  }
  for (const auto& m : t.reader_to_tag) {
    s += "R:";
    s += to_hex(m.payload);
    s += '|';
  }
  return s;
}

/// SHA-256 digest (hex) of a trace set's raw sample bytes — the compact
/// conformance form for campaign-scale outputs.
std::string traces_digest(const sc::TraceSet& set) {
  medsec::hash::Sha256 h;
  for (const auto& trace : set.traces) {
    static_assert(sizeof(double) == 8);
    h.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(trace.data()),
        trace.size() * sizeof(double)));
  }
  const auto d = h.finish();
  return to_hex(d);
}

/// Assert against the checked-in constant — or, under
/// MEDSEC_PRINT_GOLDEN=1, print the actual value in paste-ready form and
/// fail (regeneration must never look like a green run).
void golden_check(const char* name, const std::string& actual,
                  const std::string& expected) {
  if (std::getenv("MEDSEC_PRINT_GOLDEN") != nullptr) {
    std::printf("constexpr const char %s[] =\n    \"%s\";\n", name,
                actual.c_str());
    ADD_FAILURE() << "MEDSEC_PRINT_GOLDEN set: printing, not checking";
    return;
  }
  EXPECT_EQ(actual, expected) << name;
}

// --- checked-in vectors (regenerate with MEDSEC_PRINT_GOLDEN=1) -------------

constexpr const char kSchnorrTranscript[] =
    "T:0203677f48aaf52ca3a5f8596548dbaac0926d28d52a|T:0029889cf206696ad653"
    "bd25044bdef6f567bb0bda|R:00f4396052740912af01e36646e441de9b01dfbd04|";
constexpr const char kSchnorrHardenedTranscript[] =
    "T:0207fa82a57c49e5a38c4fa600adeb1bfd5533509ae2|T:00040d82f0617e181489"
    "37d356e716205803036550|R:033b4d852a0ba7ddcd1f4613048116c379f35b550a|";
constexpr const char kEciesTranscript[] =
    "T:0203e1814abcaddc0a4f8b22f28e23cc1ef6597316d6c5f277029afe8e9cc3355d"
    "bc40746f72e7e94f54736dc5f4f8b20b9e6e0327ed72b6b7f16250da|";
constexpr const char kPhTranscript[] =
    "T:020292ecc4a143f42095dd98e64758d8836581143d5d|T:03e432d5f3e4cab0b6df"
    "f31c7347d50ca665f7a0f8|R:006f117a9c47a4d04adce468c5ee135d357512bc67|";
constexpr const char kMutualAuthTranscript[] =
    "T:778c33fde38e8f60|T:258fe59a878e91587b0475235c5c0b352ed9e2f7b350e796"
    "c46e3dc9a94d256fb745fe4b0ca678fa0df4a75790613faa|R:6170d78c50f834549d"
    "8e1191182922465355cf2eed0fd51e|";
constexpr const char kCampaignDigest[] =
    "ca59be8bb21881a75f4d8b31d0eeeec9501046f63bc0d8e3be41047c65ebe143";
constexpr const char kBlindedCampaignDigest[] =
    "76193ce38e72d11ceeac7307c50a6e830cf5219a57d0f00e753c6acb334d532c";

// --- the flows ---------------------------------------------------------------

TEST(GoldenVectors, SchnorrSignVerify) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(101);
  const auto kp = proto::schnorr_keygen(c, rng);
  const auto session = proto::run_schnorr_session(c, kp, rng);
  ASSERT_TRUE(session.accepted);
  golden_check("kSchnorrTranscript", transcript_hex(session.transcript),
               kSchnorrTranscript);
}

TEST(GoldenVectors, SchnorrUnderFullCountermeasures) {
  // The hardened ladder (blinded + masked + shuffled) is deterministic
  // for a fixed RNG too — and must stay bit-identical across backends.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(102);
  const auto kp = proto::schnorr_keygen(c, rng);
  sc::HardenedLadder hl(c, sc::CountermeasureConfig::full());
  proto::SchnorrProver prover(c, kp, rng, &hl);
  proto::SchnorrVerifier verifier(c, kp.X, rng);
  proto::Transcript transcript;
  ASSERT_TRUE(proto::drive_session(prover, verifier, transcript));
  ASSERT_TRUE(verifier.accepted());
  golden_check("kSchnorrHardenedTranscript", transcript_hex(transcript),
               kSchnorrHardenedTranscript);
}

TEST(GoldenVectors, EciesRoundTrip) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(201);
  const auto kp = proto::ecies_keygen(c, rng);
  const std::vector<std::uint8_t> telemetry{'g', 'o', 'l', 'd', 'e', 'n',
                                            '-', 'h', 'r', '6', '2'};
  const auto r = proto::run_ecies_upload(c, kp, telemetry, kAes128Suite, rng);
  ASSERT_TRUE(r.delivered);
  ASSERT_EQ(r.plaintext, telemetry);
  golden_check("kEciesTranscript", transcript_hex(r.transcript),
               kEciesTranscript);
}

TEST(GoldenVectors, PeetersHermansIdentify) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(301);
  auto reader = proto::ph_setup_reader(c, rng);
  proto::ph_register_tag(c, reader, rng);
  const auto tag = proto::ph_register_tag(c, reader, rng);
  proto::ph_register_tag(c, reader, rng);
  const auto r = proto::run_ph_session(c, tag, reader, rng);
  ASSERT_TRUE(r.identified);
  ASSERT_EQ(*r.identity, tag.registered_index);
  golden_check("kPhTranscript", transcript_hex(r.transcript), kPhTranscript);
}

TEST(GoldenVectors, MutualAuth) {
  Xoshiro256 rng(401);
  std::vector<std::uint8_t> master(16);
  for (std::size_t i = 0; i < master.size(); ++i)
    master[i] = static_cast<std::uint8_t>(0xA0 + i);
  const auto keys = proto::derive_session_keys(master, kAes128Suite);
  const std::vector<std::uint8_t> telemetry{'m', 'v', '-', '7'};
  const auto r = proto::run_mutual_auth(kAes128Suite, keys, telemetry, rng);
  ASSERT_TRUE(r.tag_accepted_server);
  ASSERT_TRUE(r.server_accepted_tag);
  ASSERT_TRUE(r.telemetry_delivered);
  golden_check("kMutualAuthTranscript", transcript_hex(r.transcript),
               kMutualAuthTranscript);
}

TEST(GoldenVectors, CampaignTraceDigest) {
  // Exercises the wide-lane ladder + leakage model end to end: the
  // counter-seeded campaign must produce identical sample bytes on every
  // scalar and lane backend, at any thread/lane geometry.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(501);
  const auto k = rng.uniform_nonzero(c.order());
  sc::AlgorithmicSimConfig simc;
  simc.seed = 515;
  const auto exp = sc::generate_dpa_traces(
      c, k, 32, sc::RpcScenario::kEnabledSecretRandomness, simc);
  golden_check("kCampaignDigest", traces_digest(exp.traces),
               kCampaignDigest);
}

TEST(GoldenVectors, BlindedCampaignTraceDigest) {
  // Same, through the widened (blinded + masked) lane entry.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(502);
  const auto k = rng.uniform_nonzero(c.order());
  sc::AlgorithmicSimConfig simc;
  simc.seed = 525;
  sc::CountermeasureConfig cm;
  cm.scalar_blinding = true;
  cm.base_point_blinding = true;
  cm.randomize_projective = true;
  simc.countermeasures = cm;
  const auto exp = sc::generate_dpa_traces(
      c, k, 32, sc::RpcScenario::kDisabled, simc);
  golden_check("kBlindedCampaignDigest", traces_digest(exp.traces),
               kBlindedCampaignDigest);
}

}  // namespace
