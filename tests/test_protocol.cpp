// Tests for the protocol layer: wire encoding, Schnorr, Peeters–Hermans
// (completeness, soundness, workload accounting), mutual authentication
// with failure injection, the privacy game, inline against deferred
// verdicts of the PH reader and the ECIES receiver, the ciphers the
// protocols build through their suite, and energy accounting.
#include <gtest/gtest.h>

#include "ciphers/aes128.h"
#include "ciphers/present.h"
#include "ecc/curve.h"
#include "ecc/ladder.h"
#include "ecc/ladder_many.h"
#include "protocol/ecies.h"
#include "protocol/energy_ledger.h"
#include "protocol/mutual_auth.h"
#include "protocol/peeters_hermans.h"
#include "protocol/privacy_game.h"
#include "protocol/schnorr.h"
#include "protocol/signature.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace {

using medsec::ecc::Curve;
using medsec::ecc::Fe;
using medsec::ecc::Point;
using medsec::ecc::Scalar;
using medsec::rng::Xoshiro256;
namespace ci = medsec::ciphers;
namespace proto = medsec::protocol;

// --- wire encoding -----------------------------------------------------------

TEST(Wire, FeRoundTrip) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10; ++i) {
    medsec::bigint::U192 v;
    for (std::size_t l = 0; l < 3; ++l) v.set_limb(l, rng.next_u64());
    const Fe fe = Fe::from_bits(v);
    EXPECT_EQ(proto::decode_fe(proto::encode_fe(fe)), fe);
  }
  EXPECT_THROW(proto::decode_fe(std::vector<std::uint8_t>(5)),
               std::invalid_argument);
  // A stray bit above position 162 must be rejected.
  std::vector<std::uint8_t> bad(proto::kFeBytes, 0);
  bad[0] = 0x10;  // bit 164
  EXPECT_THROW(proto::decode_fe(bad), std::invalid_argument);
}

TEST(Wire, ScalarRoundTrip) {
  Xoshiro256 rng(2);
  const Curve& c = Curve::k163();
  for (int i = 0; i < 10; ++i) {
    const Scalar s = rng.uniform_nonzero(c.order());
    EXPECT_EQ(proto::decode_scalar(proto::encode_scalar(s)), s);
  }
}

TEST(Wire, PointRoundTripValidatesSubgroup) {
  const Curve& c = Curve::k163();
  const auto enc = proto::encode_point(c, c.base_point());
  EXPECT_EQ(enc.size(), 1 + proto::kFeBytes);
  const auto dec = proto::decode_point(c, enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, c.base_point());

  // Infinity and malformed prefixes are rejected.
  EXPECT_FALSE(proto::decode_point(
      c, std::vector<std::uint8_t>(1 + proto::kFeBytes, 0x00)));
  auto bad = enc;
  bad[0] = 0x07;
  EXPECT_FALSE(proto::decode_point(c, bad));
  EXPECT_FALSE(proto::decode_point(c, std::vector<std::uint8_t>(3, 1)));

  // The order-2 point (x = 0) is on-curve but outside the subgroup: the
  // invalid-point injection the decoder must catch.
  const Point two_torsion =
      Point::affine(Fe::zero(), Fe::sqrt(c.b()));
  const auto enc2 = proto::encode_point(c, two_torsion);
  EXPECT_FALSE(proto::decode_point(c, enc2));
}

TEST(Wire, FeToScalarReduces) {
  const Curve& c = Curve::k163();
  const Scalar s = proto::fe_to_scalar_mod_order(c, Fe{0xdeadbeef});
  EXPECT_EQ(s, Scalar{0xdeadbeef});
  // A large x-coordinate reduces below the order.
  const Fe big{~0ull, ~0ull, (1ull << 35) - 1};
  EXPECT_LT(proto::fe_to_scalar_mod_order(c, big), c.order());
}

// --- Schnorr ------------------------------------------------------------------

TEST(Schnorr, CompletenessOverRandomKeys) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(10);
  for (int i = 0; i < 5; ++i) {
    const auto kp = proto::schnorr_keygen(c, rng);
    const auto session = proto::run_schnorr_session(c, kp, rng);
    EXPECT_TRUE(session.accepted);
  }
}

TEST(Schnorr, SoundnessRejectsWrongKeyAndTamperedResponse) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(11);
  const auto kp = proto::schnorr_keygen(c, rng);
  const auto other = proto::schnorr_keygen(c, rng);
  auto session = proto::run_schnorr_session(c, kp, rng);
  EXPECT_FALSE(proto::schnorr_verify(c, other.X, session.view));
  auto tampered = session.view;
  tampered.response = c.scalar_ring().add(tampered.response, Scalar{1});
  EXPECT_FALSE(proto::schnorr_verify(c, kp.X, tampered));
  auto infinity = session.view;
  infinity.commitment = Point::at_infinity();
  EXPECT_FALSE(proto::schnorr_verify(c, kp.X, infinity));
}

TEST(Schnorr, TranscriptLinksToPublicKey) {
  // The traceability defect the paper calls out.
  const Curve& c = Curve::k163();
  Xoshiro256 rng(12);
  const auto kp = proto::schnorr_keygen(c, rng);
  const auto other = proto::schnorr_keygen(c, rng);
  const auto session = proto::run_schnorr_session(c, kp, rng);
  EXPECT_TRUE(proto::schnorr_links(c, kp.X, session.view));
  EXPECT_FALSE(proto::schnorr_links(c, other.X, session.view));
}

TEST(Schnorr, TagWorkloadAccounting) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(13);
  const auto kp = proto::schnorr_keygen(c, rng);
  const auto session = proto::run_schnorr_session(c, kp, rng);
  EXPECT_EQ(session.tag_ledger.ecpm, 1u);  // R_c = r·P only
  EXPECT_EQ(session.tag_ledger.modmul, 1u);
  EXPECT_GT(session.tag_ledger.tx_bits, 0u);
  EXPECT_GT(session.tag_ledger.rx_bits, 0u);
}

// --- Peeters–Hermans ------------------------------------------------------------

class PhFixture : public ::testing::Test {
 protected:
  const Curve& c = Curve::k163();
  Xoshiro256 rng{20};
  proto::PhReader reader;
  std::vector<proto::PhTag> tags;

  void SetUp() override {
    reader = proto::ph_setup_reader(c, rng);
    for (int i = 0; i < 4; ++i)
      tags.push_back(proto::ph_register_tag(c, reader, rng));
  }
};

TEST_F(PhFixture, CompletenessIdentifiesTheRightTag) {
  for (const auto& tag : tags) {
    const auto session = proto::run_ph_session(c, tag, reader, rng);
    ASSERT_TRUE(session.identified);
    EXPECT_EQ(*session.identity, tag.registered_index);
  }
}

TEST_F(PhFixture, UnregisteredTagIsRejected) {
  proto::PhReader other = proto::ph_setup_reader(c, rng);
  proto::PhTag stranger = proto::ph_register_tag(c, other, rng);
  stranger.Y = reader.Y;  // provisioned for our reader, never registered
  const auto session = proto::run_ph_session(c, stranger, reader, rng);
  EXPECT_FALSE(session.identified);
}

TEST_F(PhFixture, TamperedResponseIsRejected) {
  const auto session = proto::run_ph_session(c, tags[0], reader, rng);
  auto view = session.view;
  view.response = c.scalar_ring().add(view.response, Scalar{1});
  EXPECT_FALSE(proto::ph_reader_identify(c, reader, view).has_value());
  auto bad = session.view;
  bad.commitment = Point::at_infinity();
  EXPECT_FALSE(proto::ph_reader_identify(c, reader, bad).has_value());
}

TEST_F(PhFixture, TagCostIsTwoEcpmOneModmul) {
  // §4: "the main operation on the tag is two point multiplications
  // (namely, r·P and r·Y), and one modular multiplication (namely, er)."
  const auto session = proto::run_ph_session(c, tags[0], reader, rng);
  EXPECT_EQ(session.tag_ledger.ecpm, 2u);
  EXPECT_EQ(session.tag_ledger.modmul, 1u);
}

TEST_F(PhFixture, WrongChallengeDoesNotIdentify) {
  proto::EnergyLedger ledger;
  const auto ts = proto::ph_tag_commit(c, tags[1], rng, ledger);
  const Scalar e1 = rng.uniform_nonzero(c.order());
  const Scalar e2 = rng.uniform_nonzero(c.order());
  const Scalar s = proto::ph_tag_respond(c, tags[1], ts, e1, rng, ledger);
  // Reader pairing the response with a different challenge must fail.
  const auto id = proto::ph_reader_identify(
      c, reader, proto::PhTranscript{ts.commitment, e2, s});
  EXPECT_FALSE(id.has_value());
}

// --- privacy game ----------------------------------------------------------------

TEST(PrivacyGame, SchnorrIsTraceable) {
  const auto r = proto::run_privacy_game(Curve::k163(),
                                         proto::GameProtocol::kSchnorr, 40);
  EXPECT_EQ(r.correct_guesses, r.trials);  // tracing test always resolves
  EXPECT_EQ(r.tracing_test_fired, r.trials);
  EXPECT_DOUBLE_EQ(r.advantage, 1.0);
}

TEST(PrivacyGame, PeetersHermansIsNot) {
  const auto r = proto::run_privacy_game(
      Curve::k163(), proto::GameProtocol::kPeetersHermans, 40);
  EXPECT_EQ(r.tracing_test_fired, 0u);  // the test never resolves
  EXPECT_LT(r.advantage, 0.35);         // statistical coin flipping
}

// --- mutual authentication --------------------------------------------------------

struct MutualAuthFixture : public ::testing::Test {
  const ci::CipherSuite& aes = ci::kAes128Suite;
  std::vector<std::uint8_t> master{1, 2, 3, 4, 5, 6, 7, 8,
                                   9, 10, 11, 12, 13, 14, 15, 16};
  proto::SharedKeys keys = proto::derive_session_keys(master, aes);
  std::vector<std::uint8_t> telemetry{'h', 'r', '=', '7', '2',
                                      'b', 'p', 'm', '!', '!'};
  Xoshiro256 rng{30};
};

TEST_F(MutualAuthFixture, HonestSessionDeliversTelemetry) {
  const auto r =
      proto::run_mutual_auth(aes, keys, telemetry, rng);
  EXPECT_TRUE(r.tag_accepted_server);
  EXPECT_TRUE(r.server_accepted_tag);
  EXPECT_TRUE(r.telemetry_delivered);
  EXPECT_EQ(r.delivered_telemetry, telemetry);
  EXPECT_FALSE(r.tag_ledger.aborted_early);
}

TEST_F(MutualAuthFixture, KeyDerivationSeparatesRoles) {
  EXPECT_NE(keys.enc_key, keys.mac_key);
  EXPECT_EQ(keys.enc_key.size(), 16u);
}

TEST_F(MutualAuthFixture, ImpersonatedServerAbortsEarlyAndCheaply) {
  proto::MutualAuthFaults faults;
  faults.wrong_server_key = true;
  const auto r = proto::run_mutual_auth(aes, keys, telemetry, rng, {}, faults);
  EXPECT_FALSE(r.tag_accepted_server);
  EXPECT_TRUE(r.tag_ledger.aborted_early);
  EXPECT_FALSE(r.telemetry_delivered);

  // §4's energy lever: with server-first ordering the failed session must
  // be much cheaper than with the naive ordering.
  proto::MutualAuthConfig naive;
  naive.server_first = false;
  const auto r2 =
      proto::run_mutual_auth(aes, keys, telemetry, rng, naive, faults);
  EXPECT_FALSE(r2.tag_accepted_server);
  EXPECT_GT(r2.tag_ledger.cipher_blocks, r.tag_ledger.cipher_blocks);
}

TEST_F(MutualAuthFixture, TamperedCiphertextIsNotDelivered) {
  // "a modification on the ciphertext may also lead to a corrupted
  // therapy" — the MAC must catch it.
  proto::MutualAuthFaults faults;
  faults.tamper_ciphertext = true;
  const auto r = proto::run_mutual_auth(aes, keys, telemetry, rng, {}, faults);
  EXPECT_TRUE(r.tag_accepted_server);
  EXPECT_TRUE(r.server_accepted_tag);
  EXPECT_FALSE(r.telemetry_delivered);
}

TEST_F(MutualAuthFixture, ImpersonatedTagIsRejected) {
  proto::MutualAuthFaults faults;
  faults.tamper_tag_mac = true;
  const auto r = proto::run_mutual_auth(aes, keys, telemetry, rng, {}, faults);
  EXPECT_FALSE(r.server_accepted_tag);
  EXPECT_FALSE(r.telemetry_delivered);
}

TEST_F(MutualAuthFixture, WorksWithLightweightCipherToo) {
  const ci::CipherSuite present128{
      16, ci::Present::kBlockBytes,
      [](std::span<const std::uint8_t> k) -> std::unique_ptr<ci::BlockCipher> {
        return std::make_unique<ci::Present>(k);
      }};
  const auto k2 = proto::derive_session_keys(master, present128);
  const auto r = proto::run_mutual_auth(present128, k2, telemetry, rng);
  EXPECT_TRUE(r.telemetry_delivered);
  EXPECT_EQ(r.delivered_telemetry, telemetry);
}

TEST_F(MutualAuthFixture, KeyOfAnotherSizeIsRefused) {
  // 16-byte keys under the PRESENT-80 suite: Present would quietly run
  // PRESENT-128 on them.
  ASSERT_EQ(keys.enc_key.size(), 16u);
  EXPECT_THROW(proto::MutualAuthTag(ci::kPresent80Suite, keys, telemetry, rng),
               std::invalid_argument);
  EXPECT_THROW(proto::MutualAuthServer(ci::kPresent80Suite, keys, rng),
               std::invalid_argument);
}

// --- session state machines --------------------------------------------------------
//
// The run_* functions above already exercise the machines (they are thin
// drivers over them); these tests drive the message API directly:
// step-by-step resumption, deferred verification, and in-flight tampering.

TEST(SessionMachines, SchnorrStepByStep) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(40);
  const auto kp = proto::schnorr_keygen(c, rng);
  proto::SchnorrProver prover(c, kp, rng);
  proto::SchnorrVerifier verifier(c, kp.X, rng);

  // start() -> commitment; both sides suspended between every message.
  auto r1 = prover.start();
  ASSERT_EQ(r1.out.size(), 1u);
  EXPECT_EQ(prover.state(), proto::SessionState::kAwait);
  auto r2 = verifier.on_message(r1.out[0]);  // -> challenge
  ASSERT_EQ(r2.out.size(), 1u);
  EXPECT_EQ(verifier.state(), proto::SessionState::kAwait);
  auto r3 = prover.on_message(r2.out[0]);  // -> response, prover done
  ASSERT_EQ(r3.out.size(), 1u);
  EXPECT_EQ(prover.state(), proto::SessionState::kDone);
  auto r4 = verifier.on_message(r3.out[0]);
  EXPECT_TRUE(r4.out.empty());
  EXPECT_EQ(verifier.state(), proto::SessionState::kDone);
  EXPECT_TRUE(verifier.accepted());
  EXPECT_EQ(prover.ledger().ecpm, 1u);
}

TEST(SessionMachines, SchnorrTamperedResponseFailsVerifier) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(41);
  const auto kp = proto::schnorr_keygen(c, rng);
  proto::SchnorrProver prover(c, kp, rng);
  proto::SchnorrVerifier verifier(c, kp.X, rng);
  proto::Transcript transcript;
  proto::SessionTap tap;
  std::size_t n = 0;
  tap.tag_to_reader = [&n](proto::Message& m) {
    if (++n == 2) m.payload[0] ^= 0x01;  // flip a response bit in flight
  };
  EXPECT_FALSE(proto::drive_session(prover, verifier, transcript, tap));
  EXPECT_EQ(verifier.state(), proto::SessionState::kFailed);
  EXPECT_FALSE(verifier.accepted());
}

TEST(SessionMachines, SchnorrDeferredModeExposesWireTranscript) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(42);
  const auto kp = proto::schnorr_keygen(c, rng);
  proto::SchnorrProver prover(c, kp, rng);
  proto::SchnorrVerifier verifier(c, kp.X, rng,
                                  proto::SchnorrVerifier::Mode::kDeferred);
  proto::Transcript transcript;
  EXPECT_TRUE(proto::drive_session(prover, verifier, transcript));
  // Deferred mode finishes without verifying; the raw material checks out
  // when decoded later (what the engine's batch queue does).
  const auto rc = proto::decode_point(c, verifier.commitment_wire());
  ASSERT_TRUE(rc.has_value());
  EXPECT_TRUE(proto::schnorr_verify(
      c, kp.X,
      proto::SchnorrTranscript{*rc, verifier.challenge(),
                               verifier.response()}));
  // The same transcript is the claim deferred() leaves for the host, and
  // the machine's own verdict fails closed until the host decides.
  EXPECT_FALSE(verifier.accepted());
  const auto work = verifier.deferred();
  ASSERT_TRUE(work.has_value());
  const auto* claim = std::get_if<proto::SchnorrClaim>(&*work);
  ASSERT_NE(claim, nullptr);
  EXPECT_EQ(claim->X, kp.X);
  EXPECT_EQ(claim->commitment_wire, verifier.commitment_wire());
  EXPECT_EQ(claim->challenge, verifier.challenge());
  EXPECT_EQ(claim->response, verifier.response());
  // An inline verifier decides itself and leaves nothing behind.
  proto::SchnorrProver prover2(c, kp, rng);
  proto::SchnorrVerifier inline_verifier(c, kp.X, rng);
  EXPECT_TRUE(proto::drive_session(prover2, inline_verifier, transcript));
  EXPECT_TRUE(inline_verifier.accepted());
  EXPECT_FALSE(inline_verifier.deferred().has_value());
}

TEST(SessionMachines, PhMachinesMatchRunFunction) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(43);
  proto::PhReader reader = proto::ph_setup_reader(c, rng);
  const auto tag = proto::ph_register_tag(c, reader, rng);
  proto::PhTagMachine tag_sm(c, tag, rng);
  proto::PhReaderMachine reader_sm(c, reader, rng);
  proto::Transcript transcript;
  EXPECT_TRUE(proto::drive_session(tag_sm, reader_sm, transcript));
  ASSERT_TRUE(reader_sm.identity().has_value());
  EXPECT_EQ(*reader_sm.identity(), tag.registered_index);
  EXPECT_EQ(tag_sm.ledger().ecpm, 2u);
  EXPECT_EQ(tag_sm.ledger().modmul, 1u);
  EXPECT_EQ(transcript.tag_to_reader.size(), 2u);
  EXPECT_EQ(transcript.reader_to_tag.size(), 1u);
}

TEST(SessionMachines, MutualAuthMachinesStepAndAbort) {
  const ci::CipherSuite& aes = ci::kAes128Suite;
  const auto keys =
      proto::derive_session_keys(std::vector<std::uint8_t>(16, 3), aes);
  const std::vector<std::uint8_t> telemetry{'t'};
  Xoshiro256 rng(44);

  // Honest run through the machines.
  proto::MutualAuthTag tag(aes, keys, telemetry, rng);
  proto::MutualAuthServer server(aes, keys, rng);
  proto::Transcript transcript;
  EXPECT_TRUE(proto::drive_session(tag, server, transcript));
  EXPECT_TRUE(tag.accepted_server());
  EXPECT_TRUE(server.accepted_tag());
  EXPECT_EQ(server.telemetry(), telemetry);

  // An impersonator server machine: the tag aborts before the heavy work.
  auto bad_keys = keys;
  for (auto& b : bad_keys.mac_key) b ^= 0xFF;
  proto::MutualAuthTag tag2(aes, keys, telemetry, rng);
  proto::MutualAuthServer impostor(aes, bad_keys, rng);
  proto::Transcript t2;
  EXPECT_FALSE(proto::drive_session(tag2, impostor, t2));
  EXPECT_FALSE(tag2.accepted_server());
  EXPECT_TRUE(tag2.ledger().aborted_early);
  EXPECT_EQ(tag2.state(), proto::SessionState::kFailed);
}

// --- deferred key ladders ----------------------------------------------------

using Mode = proto::VerdictMode;

/// What a host makes of a finished machine: with a deferred check, the
/// job's x from the batch entry, then the job's own continuation; without
/// one, the machine's own accepted().
bool host_verdict(const Curve& c, const proto::SessionMachine& m) {
  const std::optional<proto::DeferredWork> work = m.deferred();
  if (!work) return m.accepted();
  const auto& job = std::get<proto::LadderJob>(*work);
  std::optional<Fe> x;
  medsec::ecc::LadderManyWorkspace ws;
  medsec::ecc::ladder_x_many(c, &job.k, &job.q, 1, ws, &x);
  return job.finish(x);
}

TEST(DeferredLadders, PhReaderVerdictMatchesInline) {
  const Curve& c = Curve::k163();
  Xoshiro256 setup(51);
  proto::PhReader reader = proto::ph_setup_reader(c, setup);
  const proto::PhTag tag = proto::ph_register_tag(c, reader, setup);
  proto::PhReader other = proto::ph_setup_reader(c, setup);
  proto::PhTag stranger = proto::ph_register_tag(c, other, setup);
  stranger.Y = reader.Y;  // provisioned for our reader, never registered

  struct Case {
    const char* name;
    const proto::PhTag* tag;
    bool wrong_response;
    bool identified;
  };
  const Case cases[] = {{"honest", &tag, false, true},
                        {"wrong response", &tag, true, false},
                        {"unregistered tag", &stranger, false, false}};
  for (const Case& cs : cases) {
    for (const Mode mode : {Mode::kInline, Mode::kDeferred}) {
      Xoshiro256 rng(60);  // both modes see the same transcript
      proto::PhTagMachine tag_sm(c, *cs.tag, rng);
      proto::PhReaderMachine reader_sm(c, reader, rng, mode);
      proto::SessionTap tap;
      int sent = 0;
      if (cs.wrong_response)
        tap.tag_to_reader = [&sent, &c](proto::Message& m) {
          if (++sent == 2)
            m.payload = proto::encode_scalar(c.scalar_ring().add(
                proto::decode_scalar(m.payload), Scalar{1}));
        };
      proto::Transcript transcript;
      EXPECT_TRUE(proto::drive_session(tag_sm, reader_sm, transcript, tap))
          << cs.name;
      EXPECT_EQ(reader_sm.deferred().has_value(), mode == Mode::kDeferred)
          << cs.name;
      EXPECT_EQ(host_verdict(c, reader_sm), cs.identified)
          << cs.name << (mode == Mode::kInline ? " inline" : " deferred");
      // A host that ignores the deferred check fails closed.
      EXPECT_EQ(reader_sm.accepted(), mode == Mode::kInline && cs.identified)
          << cs.name;
    }
  }
}

TEST(DeferredLadders, EciesReceiverVerdictMatchesInline) {
  const Curve& c = Curve::k163();
  Xoshiro256 rng(52);
  const ci::CipherSuite& aes = ci::kAes128Suite;
  const proto::EciesKeyPair kp = proto::ecies_keygen(c, rng);
  const proto::EciesKeyPair other = proto::ecies_keygen(c, rng);
  const std::vector<std::uint8_t> telemetry(48, 0x5A);
  const auto honest = proto::ecies_encrypt(c, kp.Y, telemetry, aes, rng);

  struct Case {
    const char* name;
    proto::EciesCiphertext ct;
    bool delivered;
  };
  std::vector<Case> cases = {{"honest", honest, true},
                             {"flipped body", honest, false},
                             {"flipped tag", honest, false},
                             {"flipped nonce", honest, false},
                             {"encrypted to another key",
                              proto::ecies_encrypt(c, other.Y, telemetry, aes,
                                                   rng),
                              false}};
  cases[1].ct.body[0] ^= 1;
  cases[2].ct.tag[0] ^= 1;
  cases[3].ct.nonce[0] ^= 1;
  for (const Case& cs : cases) {
    const proto::Message blob{proto::kLabelEciesBlob,
                              proto::encode_ecies(c, cs.ct)};
    proto::EciesReceiver inline_rx(c, kp.y, aes, Mode::kInline);
    proto::EciesReceiver deferred_rx(c, kp.y, aes, Mode::kDeferred);
    const auto a = inline_rx.on_message(blob);
    const auto b = deferred_rx.on_message(blob);
    // Inline refuses with kFailed; deferred always finishes the exchange
    // and leaves the refusal to the verdict.
    EXPECT_EQ(a.state, cs.delivered ? proto::SessionState::kDone
                                    : proto::SessionState::kFailed)
        << cs.name;
    EXPECT_EQ(b.state, proto::SessionState::kDone) << cs.name;
    EXPECT_FALSE(inline_rx.deferred().has_value());
    ASSERT_TRUE(deferred_rx.deferred().has_value()) << cs.name;
    EXPECT_EQ(host_verdict(c, inline_rx), cs.delivered) << cs.name;
    EXPECT_EQ(host_verdict(c, deferred_rx), cs.delivered) << cs.name;
    EXPECT_FALSE(deferred_rx.delivered());  // the plaintext stays in the job
    EXPECT_FALSE(deferred_rx.accepted());
    if (cs.delivered) {
      EXPECT_EQ(inline_rx.plaintext(), telemetry);
    }
  }
}

// --- ciphers built through the suite ----------------------------------------

/// AES-128 that counts every cipher it builds.
std::size_t ciphers_built = 0;
const ci::CipherSuite kCountingAes{
    ci::kAes128Suite.key_bytes, ci::kAes128Suite.block_bytes,
    [](std::span<const std::uint8_t> key) {
      ++ciphers_built;
      return ci::kAes128Suite.make(key);
    }};

struct CipherSuiteUse : ::testing::Test {
  const Curve& c = Curve::k163();
  Xoshiro256 rng{53};
  proto::EciesKeyPair kp = proto::ecies_keygen(c, rng);
  std::vector<std::uint8_t> telemetry = std::vector<std::uint8_t>(48, 0x5A);
  proto::EciesCiphertext ct =
      proto::ecies_encrypt(c, kp.Y, telemetry, ci::kAes128Suite, rng);
  proto::Message blob{proto::kLabelEciesBlob, proto::encode_ecies(c, ct)};
};

TEST_F(CipherSuiteUse, EciesBuildsOnlyItsCtrAndCmacCiphers) {
  ciphers_built = 0;
  proto::ecies_encrypt(c, kp.Y, telemetry, kCountingAes, rng);
  EXPECT_EQ(ciphers_built, 2u);

  ciphers_built = 0;
  const auto opened = proto::ecies_decrypt(c, kp.y, ct, kCountingAes);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, telemetry);
  EXPECT_EQ(ciphers_built, 2u);

  ciphers_built = 0;
  proto::EciesReceiver rx(c, kp.y, kCountingAes, Mode::kDeferred);
  rx.on_message(blob);
  EXPECT_EQ(ciphers_built, 0u);  // the opening waits in the job
  EXPECT_TRUE(host_verdict(c, rx));
  EXPECT_EQ(ciphers_built, 2u);
}

TEST_F(CipherSuiteUse, DeferredEciesJobOutlivesItsMachineAndSuite) {
  auto suite = std::make_unique<ci::CipherSuite>(ci::kAes128Suite);
  auto rx = std::make_unique<proto::EciesReceiver>(c, kp.y, *suite,
                                                   Mode::kDeferred);
  rx->on_message(blob);
  const auto work = rx->deferred();
  ASSERT_TRUE(work.has_value());
  const proto::LadderJob job = std::get<proto::LadderJob>(*work);
  rx.reset();
  suite.reset();
  EXPECT_TRUE(job.finish(medsec::ecc::ladder_x(c, job.k, job.q)));
}

// --- energy accounting -------------------------------------------------------------

TEST(EnergyLedger, SessionEnergyComposition) {
  proto::EnergyLedger l;
  l.ecpm = 2;
  l.modmul = 1;
  l.tx_bits = 400;
  l.rx_bits = 168;
  const proto::TagCostModel cost;
  const auto radio = medsec::hw::RadioModel::ban();
  const double compute = cost.compute_energy_j(l);
  EXPECT_NEAR(compute, 2 * 5.1e-6 + 0.12e-6, 1e-9);
  const double near = cost.session_energy_j(l, radio, 0.5);
  const double far = cost.session_energy_j(l, radio, 20.0);
  EXPECT_GT(far, near);  // distance only affects the radio part
  EXPECT_NEAR(far - near,
              radio.tx_energy_j(400, 20.0) - radio.tx_energy_j(400, 0.5),
              1e-12);
}

TEST(EnergyLedger, AccumulationOperator) {
  proto::EnergyLedger a, b;
  a.ecpm = 1;
  b.ecpm = 2;
  b.cipher_blocks = 7;
  a += b;
  EXPECT_EQ(a.ecpm, 3u);
  EXPECT_EQ(a.cipher_blocks, 7u);
}

TEST(TagLedger, EveryDeviceMultiplicationChargesItsEngine) {
  // ECPM / rng bits of every device flow's point multiplications: the
  // 163-bit nonce, then per multiplication the engine's draws (comb 0,
  // RPC ladder 2·163, a hardened engine its config's), and 2 ECPM + 163
  // bits whenever a hardened engine re-provisions its blinding pair (once
  // per fresh nonce: PH's r·Y and ECIES's Z reuse the commitment's pair).
  namespace sc = medsec::sidechannel;
  using Charge = std::pair<std::size_t, std::size_t>;
  const auto charge = [](const proto::EnergyLedger& l) {
    return Charge{l.ecpm, l.rng_bits};
  };
  const Curve& c = Curve::k163();
  Xoshiro256 rng(25);
  const auto prover_key = proto::schnorr_keygen(c, rng);
  auto reader = proto::ph_setup_reader(c, rng);
  const auto tag = proto::ph_register_tag(c, reader, rng);
  const auto clinic = proto::ecies_keygen(c, rng);
  const auto signer = proto::signature_keygen(c, rng);
  const std::vector<std::uint8_t> telemetry{'h', 'r', '=', '6', '2'};

  struct Row {
    const char* engine;
    std::optional<sc::CountermeasureConfig> config;
    Charge schnorr, ph, ecies;
  };
  const Row rows[] = {
      {"none", std::nullopt, {1, 163}, {2, 489}, {2, 489}},
      {"rpc_only", sc::CountermeasureConfig::rpc_only(), {1, 489}, {2, 815},
       {2, 815}},
      {"full", sc::CountermeasureConfig::full(), {3, 1401}, {4, 2476},
       {4, 2476}},
  };
  for (const Row& row : rows) {
    // One fresh engine per flow, as a device session would own it.
    std::optional<sc::HardenedLadder> engine;
    const auto fresh = [&]() -> sc::HardenedLadder* {
      if (!row.config) return nullptr;
      return &engine.emplace(c, *row.config);
    };

    proto::SchnorrProver prover(c, prover_key, rng, fresh());
    prover.start();
    EXPECT_EQ(charge(prover.ledger()), row.schnorr) << row.engine;

    proto::EnergyLedger ph;
    sc::HardenedLadder* ph_engine = fresh();
    const auto session = proto::ph_tag_commit(c, tag, rng, ph, ph_engine);
    proto::ph_tag_respond(c, tag, session, rng.uniform_nonzero(c.order()),
                          rng, ph, ph_engine);
    EXPECT_EQ(charge(ph), row.ph) << row.engine;

    proto::EciesUploader uploader(c, clinic.Y, telemetry, ci::kAes128Suite,
                                  rng, fresh());
    uploader.start();
    EXPECT_EQ(charge(uploader.ledger()), row.ecies) << row.engine;
  }

  proto::EnergyLedger sig;
  proto::ec_schnorr_sign(c, signer, telemetry, rng, &sig);
  EXPECT_EQ(charge(sig), (Charge{1, 163}));
}

}  // namespace
