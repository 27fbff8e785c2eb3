#include "engine/campaign_fixtures.h"

#include "ciphers/aes128.h"

namespace medsec::engine::campaign {

Fixtures make_fixtures(const ecc::Curve& curve, rng::Xoshiro256& rng) {
  Fixtures fx{curve,
              protocol::schnorr_keygen(curve, rng),
              protocol::ph_setup_reader(curve, rng),
              {},
              {},
              [](std::span<const std::uint8_t> key) {
                return std::unique_ptr<ciphers::BlockCipher>(
                    new ciphers::Aes128(key));
              },
              {},
              {}};
  fx.ph_tag = protocol::ph_register_tag(curve, fx.ph_reader, rng);
  std::vector<std::uint8_t> master(32);
  rng.fill(master);
  fx.keys = protocol::derive_session_keys(master, 16);
  fx.ecies_key = protocol::ecies_keygen(curve, rng);
  fx.telemetry.resize(48);
  rng.fill(fx.telemetry);
  return fx;
}

Fixtures make_fixtures(std::uint64_t seed) {
  rng::Xoshiro256 rng(mix_seed(seed, 0xF177));
  return make_fixtures(ecc::Curve::k163(), rng);
}

MachineFactory device_factory(const Fixtures& fx, std::uint64_t gid) {
  switch (gid % 4) {
    case 0:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::SchnorrProver(fx.curve, fx.schnorr_key, r));
      };
    case 1:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::PhTagMachine(fx.curve, fx.ph_tag, r));
      };
    case 2:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::MutualAuthTag(fx.make_cipher, fx.keys,
                                        fx.telemetry, r));
      };
    default:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::EciesUploader(fx.curve, fx.ecies_key.Y,
                                        fx.telemetry, fx.make_cipher, 16,
                                        r));
      };
  }
}

MachineFactory server_factory(const Fixtures& fx, std::uint64_t gid,
                              bool deferred) {
  const protocol::VerdictMode mode = deferred
                                         ? protocol::VerdictMode::kDeferred
                                         : protocol::VerdictMode::kInline;
  switch (gid % 4) {
    case 0:
      return [&fx, mode](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::SchnorrVerifier(fx.curve, fx.schnorr_key.X, r,
                                          mode));
      };
    case 1:
      return [&fx, mode](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::PhReaderMachine(fx.curve, fx.ph_reader, r, mode));
      };
    case 2:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::MutualAuthServer(fx.make_cipher, fx.keys, r));
      };
    default:
      return [&fx, mode](rng::RandomSource&) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::EciesReceiver(fx.curve, fx.ecies_key.y,
                                        fx.make_cipher, 16, mode));
      };
  }
}

GatewayServer::Judge judge_for(std::uint64_t) {
  return [](const protocol::SessionMachine& m) { return m.accepted(); };
}

}  // namespace medsec::engine::campaign
