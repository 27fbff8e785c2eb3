#include "core/isa_audit.h"

#include <sstream>

#include "rng/xoshiro.h"

namespace medsec::core {

namespace {

using ecc::Fe;
using ecc::Point;
using ecc::Scalar;
using hw::Coprocessor;
using hw::Instruction;
using hw::Op;
using hw::Reg;

AuditFinding check_constant_latency(const CountermeasureConfig& config) {
  AuditFinding f{"constant instruction latency", true, ""};
  hw::CoprocessorConfig hc;
  hc.digit_size = config.digit_size;
  hc.secure = config.circuit;

  const std::vector<Fe> operand_values = {
      Fe::zero(), Fe::one(), Fe{~0ull, ~0ull, (1ull << 35) - 1},
      Fe{0xDEADBEEFCAFEBABEull, 0x0123456789ABCDEFull, 0x2'FFFF'FFFFull}};

  const std::vector<std::pair<Op, Instruction>> cases = {
      {Op::kMul, {Op::kMul, Reg::kT, Reg::kX1, Reg::kZ1, {}, 0}},
      {Op::kSqr, {Op::kSqr, Reg::kT, Reg::kX1, Reg::kX1, {}, 0}},
      {Op::kAdd, {Op::kAdd, Reg::kT, Reg::kX1, Reg::kZ1, {}, 0}},
      {Op::kMov, {Op::kMov, Reg::kT, Reg::kX1, Reg::kX1, {}, 0}},
      {Op::kLdi, {Op::kLdi, Reg::kT, Reg::kT, Reg::kT, Fe::one(), 0}},
      {Op::kSelSet, {Op::kSelSet, Reg::kT, Reg::kT, Reg::kT, {}, 1}},
  };

  for (const auto& [op, ins] : cases) {
    for (const Fe& a : operand_values) {
      for (const Fe& b : operand_values) {
        Coprocessor cop(hc);
        cop.set_reg(Reg::kX1, a);
        cop.set_reg(Reg::kZ1, b);
        const auto r = cop.execute({ins}, nullptr);
        if (r.cycles != cop.latency(op)) {
          f.pass = false;
          std::ostringstream os;
          os << "opcode " << static_cast<int>(op) << " took " << r.cycles
             << " cycles, declared " << cop.latency(op);
          f.detail = os.str();
          return f;
        }
      }
    }
  }
  f.detail = "all opcodes, extreme and random operands";
  return f;
}

AuditFinding check_register_budget() {
  AuditFinding f{"microcode fits six architectural registers", true, ""};
  std::vector<std::vector<Instruction>> programs = {
      hw::microcode::ladder_step(0), hw::microcode::ladder_step(1),
      hw::microcode::ladder_init(std::nullopt),
      hw::microcode::ladder_init(std::make_pair(Fe{2}, Fe{3})),
      hw::microcode::affine_conversion(), hw::microcode::zeroize(true),
      hw::microcode::zeroize(false)};
  std::size_t total = 0;
  for (const auto& prog : programs) {
    total += prog.size();
    for (const auto& ins : prog) {
      if (static_cast<unsigned>(ins.rd) >= hw::kNumRegs ||
          static_cast<unsigned>(ins.ra) >= hw::kNumRegs ||
          static_cast<unsigned>(ins.rb) >= hw::kNumRegs) {
        f.pass = false;
        f.detail = "register index out of range";
        return f;
      }
    }
  }
  std::ostringstream os;
  os << total << " micro-instructions audited";
  f.detail = os.str();
  return f;
}

AuditFinding check_key_unreachable(const ecc::Curve& curve,
                                   const CountermeasureConfig& config) {
  AuditFinding f{"key not recoverable from post-run register file", true, ""};
  // Differential experiment: same base point, two different keys. After
  // the run + zeroization the register files must agree except for the
  // legitimate result register.
  CountermeasureConfig cfg = config;
  cfg.zeroize_after_use = true;

  rng::Xoshiro256 rng(4242);
  const Scalar k1 = rng.uniform_nonzero(curve.order());
  const Scalar k2 = rng.uniform_nonzero(curve.order());

  SecureEccProcessor p1(curve, cfg, /*seed=*/1);
  SecureEccProcessor p2(curve, cfg, /*seed=*/1);
  p1.point_mult(k1, curve.base_point());
  p2.point_mult(k2, curve.base_point());

  for (const Reg r : {Reg::kZ1, Reg::kX2, Reg::kZ2, Reg::kT, Reg::kXP}) {
    const Fe v1 = p1.coprocessor().reg(r);
    const Fe v2 = p2.coprocessor().reg(r);
    if (!v1.is_zero() || !v2.is_zero()) {
      f.pass = false;
      f.detail = std::string("residue in register ") + hw::reg_name(r);
      return f;
    }
  }
  // Sanity: the results themselves must differ (different keys).
  if (p1.coprocessor().reg(Reg::kX1) == p2.coprocessor().reg(Reg::kX1)) {
    f.pass = false;
    f.detail = "distinct keys produced identical results (model bug)";
    return f;
  }
  f.detail = "only the result register differs between key values";
  return f;
}

AuditFinding check_no_key_operand() {
  AuditFinding f{"no opcode takes key material as a data operand", true, ""};
  // Structural property of the ISA: the Instruction encoding has register
  // and immediate fields only; the scalar is consumed by the sequencer
  // (SELSET's `select`), one public-schedule bit per iteration, and never
  // enters the register file. Enumerate the ISA to document the claim.
  const std::vector<Op> isa = {Op::kMul, Op::kSqr, Op::kAdd,
                               Op::kMov, Op::kLdi, Op::kSelSet};
  f.detail = "ISA has " + std::to_string(isa.size()) +
             " opcodes; key reaches only the SELSET select bit";
  return f;
}

}  // namespace

IsaAuditReport audit_isa(const ecc::Curve& curve,
                         const CountermeasureConfig& config) {
  IsaAuditReport rep;
  rep.findings.push_back(check_no_key_operand());
  rep.findings.push_back(check_constant_latency(config));
  rep.findings.push_back(check_register_budget());
  rep.findings.push_back(check_key_unreachable(curve, config));
  return rep;
}

}  // namespace medsec::core
