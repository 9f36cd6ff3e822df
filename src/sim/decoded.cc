#include "sim/decoded.hh"

#include "sim/processor.hh"
#include "support/logging.hh"

namespace fb::sim
{

using isa::Opcode;

namespace
{

bool
isPrivateOp(Opcode op)
{
    switch (op) {
      case Opcode::LD:
      case Opcode::ST:
      case Opcode::FAA:     // memory port (bus, caches, counters)
      case Opcode::SETTAG:
      case Opcode::SETMASK: // barrier-unit mutation
      case Opcode::HALT:
        return false;
      default:
        return true;
    }
}

/** The statically known half of the region predicate: the region bit
 * or the BRENTER marker itself. */
bool
staticRegion(const isa::Instruction &instr)
{
    return instr.inRegion || instr.op == Opcode::BRENTER;
}

} // namespace

bool
DecodedProgram::matches(const isa::Program &program) const
{
    if (code.size() != program.size())
        return false;
    for (std::size_t i = 0; i < code.size(); ++i) {
        const DecodedInsn &d = code[i];
        const isa::Instruction &instr = program.at(i);
        if (d.op != instr.op || d.rd != instr.rd || d.rs1 != instr.rs1 ||
            d.rs2 != instr.rs2 || d.imm != instr.imm ||
            d.staticRegion != staticRegion(instr))
            return false;
    }
    return true;
}

std::shared_ptr<const DecodedProgram>
decodeProgram(const isa::Program &program)
{
    FB_ASSERT(program.finalized(), "cannot decode an unfinalized program");

    auto decoded = std::make_shared<DecodedProgram>();
    decoded->code.reserve(program.size());
    for (std::size_t i = 0; i < program.size(); ++i) {
        const isa::Instruction &instr = program.at(i);
        // Operand ranges are the decoded loop's licence to index the
        // register file without per-access checks.
        FB_ASSERT(instr.rd >= 0 && instr.rd < isa::numRegisters &&
                      instr.rs1 >= 0 && instr.rs1 < isa::numRegisters &&
                      instr.rs2 >= 0 && instr.rs2 < isa::numRegisters,
                  "register operand out of range at pc " << i);
        DecodedInsn d;
        d.imm = instr.imm;
        d.cost = static_cast<std::uint32_t>(isa::baseLatency(instr.op));
        FB_ASSERT(d.cost >= 1, "zero base latency at pc " << i);
        d.op = instr.op;
        d.rd = instr.rd;
        d.rs1 = instr.rs1;
        d.rs2 = instr.rs2;
        d.privateOp = isPrivateOp(instr.op);
        d.staticRegion = staticRegion(instr);
        d.bundleable = Processor::bundleable(instr);
        decoded->code.push_back(d);
    }
    return decoded;
}

} // namespace fb::sim
