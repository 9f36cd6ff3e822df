/**
 * @file
 * Pre-decoded threaded-code representation of an isa::Program.
 *
 * The per-cycle interpreter pays a fetch/decode/classify tax on every
 * issue: bounds-check the PC, load the Instruction, switch on the
 * opcode, look up its base latency, and re-derive the region/private
 * classification from scratch. DecodedProgram hoists all of that to
 * load time: each instruction becomes a flat DecodedInsn with resolved
 * operands, its precomputed latency, and the three classification bits
 * the hot paths need (may-execute-privately, statically-in-region,
 * bundleable). Processor::runPrivate dispatches over this array with a
 * computed-goto (threaded-code) loop — see processor.cc — executing
 * whole straight-line private stretches in one call.
 *
 * A DecodedProgram is immutable after decode, so decoded blocks can be
 * shared freely across machines (exec::ProgramCache interns them next
 * to the assembled programs). A mismatched pairing is caught at load
 * by comparing the block against the program field by field.
 */

#ifndef FB_SIM_DECODED_HH
#define FB_SIM_DECODED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/program.hh"

namespace fb::sim
{

/** One pre-decoded instruction: operands, latency, classification. */
struct DecodedInsn
{
    std::int64_t imm = 0;       ///< resolved immediate / branch target
    std::uint32_t cost = 0;     ///< isa::baseLatency(op), always >= 1
    isa::Opcode op{};           ///< dispatch index (dense)
    std::int8_t rd = 0;
    std::int8_t rs1 = 0;
    std::int8_t rs2 = 0;
    /**
     * True when the op never touches machine-shared state: everything
     * except LD/ST/FAA (memory port), SETTAG/SETMASK (barrier-unit
     * mutation) and HALT — the exclusion list of
     * Processor::isPrivateTick. Only these ops may execute inside the
     * decoded private loop; the rest bounce back to the coordinator.
     */
    bool privateOp = false;
    /**
     * Statically in a barrier region: the instruction's region bit or
     * the BRENTER marker itself. The dynamic contributions (marker
     * flag, inherited call-site region) are per-processor state and
     * stay runtime inputs.
     */
    bool staticRegion = false;
    /** May occupy a non-leading bundle slot (Processor::bundleable). */
    bool bundleable = false;
};

/** A fully decoded, immutable program. */
struct DecodedProgram
{
    std::vector<DecodedInsn> code;

    std::size_t size() const { return code.size(); }

    /**
     * True when this block is the decode of @p program: same length
     * and, per instruction, the same opcode, operands, immediate and
     * static region bit — every input of decodeProgram. Pins a block
     * to its program when the two travel separately (ProgramCache
     * sharing).
     */
    bool matches(const isa::Program &program) const;
};

/** Decode @p program (must be finalized) into threaded-code form. */
std::shared_ptr<const DecodedProgram>
decodeProgram(const isa::Program &program);

} // namespace fb::sim

#endif // FB_SIM_DECODED_HH
