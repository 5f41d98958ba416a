/**
 * @file
 * The Q control store: gate id -> microprogram, plus the expansion
 * performed by the physical microcode unit.
 */

#ifndef QUMA_MICROCODE_CONTROLSTORE_HH
#define QUMA_MICROCODE_CONTROLSTORE_HH

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "microcode/microprogram.hh"

namespace quma::microcode {

/**
 * One QuMIS microinstruction as plain data (no heap members): what
 * the physical microcode unit emits and the QMB buffers. Fields keep
 * isa::Instruction's meaning and stay zero where the opcode does not
 * use them; a Pulse carries numSlots inline slots.
 */
struct MicroInst
{
    isa::Opcode op = isa::Opcode::Nop;
    RegIndex rd = 0;
    std::uint8_t numSlots = 0;
    QubitMask qmask = 0;
    std::int64_t imm = 0;
    std::array<isa::PulseSlot, isa::kMaxPulseSlots> slots{};

    /**
     * A QuMIS instruction (Wait, Pulse, Mpg, Md) passing straight
     * through; fatal when a Pulse has more than kMaxPulseSlots slots.
     */
    static MicroInst of(const isa::Instruction &inst);

    /** The decoded form (execution trace and the vector API). */
    isa::Instruction toInstruction() const;
};
static_assert(std::is_trivially_copyable_v<MicroInst>);

/**
 * Holds the uploaded microprograms and expands QIS instructions into
 * QuMIS instruction sequences. Microprograms are flattened at upload
 * into a 256-entry table indexed by gate id, so expansion is a table
 * lookup plus binding qubit roles to masks.
 */
class QControlStore
{
    struct Program;

  public:
    /**
     * Upload (or replace) the microprogram for a gate id. Fatal when a
     * Pulse step has no slots or more than isa::kMaxPulseSlots.
     */
    void define(std::uint8_t gate, Microprogram program);

    bool contains(std::uint8_t gate) const;

    /** Number of stored microprograms. */
    std::size_t size() const { return numDefined; }

    /**
     * A QIS instruction bound to its microprogram. Indexing binds one
     * step's qubit roles into a MicroInst in the caller's storage;
     * nothing is allocated. Valid while the store is unchanged.
     */
    class Expansion
    {
      public:
        std::size_t size() const;
        MicroInst operator[](std::size_t i) const;

      private:
        friend class QControlStore;
        const Program *prog = nullptr;
        /** Mask bound to each QubitRole, indexed by the role. */
        std::array<QubitMask, 4> roleMasks{};
        RegIndex rd = 0;
    };

    /**
     * The physical microcode unit: expand `Apply gate, mask`, `CNOT
     * qt, qc` (the microprogram under kCnotGate, paper Algorithm 2)
     * or `Measure mask, rd` (MPG + MD with the configured measurement
     * pulse duration). Fatal for an unknown gate id or a microprogram
     * role the instruction leaves unbound.
     */
    Expansion expand(const isa::Instruction &qis) const;

    /** expand() of `Apply gate, mask`, as decoded instructions. */
    std::vector<isa::Instruction> expandApply(std::uint8_t gate,
                                              QubitMask mask) const;

    /** expand() of `CNOT qt, qc`, as decoded instructions. */
    std::vector<isa::Instruction> expandCnot(unsigned qt,
                                             unsigned qc) const;

    /** expand() of `Measure mask, rd`, as decoded instructions. */
    std::vector<isa::Instruction> expandMeasure(QubitMask mask,
                                                RegIndex rd) const;

    /** Measurement pulse duration used by Measure (cycles). */
    Cycle measurementCycles() const;
    void setMeasurementCycles(Cycle c);

    /** Pseudo-gate id under which the CNOT microprogram is stored. */
    static constexpr std::uint8_t kCnotGate = 255;

    /**
     * The standard store: pass-through single-pulse microprograms for
     * the Table 1 primitives (each followed by the gate-time Wait),
     * composite Z/H programs, and the Algorithm 2 CNOT.
     *
     * @param gate_cycles spacing after a single-qubit gate (default
     *        4 cycles = 20 ns, the paper's pulse duration)
     */
    static QControlStore standard(Cycle gate_cycles = 4,
                                  Cycle msmt_cycles = 300);

  private:
    /** A microprogram step flattened for binding. */
    struct Step
    {
        /** QWait or Pulse; Mpg and Md in the Measure program. */
        isa::Opcode op = isa::Opcode::QWait;
        std::uint8_t numSlots = 0;
        std::array<QubitRole, isa::kMaxPulseSlots> roles{};
        std::array<std::uint8_t, isa::kMaxPulseSlots> uops{};
        /** Wait interval, or the MPG pulse duration (cycles). */
        std::int64_t cycles = 0;
    };

    struct Program
    {
        bool defined = false;
        /** Bit per QubitRole named by the Pulse slots. */
        std::uint8_t roles = 0;
        std::string name;
        std::vector<Step> steps;
    };

    std::array<Program, 256> programs;
    /** MPG then MD over the addressed qubits. */
    Program measure{true, 0, "Measure",
                    {Step{isa::Opcode::Mpg, 0, {}, {}, 300},
                     Step{isa::Opcode::Md}}};
    std::size_t numDefined = 0;
};

} // namespace quma::microcode

#endif // QUMA_MICROCODE_CONTROLSTORE_HH
