/**
 * @file
 * Micro-operation sequence tables for the u-op unit.
 *
 * For each predefined micro-operation uOp_i the u-op unit stores a
 * sequence Seq_i = ([0, cw0]; [dt1, cw1]; ...) of codeword triggers
 * with inter-trigger intervals in cycles (paper §5.3.2). Primitive
 * operations pass straight through (one codeword at offset 0); the
 * table can also emulate composite operations such as
 * SeqZ = ([0, 1]; [4, 4]) -- an X180 codeword then a Y180 codeword
 * four cycles later, since Z = Y * X up to global phase.
 */

#ifndef QUMA_MICROCODE_SEQTABLE_HH
#define QUMA_MICROCODE_SEQTABLE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace quma::microcode {

/** One codeword trigger within a micro-operation sequence. */
struct SeqEntry
{
    /** Interval in cycles after the PREVIOUS trigger (0 for first). */
    Cycle delta = 0;
    Codeword codeword = 0;

    bool operator==(const SeqEntry &) const = default;
};

class UopSequenceTable
{
  public:
    /** Upload (or replace) the sequence for a micro-operation. */
    void define(std::uint8_t uop, std::vector<SeqEntry> seq);

    bool contains(std::uint8_t uop) const;
    const std::vector<SeqEntry> &sequenceFor(std::uint8_t uop) const;

    /** Total span (sum of deltas) of a sequence in cycles. */
    Cycle spanOf(std::uint8_t uop) const;

    std::size_t size() const { return numDefined; }

    /**
     * The standard table: pass-through for codewords 0..8 and
     * emulation sequences for Z180/Z90/Zm90/H built from Table 1
     * primitives.
     */
    static UopSequenceTable standard();

  private:
    /** Sequence per micro-operation id; empty = undefined. */
    std::array<std::vector<SeqEntry>, 256> table;
    std::size_t numDefined = 0;
};

} // namespace quma::microcode

#endif // QUMA_MICROCODE_SEQTABLE_HH
