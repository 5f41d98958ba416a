#include "microcode/seqtable.hh"

#include "common/logging.hh"
#include "isa/nametable.hh"

namespace quma::microcode {

void
UopSequenceTable::define(std::uint8_t uop, std::vector<SeqEntry> seq)
{
    if (seq.empty())
        fatal("micro-operation sequence must not be empty");
    if (seq.front().delta != 0)
        fatal("first codeword of a sequence must have delta 0");
    if (table[uop].empty())
        ++numDefined;
    table[uop] = std::move(seq);
}

bool
UopSequenceTable::contains(std::uint8_t uop) const
{
    return !table[uop].empty();
}

const std::vector<SeqEntry> &
UopSequenceTable::sequenceFor(std::uint8_t uop) const
{
    if (table[uop].empty())
        fatal("u-op unit has no sequence for micro-operation ",
              static_cast<unsigned>(uop));
    return table[uop];
}

Cycle
UopSequenceTable::spanOf(std::uint8_t uop) const
{
    Cycle span = 0;
    for (const auto &e : sequenceFor(uop))
        span += e.delta;
    return span;
}

UopSequenceTable
UopSequenceTable::standard()
{
    namespace u = isa::uops;
    UopSequenceTable t;
    // Primitives: forward the codeword without translation (paper §8).
    for (std::uint8_t uop : {u::I, u::X180, u::X90, u::Xm90, u::Y180,
                             u::Y90, u::Ym90, u::Msmt, u::Cz})
        t.define(uop, {{0, static_cast<Codeword>(uop)}});

    // SeqZ = ([0, 1]; [4, 4]) exactly as in paper §5.3.2: an X180
    // then a Y180 four cycles later (Z = Y * X up to global phase).
    t.define(u::Z180, {{0, u::X180}, {4, u::Y180}});
    // Rz(+90) = (temporal) Xm90, Y90, X90; Rz(-90) is the reverse.
    t.define(u::Z90, {{0, u::Xm90}, {4, u::Y90}, {4, u::X90}});
    t.define(u::Zm90, {{0, u::X90}, {4, u::Y90}, {4, u::Xm90}});
    // H = X * Ry(pi/2) up to phase: Y90 then X180.
    t.define(u::H, {{0, u::Y90}, {4, u::X180}});
    return t;
}

} // namespace quma::microcode
