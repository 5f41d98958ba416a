#include "quma/qmb.hh"

#include <bit>

#include "common/logging.hh"
#include "isa/nametable.hh"

namespace quma::core {

unsigned
QubitRouting::awgFor(unsigned qubit) const
{
    quma_assert(qubit < driveAwg.size(), "qubit has no drive AWG");
    return driveAwg[qubit];
}

unsigned
QubitRouting::mduFor(unsigned qubit) const
{
    quma_assert(qubit < mdu.size(), "qubit has no MDU");
    return mdu[qubit];
}

QuantumPipeline::QuantumPipeline(microcode::QControlStore store,
                                 QubitRouting routing,
                                 timing::TimingController &timing,
                                 TraceRecorder &trace,
                                 std::size_t buffer_depth,
                                 unsigned drain_rate)
    : cs(std::move(store)), route(std::move(routing)), tcu(timing),
      recorder(trace), buffer(buffer_depth), drainRate(drain_rate)
{
    if (buffer_depth == 0 || drain_rate == 0)
        fatal("QuantumPipeline needs positive buffer depth and drain "
              "rate");
    for (unsigned q = 0; q < route.driveAwg.size(); ++q) {
        unsigned awg = route.driveAwg[q];
        if (awg >= 64)
            fatal("drive AWG ", awg, " out of range; at most 64 are "
                  "supported");
        if (awg >= awgQubits.size())
            awgQubits.resize(awg + 1, 0);
        if (q < 32)
            awgQubits[awg] |= QubitMask{1} << q;
    }
}

bool
QuantumPipeline::tryDispatch(const isa::Instruction &inst)
{
    switch (inst.op) {
      case isa::Opcode::Apply:
      case isa::Opcode::MeasureQ:
      case isa::Opcode::Cnot: {
        // All-or-nothing: the whole expansion fits or the controller
        // retries the instruction.
        auto expansion = cs.expand(inst);
        if (buffer.size() + expansion.size() > buffer.capacity())
            return false;
        for (std::size_t i = 0; i < expansion.size(); ++i)
            buffer.push(expansion[i]);
        return true;
      }
      case isa::Opcode::QWait:
      case isa::Opcode::Pulse:
      case isa::Opcode::Mpg:
      case isa::Opcode::Md: {
        auto mi = microcode::MicroInst::of(inst);
        if (buffer.full())
            return false;
        buffer.push(mi);
        return true;
      }
      case isa::Opcode::QWaitReg:
        panic("QWaitReg must be resolved to Wait before dispatch");
      default:
        panic("tryDispatch called with classical instruction '",
              isa::toString(inst), "'");
    }
}

std::uint64_t
QuantumPipeline::awgsOf(const isa::PulseSlot &slot) const
{
    // A CZ micro-operation is one flux pulse spanning both qubits:
    // it goes whole to the first qubit's unit instead of being split
    // per drive AWG.
    if (slot.uop == isa::uops::Cz) {
        quma_assert(slot.mask != 0, "CZ with empty mask");
        return std::uint64_t{1}
               << route.awgFor(static_cast<unsigned>(
                      std::countr_zero(slot.mask)));
    }
    std::uint64_t awgs = 0;
    for (QubitMask m = slot.mask; m != 0; m &= m - 1)
        awgs |= std::uint64_t{1}
                << route.awgFor(static_cast<unsigned>(std::countr_zero(m)));
    return awgs;
}

bool
QuantumPipeline::pushOne(const microcode::MicroInst &mi)
{
    switch (mi.op) {
      case isa::Opcode::QWait: {
        // No pre-check: a full queue rejects the push itself, which
        // also feeds the saturation counters (pushFailed).
        TimingLabel next = label + 1;
        if (!tcu.pushTimePoint(static_cast<Cycle>(mi.imm), next))
            return false;
        label = next;
        return true;
      }
      case isa::Opcode::Pulse: {
        // All-or-nothing: every addressed queue must have room for
        // all the events it gets -- one per slot that reaches its
        // AWG, so up to numSlots. One event is pushed per (slot,
        // AWG): slots in order, each slot's qubits grouped by AWG in
        // ascending AWG order.
        std::uint64_t slotAwgs[isa::kMaxPulseSlots] = {};
        std::uint64_t allAwgs = 0;
        for (unsigned k = 0; k < mi.numSlots; ++k) {
            slotAwgs[k] = awgsOf(mi.slots[k]);
            allAwgs |= slotAwgs[k];
        }
        for (std::uint64_t a = allAwgs; a != 0; a &= a - 1) {
            auto awg = static_cast<unsigned>(std::countr_zero(a));
            std::size_t events = 0;
            for (unsigned k = 0; k < mi.numSlots; ++k)
                events += (slotAwgs[k] >> awg) & 1;
            if (tcu.pulseQueueRoom(awg) < events)
                return false;
        }
        for (unsigned k = 0; k < mi.numSlots; ++k) {
            const isa::PulseSlot &slot = mi.slots[k];
            for (std::uint64_t a = slotAwgs[k]; a != 0; a &= a - 1) {
                auto awg = static_cast<unsigned>(std::countr_zero(a));
                // A CZ is one flux pulse: it keeps both qubits.
                QubitMask mask = slot.uop == isa::uops::Cz
                                     ? slot.mask
                                     : slot.mask & awgQubits[awg];
                tcu.pushPulse(awg,
                              timing::PulseEvent{label, mask, slot.uop});
            }
        }
        return true;
      }
      case isa::Opcode::Mpg: {
        if (tcu.mpgQueueFull())
            return false;
        return tcu.pushMpg(timing::MpgEvent{
            label, mi.qmask, static_cast<Cycle>(mi.imm)});
      }
      case isa::Opcode::Md: {
        if (mi.qmask == 0)
            fatal("MD with empty qubit mask");
        bool single = std::popcount(mi.qmask) == 1;
        for (QubitMask m = mi.qmask; m != 0; m &= m - 1)
            if (tcu.mdQueueFull(route.mduFor(
                    static_cast<unsigned>(std::countr_zero(m)))))
                return false;
        for (QubitMask m = mi.qmask; m != 0; m &= m - 1) {
            auto q = static_cast<unsigned>(std::countr_zero(m));
            tcu.pushMd(route.mduFor(q),
                       timing::MdEvent{label, QubitMask{1} << q, mi.rd,
                                       single, q});
        }
        return true;
      }
      default:
        panic("QMB holds a non-QuMIS instruction '",
              isa::toString(mi.toInstruction()), "'");
    }
}

void
QuantumPipeline::drainAt(Cycle now)
{
    if (drainedThisCycle && lastDrainCycle == now)
        return;
    lastDrainCycle = now;
    drainedThisCycle = true;
    blockedOnQueue = false;
    for (unsigned i = 0; i < drainRate && !buffer.empty(); ++i) {
        const microcode::MicroInst &front = buffer.front();
        if (!pushOne(front)) {
            // Backpressure: park until a fire frees queue space (the
            // machine re-polls after every event).
            blockedOnQueue = true;
            break;
        }
        if (recorder.isEnabled())
            recorder.recordMicroInst({now, front.toInstruction()});
        buffer.pop();
        ++issued;
    }
}

std::optional<Cycle>
QuantumPipeline::nextEventCycle() const
{
    if (buffer.empty() || blockedOnQueue)
        return std::nullopt;
    return lastDrainCycle + 1;
}

void
QuantumPipeline::reset()
{
    buffer.clear();
    label = 0;
    lastDrainCycle = 0;
    drainedThisCycle = false;
    blockedOnQueue = false;
    issued = 0;
}

} // namespace quma::core
