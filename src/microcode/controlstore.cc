#include "microcode/controlstore.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/nametable.hh"

namespace quma::microcode {

MicroStep
MicroStep::wait(Cycle cycles)
{
    MicroStep s;
    s.kind = Kind::Wait;
    s.cycles = cycles;
    return s;
}

MicroStep
MicroStep::pulse(QubitRole role, std::uint8_t uop)
{
    MicroStep s;
    s.kind = Kind::Pulse;
    s.slots.emplace_back(role, uop);
    return s;
}

MicroStep
MicroStep::pulseMulti(std::vector<std::pair<QubitRole, std::uint8_t>> slots)
{
    MicroStep s;
    s.kind = Kind::Pulse;
    s.slots = std::move(slots);
    return s;
}

MicroInst
MicroInst::of(const isa::Instruction &inst)
{
    if (inst.slots.size() > isa::kMaxPulseSlots)
        fatal("Pulse carries ", inst.slots.size(), " slots; at most ",
              isa::kMaxPulseSlots, " are supported");
    MicroInst mi;
    mi.op = inst.op;
    mi.rd = inst.rd;
    mi.numSlots = static_cast<std::uint8_t>(inst.slots.size());
    mi.qmask = inst.qmask;
    mi.imm = inst.imm;
    std::copy(inst.slots.begin(), inst.slots.end(), mi.slots.begin());
    return mi;
}

isa::Instruction
MicroInst::toInstruction() const
{
    isa::Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.qmask = qmask;
    inst.imm = imm;
    inst.slots.assign(slots.begin(), slots.begin() + numSlots);
    return inst;
}

void
QControlStore::define(std::uint8_t gate, Microprogram program)
{
    Program flat;
    flat.defined = true;
    flat.name = std::move(program.name);
    for (const auto &step : program.body) {
        Step s;
        if (step.kind == MicroStep::Kind::Wait) {
            s.op = isa::Opcode::QWait;
            s.cycles = static_cast<std::int64_t>(step.cycles);
            flat.steps.push_back(s);
            continue;
        }
        if (step.slots.empty() || step.slots.size() > isa::kMaxPulseSlots)
            fatal("microprogram '", flat.name, "' has a Pulse step with ",
                  step.slots.size(), " slots; a Pulse carries 1..",
                  isa::kMaxPulseSlots);
        s.op = isa::Opcode::Pulse;
        s.numSlots = static_cast<std::uint8_t>(step.slots.size());
        for (std::size_t k = 0; k < step.slots.size(); ++k) {
            s.roles[k] = step.slots[k].first;
            s.uops[k] = step.slots[k].second;
            flat.roles |= 1u << static_cast<unsigned>(s.roles[k]);
        }
        flat.steps.push_back(s);
    }
    if (!programs[gate].defined)
        ++numDefined;
    programs[gate] = std::move(flat);
}

bool
QControlStore::contains(std::uint8_t gate) const
{
    return programs[gate].defined;
}

Cycle
QControlStore::measurementCycles() const
{
    return static_cast<Cycle>(measure.steps[0].cycles);
}

void
QControlStore::setMeasurementCycles(Cycle c)
{
    measure.steps[0].cycles = static_cast<std::int64_t>(c);
}

std::size_t
QControlStore::Expansion::size() const
{
    return prog->steps.size();
}

MicroInst
QControlStore::Expansion::operator[](std::size_t i) const
{
    const Step &step = prog->steps[i];
    MicroInst mi;
    mi.op = step.op;
    switch (step.op) {
      case isa::Opcode::Pulse:
        mi.numSlots = step.numSlots;
        for (unsigned k = 0; k < step.numSlots; ++k)
            mi.slots[k] = {roleMasks[static_cast<unsigned>(step.roles[k])],
                           step.uops[k]};
        break;
      case isa::Opcode::Mpg:
        mi.qmask = roleMasks[0];
        mi.imm = step.cycles;
        break;
      case isa::Opcode::Md:
        mi.qmask = roleMasks[0];
        mi.rd = rd;
        break;
      default:
        mi.imm = step.cycles;
        break;
    }
    return mi;
}

QControlStore::Expansion
QControlStore::expand(const isa::Instruction &qis) const
{
    Expansion e;
    switch (qis.op) {
      case isa::Opcode::Apply:
        e.prog = &programs[qis.gate];
        e.roleMasks = {qis.qmask, 0, 0, 0};
        break;
      case isa::Opcode::Cnot: {
        QubitMask t = QubitMask{1} << qis.rd;
        QubitMask c = QubitMask{1} << qis.rs;
        e.prog = &programs[kCnotGate];
        e.roleMasks = {t | c, t, c, t | c};
        break;
      }
      case isa::Opcode::MeasureQ:
        e.prog = &measure;
        e.roleMasks = {qis.qmask, 0, 0, 0};
        e.rd = qis.rd;
        break;
      default:
        panic("the microcode unit cannot expand '", isa::toString(qis),
              "'");
    }
    if (!e.prog->defined)
        fatal("Q control store has no microprogram for gate id ",
              static_cast<unsigned>(qis.op == isa::Opcode::Cnot
                                        ? kCnotGate
                                        : qis.gate));
    for (unsigned r = 0; r < e.roleMasks.size(); ++r)
        if (((e.prog->roles >> r) & 1u) != 0 && e.roleMasks[r] == 0)
            fatal("microprogram '", e.prog->name,
                  "' references an unbound qubit role");
    return e;
}

namespace {

std::vector<isa::Instruction>
decoded(const QControlStore::Expansion &e)
{
    std::vector<isa::Instruction> out;
    out.reserve(e.size());
    for (std::size_t i = 0; i < e.size(); ++i)
        out.push_back(e[i].toInstruction());
    return out;
}

} // namespace

std::vector<isa::Instruction>
QControlStore::expandApply(std::uint8_t gate, QubitMask mask) const
{
    return decoded(expand(isa::Instruction::apply(gate, mask)));
}

std::vector<isa::Instruction>
QControlStore::expandCnot(unsigned qt, unsigned qc) const
{
    return decoded(expand(isa::Instruction::cnot(
        static_cast<RegIndex>(qt), static_cast<RegIndex>(qc))));
}

std::vector<isa::Instruction>
QControlStore::expandMeasure(QubitMask mask, RegIndex rd) const
{
    return decoded(expand(isa::Instruction::measure(mask, rd)));
}

QControlStore
QControlStore::standard(Cycle gate_cycles, Cycle msmt_cycles)
{
    namespace u = isa::uops;
    QControlStore cs;
    cs.setMeasurementCycles(msmt_cycles);

    auto single = [&](std::uint8_t uop, const char *name) {
        Microprogram p;
        p.name = name;
        p.body.push_back(MicroStep::pulse(QubitRole::All, uop));
        p.body.push_back(MicroStep::wait(gate_cycles));
        cs.define(uop, std::move(p));
    };
    single(u::I, "I");
    single(u::X180, "X180");
    single(u::X90, "X90");
    single(u::Xm90, "Xm90");
    single(u::Y180, "Y180");
    single(u::Y90, "Y90");
    single(u::Ym90, "Ym90");
    // Composite micro-operations are still one Pulse at this level:
    // the u-op unit expands them into codeword sequences. Their
    // duration spans the emulated sequence.
    {
        Microprogram p;
        p.name = "Z180";
        p.body.push_back(MicroStep::pulse(QubitRole::All, u::Z180));
        p.body.push_back(MicroStep::wait(2 * gate_cycles));
        cs.define(u::Z180, std::move(p));
    }
    {
        Microprogram p;
        p.name = "Z90";
        p.body.push_back(MicroStep::pulse(QubitRole::All, u::Z90));
        p.body.push_back(MicroStep::wait(3 * gate_cycles));
        cs.define(u::Z90, std::move(p));
    }
    {
        Microprogram p;
        p.name = "Zm90";
        p.body.push_back(MicroStep::pulse(QubitRole::All, u::Zm90));
        p.body.push_back(MicroStep::wait(3 * gate_cycles));
        cs.define(u::Zm90, std::move(p));
    }
    {
        Microprogram p;
        p.name = "H";
        p.body.push_back(MicroStep::pulse(QubitRole::All, u::H));
        p.body.push_back(MicroStep::wait(2 * gate_cycles));
        cs.define(u::H, std::move(p));
    }

    // Paper Algorithm 2: CNOT qt, qc = Ym90(t); CZ; Y90(t).
    {
        Microprogram p;
        p.name = "CNOT";
        p.body.push_back(MicroStep::pulse(QubitRole::Target, u::Ym90));
        p.body.push_back(MicroStep::wait(gate_cycles));
        p.body.push_back(MicroStep::pulse(QubitRole::Both, u::Cz));
        p.body.push_back(MicroStep::wait(2 * gate_cycles));
        p.body.push_back(MicroStep::pulse(QubitRole::Target, u::Y90));
        p.body.push_back(MicroStep::wait(gate_cycles));
        cs.define(kCnotGate, std::move(p));
    }
    return cs;
}

} // namespace quma::microcode
