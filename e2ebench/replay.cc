#include "replay.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "awg/calibration.hh"
#include "common/rng.hh"
#include "helpers.hh"
#include "isa/assembler.hh"
#include "isa/nametable.hh"
#include "measure/mdu.hh"
#include "microcode/controlstore.hh"
#include "qsim/transmon.hh"
#include "quma/machine.hh"
#include "signal/converters.hh"

namespace e2e {

using namespace quma;

namespace {

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** Per-run RNG seeds of the replay (chip, exec). */
std::pair<std::uint64_t, std::uint64_t>
runSeeds(std::uint64_t seed, std::size_t run)
{
    return {Rng::derive(seed, 2 * run), Rng::derive(seed, 2 * run + 1)};
}

/** What one traced machine run sent to the chip. */
struct RunRecord
{
    std::uint64_t chipSeed = 0;
    std::vector<core::PulseRecord> pulses;
    std::vector<core::MeasurementRecord> measurements;
};

/** The calibration a machine uploads to AWG 0 (see
 *  QumaMachine::uploadStandardCalibration). */
awg::CalibrationParams
awgCalibration(const core::MachineConfig &cfg)
{
    awg::CalibrationParams cp;
    cp.pulseNs = cfg.pulseNs;
    cp.ssbHz = cfg.ssbHz;
    cp.rabiRadPerAmpNs = cfg.qubits[0].rabiRadPerAmpNs;
    cp.amplitudeError = cfg.amplitudeError;
    cp.msmtPulseNs = static_cast<double>(cyclesToNs(cfg.msmtCycles));
    return cp;
}

/** Prepare `m` for run `r` of the replay. */
void
armRun(core::QumaMachine &m, const runtime::JobSpec &spec,
       const isa::Program &program, std::size_t r)
{
    auto [chip, exec] = runSeeds(spec.seed, r);
    m.reset(chip, exec);
    m.configureDataCollection(spec.bins ? spec.bins : 1);
    m.loadProgram(program);
}

} // namespace

LayerSplit
replayLayers(const runtime::JobSpec &spec, std::size_t program_rounds,
             const std::vector<std::string> &programs,
             std::size_t max_runs, unsigned passes)
{
    LayerSplit out;
    passes = std::max(passes, 1u);
    const bool roundStructured = spec.rounds > 0;
    const std::size_t runs =
        roundStructured ? std::min(spec.rounds, std::max<std::size_t>(
                                                    max_runs, 1))
                        : 1;
    out.rounds = static_cast<double>(
        roundStructured ? runs : std::max<std::size_t>(program_rounds, 1));

    core::MachineConfig cfg = spec.machine;
    cfg.traceEnabled = false;

    // --- isa: assembly of the workload's programs -----------------
    isa::Assembler assembler;
    {
        std::vector<double> perProgram;
        for (unsigned p = 0; p < passes; ++p) {
            std::uint64_t t0 = nowNanos();
            for (const std::string &src : programs)
                (void)assembler.assemble(src);
            perProgram.push_back(
                static_cast<double>(nowNanos() - t0) / 1e6 /
                static_cast<double>(std::max<std::size_t>(
                    programs.size(), 1)));
        }
        out.assembleMsPerProgram = median(perProgram);
    }
    const isa::Program program = assembler.assemble(spec.assembly);

    // --- awg: one LUT render --------------------------------------
    {
        awg::CalibrationParams cp = awgCalibration(cfg);
        std::vector<double> ms;
        for (unsigned p = 0; p < passes; ++p) {
            awg::WaveMemory memory;
            std::uint64_t t0 = nowNanos();
            awg::buildStandardLut(memory, cp);
            ms.push_back(static_cast<double>(nowNanos() - t0) / 1e6);
        }
        out.lutRenderMs = median(ms);
    }

    // --- machine construction + calibration upload ----------------
    std::unique_ptr<core::QumaMachine> machine;
    {
        std::vector<double> ms;
        for (unsigned p = 0; p < passes; ++p) {
            machine.reset();
            std::uint64_t t0 = nowNanos();
            machine = std::make_unique<core::QumaMachine>(cfg);
            machine->uploadStandardCalibration();
            ms.push_back(static_cast<double>(nowNanos() - t0) / 1e6);
        }
        out.machineBuildMs = median(ms);
    }
    core::QumaMachine &m = *machine;

    // --- quma: the run itself, trace off ---------------------------
    std::vector<double> runNs, resetNs;
    std::uint64_t cycles = 0, events = 0;
    for (unsigned p = 0; p < passes; ++p) {
        std::uint64_t run = 0, arm = 0, cyc = 0, ev = 0;
        for (std::size_t r = 0; r < runs; ++r) {
            std::uint64_t t0 = nowNanos();
            armRun(m, spec, program, r);
            std::uint64_t t1 = nowNanos();
            core::RunResult res = m.run(spec.maxCycles);
            std::uint64_t t2 = nowNanos();
            arm += t1 - t0;
            run += t2 - t1;
            cyc += res.cyclesRun;
            ev += m.stats().wheel.dispatched;
        }
        if (p > 0 && (cyc != cycles || ev != events))
            out.problems.push_back(
                "machine cycles/events differ between identical passes");
        cycles = cyc;
        events = ev;
        runNs.push_back(static_cast<double>(run));
        resetNs.push_back(static_cast<double>(arm));
    }
    out.runMsPerRound = median(runNs) / 1e6 / out.rounds;
    out.resetLoadUsPerRound = median(resetNs) / 1e3 / out.rounds;
    out.simCyclesPerRound = static_cast<double>(cycles) / out.rounds;
    out.eventsPerRound = static_cast<double>(events) / out.rounds;
    out.hostNsPerEvent =
        events ? median(runNs) / static_cast<double>(events) : 0.0;

    // --- the same runs with the trace on: what reached the chip ----
    std::vector<RunRecord> records;
    std::size_t machineDrives = 0, machineReadouts = 0;
    {
        std::uint64_t cyc = 0, ev = 0;
        m.trace().setEnabled(true);
        for (std::size_t r = 0; r < runs; ++r) {
            armRun(m, spec, program, r);
            core::RunResult res = m.run(spec.maxCycles);
            cyc += res.cyclesRun;
            ev += m.stats().wheel.dispatched;
            RunRecord rec;
            rec.chipSeed = runSeeds(spec.seed, r).first;
            rec.pulses = m.trace().pulses();
            rec.measurements = m.trace().measurements();
            records.push_back(std::move(rec));
            for (unsigned a = 0; a < cfg.numAwgs; ++a)
                machineDrives += m.awgModule(a).ctpg().pulsesEmitted();
            for (unsigned q = 0; q < cfg.qubits.size(); ++q)
                machineReadouts += m.mdu(q).discriminationsDone();
        }
        m.trace().setEnabled(false);
        if (cyc != cycles || ev != events)
            out.problems.push_back(
                "traced run differs from the untraced run in cycles or "
                "events");
    }

    // --- qsim + measure: replay pulses and readout windows ---------
    // Drive samples as the CTPG plays them: wave-memory entries
    // through the board's DAC.
    std::map<std::pair<unsigned, Codeword>, signal::DrivePulse> drives;
    for (const RunRecord &rec : records) {
        for (const core::PulseRecord &pr : rec.pulses) {
            auto key = std::make_pair(pr.awg, pr.codeword);
            if (drives.count(key))
                continue;
            awg::AwgModule &board = m.awgModule(pr.awg);
            const awg::CtpgConfig &cc = board.config().ctpg;
            signal::Dac dac(cc.dacBits, cc.dacFullScale,
                            kAwgSampleRateHz);
            const awg::StoredPulse &stored =
                board.waveMemory().lookup(pr.codeword);
            signal::DrivePulse dp;
            dp.i = dac.render(stored.i);
            dp.q = dac.render(stored.q);
            dp.ssbHz = cc.ssbHz;
            dp.carrierHz = cc.carrierHz;
            drives.emplace(key, std::move(dp));
        }
    }
    std::vector<measure::Mdu> mdus;
    for (const qsim::TransmonParams &qp : cfg.qubits)
        mdus.emplace_back(measure::calibrateMdu(qp.readout,
                                                cyclesToNs(cfg.msmtCycles)),
                          cfg.mduLatencyCycles);

    std::vector<double> driveNs, readoutNs, integrateNs;
    std::size_t nDrives = 0, nReadouts = 0, nSamples = 0;
    for (unsigned p = 0; p < passes; ++p) {
        std::uint64_t tDrive = 0, tRead = 0, tInt = 0;
        nDrives = nReadouts = nSamples = 0;
        qsim::TransmonChip chip(cfg.qubits, cfg.chipSeed);
        for (const RunRecord &rec : records) {
            chip.reseed(rec.chipSeed);
            chip.newRound();
            // Merge the two chronological streams; on equal times
            // pulses go first, as the AWGs advance before the digital
            // outputs inside one machine cycle.
            std::size_t i = 0, j = 0;
            while (i < rec.pulses.size() || j < rec.measurements.size()) {
                bool takePulse =
                    j == rec.measurements.size() ||
                    (i < rec.pulses.size() &&
                     rec.pulses[i].t0Ns <=
                         cyclesToNs(rec.measurements[j].windowStart));
                if (takePulse) {
                    const core::PulseRecord &pr = rec.pulses[i++];
                    if (pr.codeword == isa::uops::Msmt)
                        continue;
                    signal::DrivePulse &dp =
                        drives.at({pr.awg, pr.codeword});
                    dp.t0Ns = pr.t0Ns;
                    std::uint64_t t0 = nowNanos();
                    if (pr.codeword == isa::uops::Cz) {
                        std::vector<unsigned> qs;
                        for (unsigned q = 0; q < 32; ++q)
                            if (pr.mask & (QubitMask{1} << q))
                                qs.push_back(q);
                        chip.applyCz(qs.at(0), qs.at(1), pr.t0Ns,
                                     cfg.czDurationNs);
                    } else {
                        for (unsigned q = 0; q < 32; ++q)
                            if (pr.mask & (QubitMask{1} << q))
                                chip.applyDrive(q, dp);
                    }
                    tDrive += nowNanos() - t0;
                    ++nDrives;
                } else {
                    const core::MeasurementRecord &mr =
                        rec.measurements[j++];
                    std::uint64_t t0 = nowNanos();
                    qsim::ReadoutTrace trace =
                        chip.measure(mr.qubit, cyclesToNs(mr.windowStart),
                                     cyclesToNs(mr.durationCycles));
                    std::uint64_t t1 = nowNanos();
                    (void)mdus.at(mr.qubit).integrate(trace.trace);
                    std::uint64_t t2 = nowNanos();
                    tRead += t1 - t0;
                    tInt += t2 - t1;
                    ++nReadouts;
                    nSamples += trace.trace.size();
                }
            }
        }
        driveNs.push_back(static_cast<double>(tDrive));
        readoutNs.push_back(static_cast<double>(tRead));
        integrateNs.push_back(static_cast<double>(tInt));
    }
    out.driveUsPerRound = median(driveNs) / 1e3 / out.rounds;
    out.readoutUsPerRound = median(readoutNs) / 1e3 / out.rounds;
    out.integrateUsPerRound = median(integrateNs) / 1e3 / out.rounds;
    out.drivesPerRound = static_cast<double>(nDrives) / out.rounds;
    out.readoutsPerRound = static_cast<double>(nReadouts) / out.rounds;
    out.gaussianDrawsPerReadout =
        nReadouts ? static_cast<double>(nSamples) /
                        static_cast<double>(nReadouts)
                  : 0.0;
    if (nDrives != machineDrives)
        out.problems.push_back(
            "replayed drive count " + std::to_string(nDrives) +
            " != machine's CTPG pulse count " +
            std::to_string(machineDrives));
    if (nReadouts != machineReadouts)
        out.problems.push_back(
            "replayed readout count " + std::to_string(nReadouts) +
            " != machine's MDU discrimination count " +
            std::to_string(machineReadouts));

    // --- microcode: expand the program's QIS instructions ----------
    // Every QIS instruction of both program shapes sits inside the
    // round (an opaque program loops over its body, a round-structured
    // one is the body), so one pass over the program text is one
    // round's expansions.
    Cycle gateWait = cfg.gateWaitCycles != 0
                         ? cfg.gateWaitCycles
                         : nsToCycles(static_cast<TimeNs>(cfg.pulseNs));
    microcode::QControlStore store =
        microcode::QControlStore::standard(gateWait, cfg.msmtCycles);
    std::vector<const isa::Instruction *> qis;
    for (const isa::Instruction &inst : program.all())
        if (inst.op == isa::Opcode::Apply ||
            inst.op == isa::Opcode::MeasureQ ||
            inst.op == isa::Opcode::Cnot)
            qis.push_back(&inst);
    out.expansionsPerRound = static_cast<double>(qis.size());
    if (!qis.empty()) {
        // Enough program passes per timing to dwarf the clock reads.
        std::size_t reps = std::max<std::size_t>(1, 20000 / qis.size());
        std::size_t sink = 0;
        std::vector<double> ns;
        for (unsigned p = 0; p < passes; ++p) {
            std::uint64_t t0 = nowNanos();
            for (std::size_t k = 0; k < reps; ++k) {
                for (const isa::Instruction *inst : qis) {
                    switch (inst->op) {
                      case isa::Opcode::Apply:
                        sink += store.expandApply(inst->gate, inst->qmask)
                                    .size();
                        break;
                      case isa::Opcode::MeasureQ:
                        sink += store.expandMeasure(inst->qmask, inst->rd)
                                    .size();
                        break;
                      default:
                        sink += store.expandCnot(inst->rd, inst->rs)
                                    .size();
                    }
                }
            }
            ns.push_back(static_cast<double>(nowNanos() - t0) /
                         static_cast<double>(reps));
        }
        if (sink == 0)
            out.problems.push_back("microcode expansion produced nothing");
        out.expandUsPerRound = median(ns) / 1e3;
    }
    return out;
}

} // namespace e2e
