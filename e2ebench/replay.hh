/**
 * @file
 * Layer replay: the split of QumaMachine::run by layer, measured
 * from outside the machine.
 *
 * One representative job runs on a machine the benchmark owns, first
 * with the execution trace off (timed: the reference run time) and
 * then, on the same seeds, with it on. The recorded drive pulses and
 * readout windows, and the program itself, are then fed back through
 * each layer's public entry point and every call is timed:
 *
 *   microcode  QControlStore::expandApply / expandMeasure / expandCnot
 *   qsim       TransmonChip::applyDrive (samples from the AWG
 *              WaveMemory through the CTPG's DAC), TransmonChip::measure
 *   measure    Mdu::integrate
 *   isa        Assembler::assemble
 *   awg        buildStandardLut
 *
 * What the replay does not attribute to those layers is the machine's
 * own time: exec controller, QMB, timing unit, event wheel and AWG
 * dispatch (quma self time).
 */

#ifndef E2EBENCH_REPLAY_HH
#define E2EBENCH_REPLAY_HH

#include <string>
#include <vector>

#include "runtime/job.hh"

namespace e2e {

struct LayerSplit
{
    /** Averaging rounds the replayed runs covered. */
    double rounds = 0;

    // quma: the machine run itself (trace off).
    double runMsPerRound = 0;
    double resetLoadUsPerRound = 0;
    double simCyclesPerRound = 0;
    double eventsPerRound = 0;
    double hostNsPerEvent = 0;

    // Replayed layer time and work.
    double driveUsPerRound = 0;
    double readoutUsPerRound = 0;
    double integrateUsPerRound = 0;
    double expandUsPerRound = 0;
    double drivesPerRound = 0;
    double readoutsPerRound = 0;
    double gaussianDrawsPerReadout = 0;
    double expansionsPerRound = 0;

    // Set-up layers.
    double assembleMsPerProgram = 0;
    double lutRenderMs = 0;
    double machineBuildMs = 0;

    /** Run time not covered by the replayed layers. */
    double
    selfMsPerRound() const
    {
        return runMsPerRound -
               (driveUsPerRound + readoutUsPerRound +
                integrateUsPerRound + expandUsPerRound) /
                   1000.0;
    }

    /** Self-consistency failures (empty = consistent). */
    std::vector<std::string> problems;
};

/**
 * Replay `spec` layer by layer.
 *
 * @param spec the representative job. A round-structured job
 *        (rounds > 0) is run one round per machine run, as the
 *        runtime does, for at most `max_runs` rounds; an opaque job
 *        is run once.
 * @param program_rounds averaging rounds an opaque job's program
 *        loops over (ignored for round-structured jobs)
 * @param programs assembly sources whose assembly time is averaged
 *        into assembleMsPerProgram (the workload's distinct programs)
 * @param passes timed repetitions; each timing is the median pass
 */
LayerSplit replayLayers(const quma::runtime::JobSpec &spec,
                        std::size_t program_rounds,
                        const std::vector<std::string> &programs,
                        std::size_t max_runs, unsigned passes = 3);

} // namespace e2e

#endif // E2EBENCH_REPLAY_HH
