/**
 * @file
 * Pulse-level transmon chip model.
 *
 * This stands in for the 10-transmon device of the paper's Figure 8.
 * Control fidelity is what matters for validating the
 * microarchitecture, so the model keeps exactly the sensitivities the
 * paper discusses:
 *
 *  - the rotation ANGLE is set by the integrated pulse envelope
 *    (amplitude errors show up as under/over-rotation);
 *  - the rotation AXIS is set by the SSB carrier phase at the global
 *    pulse start time (a 5 ns timing slip with 50 MHz SSB turns an x
 *    rotation into a y rotation, paper section 4.2.3);
 *  - detuned drives rotate less far and about a shifted axis;
 *  - idle periods decohere with T1 / T2;
 *  - readout includes additive noise and T1 decay during the window.
 */

#ifndef QUMA_QSIM_TRANSMON_HH
#define QUMA_QSIM_TRANSMON_HH

#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "qsim/density.hh"
#include "qsim/readout.hh"
#include "signal/pulse.hh"

namespace quma::qsim {

/** Static calibration data for one transmon. */
struct TransmonParams
{
    /** Qubit transition frequency (Hz); paper qubit 2: 6.466 GHz. */
    double freqHz = 6.466e9;
    /** Readout resonator fundamental (Hz); paper: 6.850 GHz. */
    double resonatorHz = 6.850e9;
    /** Relaxation time (ns). */
    double t1Ns = 30000.0;
    /** Markovian (echo) coherence time (ns); must be <= 2 * T1. */
    double t2Ns = 25000.0;
    /**
     * Std-dev (Hz) of a quasi-static per-round frequency offset.
     * Models low-frequency flux/charge noise: shortens the Ramsey
     * (T2*) decay but is refocused by an echo.
     */
    double quasiStaticDetuningSigmaHz = 0.0;
    /** Rotation angle per unit integrated envelope (rad / (amp * ns)). */
    double rabiRadPerAmpNs = 0.0;
    /** Readout response. */
    ReadoutParams readout;
};

/**
 * The quantum processor: a register of transmons behind a feedline.
 *
 * Simulated qubits are indexed 0..n-1; an experiment that addresses
 * the paper's "qubit 2" maps it to one of these slots at machine
 * configuration time.
 */
class TransmonChip
{
  public:
    TransmonChip(std::vector<TransmonParams> qubit_params,
                 std::uint64_t seed = 0x9b1d);

    unsigned numQubits() const
    {
        return static_cast<unsigned>(params.size());
    }
    const TransmonParams &qubitParams(unsigned q) const;

    /** Current simulation time (ns). */
    TimeNs now() const { return nowNs; }

    /**
     * Begin a new experiment round: reset all qubits to |0>, rewind
     * the clock and draw fresh quasi-static detunings.
     */
    void newRound();

    /**
     * Return the chip to its freshly-constructed state with the given
     * noise seed: all qubits in |0>, clock at zero, and the RNG
     * rewound so a subsequent run reproduces a fresh chip bit for
     * bit. Unlike newRound() this does NOT draw detunings (the next
     * newRound() performs the first draw, exactly as after
     * construction).
     */
    void reseed(std::uint64_t seed);

    /** Advance to an absolute time, applying idle decoherence. */
    void advanceTo(TimeNs t_ns);

    /** advanceTo that tolerates t_ns already being in the past. */
    void advanceAtLeast(TimeNs t_ns);

    /**
     * Apply a microwave drive pulse to qubit q. The pulse's I/Q
     * samples are interpreted in the qubit's rotating frame relative
     * to the pulse's carrier; time is the global simulation time.
     *
     * Repeated rounds reuse their drive operators: the k-th drive of
     * a round is memoised under its exact key (start time, shapeId,
     * rotating-frame offset bits, qubit), and the k-th drive of a
     * later round with an equal key applies the stored operator
     * instead of demodulating again. A pulse with shapeId 0 is always
     * computed. See src/qsim/README.md, "Repeated-round memo".
     */
    void applyDrive(unsigned q, const signal::DrivePulse &pulse);

    /** Drives served from the memo so far (diagnostic). */
    std::size_t driveMemoHits() const { return memoHits; }

    /**
     * Most drives memoised per round: 8 Ki entries of 64 B (512 KiB
     * per chip at most), enough for a 1 024-Clifford RB round.
     */
    static constexpr std::size_t kDriveMemoCap = 8192;

    /**
     * Apply a two-qubit CZ between qubits a and b (idealised flux
     * pulse of the given duration).
     */
    void applyCz(unsigned a, unsigned b, TimeNs t0_ns, TimeNs duration_ns);

    /**
     * Measure qubit q with a readout window starting at t0 lasting
     * duration_ns. Projects the qubit, simulates T1 decay during the
     * window, and returns the digitised IF trace.
     */
    ReadoutTrace measure(unsigned q, TimeNs t0_ns, TimeNs duration_ns);

    /**
     * measure() as the MDU sees it: the same projection, window and
     * random draws, but the IF trace is integrated against `weights`
     * on the fly instead of being built. The returned S is
     * bit-identical to integrating measure()'s trace with
     * Mdu::integrate(), and the chip ends in the same state.
     * Allocation-free after the first call with a given weight
     * vector and window length.
     */
    ReadoutIntegral measureIntegrated(unsigned q, TimeNs t0_ns,
                                      TimeNs duration_ns,
                                      const std::vector<double> &weights);

    /** Probability of |1> right now (diagnostic; not a measurement). */
    double probabilityOne(unsigned q) const;

    /** Direct access for tests and fast-path experiments. */
    DensityMatrix &state() { return rho; }
    const DensityMatrix &state() const { return rho; }

    Rng &rng() { return random; }

  private:
    /**
     * One memoised drive operator raxis(phi, theta) =
     * [[c, u01], [u10, c]] and its key. Plain data, 64 bytes.
     */
    struct DriveMemo
    {
        TimeNs t0Ns = 0;
        /** Bits of the rotating-frame offset f_rot. */
        std::uint64_t fRotBits = 0;
        /** shapeId << 8 | qubit << 1 | 1 when the drive is the
         *  identity (theta <= 1e-12); 0 = empty slot. */
        std::uint64_t tag = 0;
        double c = 0.0;
        Complex u01{};
        Complex u10{};
    };
    static_assert(sizeof(DriveMemo) == 64);

    /** Last idle step's factors for one qubit and their key. */
    struct IdleMemo
    {
        /** Step length; 0 = empty (idle steps are >= 1 ns). */
        double dtNs = 0.0;
        std::uint64_t detuningBits = 0;
        IdleFactors factors;
    };

    void idleEvolve(TimeNs from_ns, TimeNs to_ns);

    /**
     * The chip side of a readout, shared by measure() and
     * measureIntegrated(): project qubit q, let `synthesize(params,
     * outcome)` produce the window (T1 decay included), then apply
     * the decay to the state, mark the window busy and redraw the
     * quasi-static detuning.
     */
    template <class Synthesize>
    auto measureWith(unsigned q, TimeNs t0_ns, TimeNs duration_ns,
                     Synthesize synthesize);

    std::vector<TransmonParams> params;
    std::vector<double> roundDetuningHz;
    /**
     * End of each qubit's most recent readout window: its evolution
     * during the window is captured by the sampled trace, so idle
     * decoherence is suppressed until this time.
     */
    std::vector<TimeNs> busyUntilNs;
    DensityMatrix rho;
    Rng random;
    TimeNs nowNs = 0;
    /** Batched readout-noise buffer, reused across measurements:
     *  measureIntegrated() then allocates nothing, while measure()
     *  still allocates its trace. */
    std::vector<double> noiseScratch;
    /** Per-qubit noiseless readout levels for measureIntegrated(),
     *  grown to the weight vector's length on first use. */
    std::vector<ReadoutTone> readoutTones;
    /** Drive operators by ordinal within the round; grows on first
     *  use up to kDriveMemoCap, kept across rounds. */
    std::vector<DriveMemo> driveMemo;
    /** Ordinal of the next drive in this round. */
    std::size_t driveOrdinal = 0;
    std::size_t memoHits = 0;
    /** Per-qubit idle-step memo. */
    std::vector<IdleMemo> idleMemo;
};

/**
 * Default calibration: rabiRadPerAmpNs chosen so a unit-amplitude
 * 20 ns Gaussian (sigma 5 ns) rotates by pi.
 */
double standardRabiGain(double pulse_ns = 20.0);

/** Parameters mirroring the paper's measured qubit (qubit 2). */
TransmonParams paperQubitParams();

} // namespace quma::qsim

#endif // QUMA_QSIM_TRANSMON_HH
