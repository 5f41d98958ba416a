/**
 * @file
 * Measurement discrimination unit (paper §4.2.1, §5.1.2).
 *
 * Hardware-based discrimination with sub-microsecond latency: the
 * digitised readout trace Va(t) is integrated against a calibrated
 * weight function Wq(t),
 *
 *     Sq = sum_t Va(t) * Wq(t),    Mq = (Sq > Tq) ? 1 : 0,
 *
 * and the binary result is written back for feedback control. The
 * integration result Sq also feeds the data collection unit for
 * ensemble averaging.
 *
 * Sq is the only thing the discriminator keeps of a readout: the
 * machine's event flow deposits it directly (the chip integrates the
 * window on the fly, see TransmonChip::measureIntegrated), and a
 * deposited trace is integrated on arrival.
 */

#ifndef QUMA_MEASURE_MDU_HH
#define QUMA_MEASURE_MDU_HH

#include <functional>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "qsim/readout.hh"
#include "signal/waveform.hh"

namespace quma::measure {

/** Calibrated discrimination data for one qubit. */
struct MduCalibration
{
    /** Integration weights at the ADC sample rate. */
    std::vector<double> weights;
    /** Decision threshold on the integration result. */
    double threshold = 0.0;
    /** Expected S for |0> and |1> (diagnostics / rescaling). */
    double s0 = 0.0;
    double s1 = 0.0;
};

/**
 * Build a matched filter for the given readout response: weights
 * proportional to the difference of the noiseless |1> and |0>
 * responses over the window, threshold midway between the two
 * expected integration results.
 */
MduCalibration calibrateMdu(const qsim::ReadoutParams &params,
                            TimeNs window_ns);

/** Result of one discrimination. */
struct MduResult
{
    double s = 0.0;
    bool bit = false;
    RegIndex destReg = 0;
    QubitMask qubit = 0;
    /** TD cycle at which the result becomes architecturally visible. */
    Cycle completionCycle = 0;
};

/**
 * One measurement discrimination unit instance (per qubit).
 *
 * Event-driven usage: the machine deposits the integration result S
 * when the measurement pulse fires, the MD event starts
 * discrimination, and the result is delivered after the integration
 * window plus the discrimination latency.
 */
class Mdu
{
  public:
    using ResultSink = std::function<void(const MduResult &)>;

    Mdu(MduCalibration calibration, Cycle latency_cycles = 100);

    const MduCalibration &calibration() const { return cal; }
    Cycle latencyCycles() const { return latency; }

    void setResultSink(ResultSink sink) { resultSink = std::move(sink); }

    /**
     * Deposit the integration result S of an in-flight measurement
     * whose window starts at td and lasts duration_cycles.
     */
    void submitIntegral(double s, Cycle td, Cycle duration_cycles);

    /** Deposit a digitised trace: integrate() it, then submitIntegral. */
    void submitTrace(const signal::Waveform &trace, Cycle td,
                     Cycle duration_cycles);

    /** True while a submitted readout awaits its MD trigger. */
    bool hasPendingTrace() const { return pending.has_value(); }

    /**
     * MD trigger. If the readout has already arrived it is
     * discriminated immediately; otherwise the discriminator is ARMED
     * and fires when submitIntegral delivers the window (the MD
     * trigger and the measurement pulse fire at the same timing
     * label, but the analog path has its own latency).
     */
    void discriminate(Cycle td, RegIndex dest_reg, QubitMask qubit);

    /** True while an MD trigger awaits its trace. */
    bool armed() const { return armedTrigger.has_value(); }

    /** Synchronous discrimination of an arbitrary trace (no events). */
    std::pair<double, bool> integrate(const signal::Waveform &trace) const;

    std::optional<Cycle> nextEventCycle() const;
    void advanceTo(Cycle now);

    std::size_t discriminationsDone() const { return done; }

    /**
     * Drop any pending readout / armed trigger / in-flight result and
     * zero the counters; the calibration is preserved (machine
     * re-arm).
     */
    void reset();

  private:
    MduCalibration cal;
    Cycle latency;
    ResultSink resultSink;

    struct PendingIntegral
    {
        double s;
        Cycle td;
        Cycle durationCycles;
    };
    struct ArmedTrigger
    {
        Cycle td;
        RegIndex destReg;
        QubitMask qubit;
    };

    void process(const PendingIntegral &readout,
                 const ArmedTrigger &trigger);

    std::optional<PendingIntegral> pending;
    std::optional<ArmedTrigger> armedTrigger;
    std::optional<MduResult> inFlight;
    std::size_t done = 0;
};

} // namespace quma::measure

#endif // QUMA_MEASURE_MDU_HH
