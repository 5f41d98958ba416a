#include "measure/mdu.hh"

#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "signal/phasor.hh"

namespace quma::measure {

MduCalibration
calibrateMdu(const qsim::ReadoutParams &params, TimeNs window_ns)
{
    MduCalibration cal;
    double dt_ns = 1e9 / params.adcRateHz;
    auto n = static_cast<std::size_t>(
        std::floor(static_cast<double>(window_ns) / dt_ns));
    if (n == 0)
        fatal("calibrateMdu: window shorter than one ADC sample");

    cal.weights.resize(n);
    double s0 = 0, s1 = 0;
    // The noiseless |0>/|1> responses are Re(c * exp(i*arg)) on a
    // uniform phase grid: generate the tone incrementally.
    signal::Phasor ph = signal::gridPhasor(params.ifHz, 0.0, dt_ns);
    for (std::size_t k = 0; k < n; ++k) {
        double co = ph.cosine(), si = ph.sine();
        ph.advance();
        double v0 = params.c0.real() * co - params.c0.imag() * si;
        double v1 = params.c1.real() * co - params.c1.imag() * si;
        cal.weights[k] = v1 - v0;
        s0 += v0 * cal.weights[k];
        s1 += v1 * cal.weights[k];
    }
    // Normalise so the |0>-|1> separation is independent of window
    // length (keeps thresholds comparable across durations).
    double scale = 1.0 / static_cast<double>(n);
    for (auto &w : cal.weights)
        w *= scale;
    cal.s0 = s0 * scale;
    cal.s1 = s1 * scale;
    cal.threshold = (cal.s0 + cal.s1) / 2.0;
    return cal;
}

Mdu::Mdu(MduCalibration calibration, Cycle latency_cycles)
    : cal(std::move(calibration)), latency(latency_cycles)
{
    if (cal.weights.empty())
        fatal("Mdu needs a non-empty weight function");
}

void
Mdu::submitIntegral(double s, Cycle td, Cycle duration_cycles)
{
    if (pending)
        fatal("Mdu: a second measurement started before the previous "
              "MD trigger consumed its readout");
    PendingIntegral readout{s, td, duration_cycles};
    if (armedTrigger) {
        ArmedTrigger trigger = *armedTrigger;
        armedTrigger.reset();
        process(readout, trigger);
    } else {
        pending = readout;
    }
}

void
Mdu::submitTrace(const signal::Waveform &trace, Cycle td,
                 Cycle duration_cycles)
{
    submitIntegral(integrate(trace).first, td, duration_cycles);
}

std::pair<double, bool>
Mdu::integrate(const signal::Waveform &trace) const
{
    double s = 0;
    std::size_t n = std::min(trace.size(), cal.weights.size());
    for (std::size_t k = 0; k < n; ++k)
        s += trace[k] * cal.weights[k];
    return {s, s > cal.threshold};
}

void
Mdu::discriminate(Cycle td, RegIndex dest_reg, QubitMask qubit)
{
    if (inFlight || armedTrigger)
        fatal("Mdu: discrimination already in progress");
    ArmedTrigger trigger{td, dest_reg, qubit};
    if (pending) {
        PendingIntegral readout = *pending;
        pending.reset();
        process(readout, trigger);
    } else {
        armedTrigger = trigger;
    }
}

void
Mdu::process(const PendingIntegral &readout, const ArmedTrigger &trigger)
{
    MduResult r;
    r.s = readout.s;
    r.bit = readout.s > cal.threshold;
    r.destReg = trigger.destReg;
    r.qubit = trigger.qubit;
    // The result is available after the integration window has been
    // captured plus the (fixed) discrimination pipeline latency.
    Cycle windowEnd =
        std::max(trigger.td, readout.td + readout.durationCycles);
    r.completionCycle = windowEnd + latency;
    inFlight = r;
}

std::optional<Cycle>
Mdu::nextEventCycle() const
{
    if (!inFlight)
        return std::nullopt;
    return inFlight->completionCycle;
}

void
Mdu::advanceTo(Cycle now)
{
    if (inFlight && inFlight->completionCycle <= now) {
        MduResult r = *inFlight;
        inFlight.reset();
        ++done;
        if (resultSink)
            resultSink(r);
    }
}

void
Mdu::reset()
{
    pending.reset();
    armedTrigger.reset();
    inFlight.reset();
    done = 0;
}

} // namespace quma::measure
