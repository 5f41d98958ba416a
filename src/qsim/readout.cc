#include "qsim/readout.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "signal/phasor.hh"

namespace quma::qsim {

namespace {

/** A readout window's ground truth and its ADC sample grid. */
struct Window
{
    ReadoutOutcome outcome;
    std::size_t n;
    double dtNs;
};

/**
 * Every random draw of one readout window, shared by both readout
 * paths so their RNG use cannot drift apart: the T1 decay instant,
 * then the whole window's noise in one batched pass into `noise`.
 * Draw order is exactly a per-sample loop's (one standard normal per
 * sample, in sample order), but the ziggurat runs as a tight loop and
 * the tone and sum loops carry no RNG data dependency.
 */
Window
drawWindow(const ReadoutParams &params, bool initial_one,
           TimeNs duration_ns, double t1_ns, Rng &rng,
           std::vector<double> &noise)
{
    if (duration_ns <= 0)
        fatal("readout: non-positive duration");

    Window w;
    w.outcome.initialOne = initial_one;
    w.outcome.finalOne = initial_one;
    if (initial_one && t1_ns > 0) {
        // Exponential decay time; only matters if inside the window.
        double u = rng.uniform();
        double t = -t1_ns * std::log(1.0 - u);
        if (t < static_cast<double>(duration_ns)) {
            w.outcome.decayAtNs = t;
            w.outcome.finalOne = false;
        }
    }

    w.dtNs = 1e9 / params.adcRateHz;
    w.n = static_cast<std::size_t>(
        std::floor(static_cast<double>(duration_ns) / w.dtNs));
    noise.resize(w.n);
    rng.fillStandardNormal(noise.data(), w.n);
    return w;
}

/** Whether sample k still sees the |1> response (no decay yet). */
bool
sampleSeesOne(const Window &w, std::size_t k)
{
    double t_ns = (static_cast<double>(k) + 0.5) * w.dtNs;
    double decay_ns = w.outcome.decayAtNs;
    return w.outcome.initialOne && (decay_ns < 0 || t_ns < decay_ns);
}

/**
 * Re(c * exp(i*arg)) at the phasor's current sample: the incremental
 * phasor costs one complex multiply per sample instead of a sincos.
 */
double
ifLevel(const std::complex<double> &c, const signal::Phasor &ph)
{
    return c.real() * ph.cosine() - c.imag() * ph.sine();
}

} // namespace

ReadoutTrace
simulateReadout(const ReadoutParams &params, bool initial_one,
                TimeNs duration_ns, double t1_ns, Rng &rng,
                std::vector<double> *noise_scratch)
{
    std::vector<double> local;
    std::vector<double> &noise = noise_scratch ? *noise_scratch : local;
    Window w = drawWindow(params, initial_one, duration_ns, t1_ns, rng,
                          noise);

    std::vector<double> samples(w.n);
    signal::Phasor ph = signal::gridPhasor(params.ifHz, 0.0, w.dtNs);
    for (std::size_t k = 0; k < w.n; ++k) {
        samples[k] = ifLevel(sampleSeesOne(w, k) ? params.c1 : params.c0,
                             ph);
        ph.advance();
    }
    // Vectorizable: no phasor recurrence, no RNG call, just FMA.
    const double sigma = params.noiseSigma;
    for (std::size_t k = 0; k < w.n; ++k)
        samples[k] += sigma * noise[k];

    return {w.outcome,
            signal::Waveform(std::move(samples), params.adcRateHz)};
}

ReadoutTone
readoutTone(const ReadoutParams &params, std::size_t n)
{
    ReadoutTone tone;
    tone.level0.resize(n);
    tone.level1.resize(n);
    signal::Phasor ph =
        signal::gridPhasor(params.ifHz, 0.0, 1e9 / params.adcRateHz);
    for (std::size_t k = 0; k < n; ++k) {
        tone.level0[k] = ifLevel(params.c0, ph);
        tone.level1[k] = ifLevel(params.c1, ph);
        ph.advance();
    }
    return tone;
}

ReadoutIntegral
integrateReadout(const ReadoutParams &params, const ReadoutTone &tone,
                 bool initial_one, TimeNs duration_ns, double t1_ns,
                 Rng &rng, const std::vector<double> &weights,
                 std::vector<double> &noise_scratch)
{
    Window w = drawWindow(params, initial_one, duration_ns, t1_ns, rng,
                          noise_scratch);
    const std::size_t m = std::min(w.n, weights.size());
    quma_assert(tone.level0.size() >= m && tone.level1.size() >= m,
                "readout tone shorter than the integration window");

    // simulateReadout's sample, then Mdu::integrate's accumulation,
    // one statement each in the same order: S is bit-identical to
    // integrating the trace, without ever storing it.
    const double sigma = params.noiseSigma;
    double s = 0;
    for (std::size_t k = 0; k < m; ++k) {
        double x = sampleSeesOne(w, k) ? tone.level1[k] : tone.level0[k];
        x += sigma * noise_scratch[k];
        s += x * weights[k];
    }

    return {w.outcome, s};
}

} // namespace quma::qsim
