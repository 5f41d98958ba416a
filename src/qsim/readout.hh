/**
 * @file
 * Dispersive readout signal model.
 *
 * A measurement pulse probes the readout resonator; the transmitted
 * feedline signal is demodulated to an intermediate frequency (40 MHz
 * in the paper's setup) and digitised. The complex amplitude of the IF
 * tone depends on the qubit state; additive Gaussian noise and T1
 * decay during the readout window give a realistic readout fidelity
 * below one.
 */

#ifndef QUMA_QSIM_READOUT_HH
#define QUMA_QSIM_READOUT_HH

#include <complex>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "signal/waveform.hh"

namespace quma::qsim {

/** State-dependent IF response of one qubit's readout resonator. */
struct ReadoutParams
{
    /** Complex IF amplitude when the qubit is in |0>. */
    std::complex<double> c0{1.0, 0.0};
    /** Complex IF amplitude when the qubit is in |1>. */
    std::complex<double> c1{-1.0, 0.0};
    /** Std-dev of additive Gaussian noise per ADC sample. */
    double noiseSigma = 4.0;
    /** Intermediate (demodulated) frequency in Hz. */
    double ifHz = 40.0e6;
    /** ADC sampling rate for the digitised trace. */
    double adcRateHz = kAdcSampleRateHz;
};

/** Ground truth of one readout window. */
struct ReadoutOutcome
{
    /** True qubit state at the start of the readout window. */
    bool initialOne = false;
    /** True qubit state at the end of the window (after T1 decay). */
    bool finalOne = false;
    /** Decay instant within the window (ns from start), or -1. */
    double decayAtNs = -1.0;
};

/** A digitised readout trace plus ground-truth bookkeeping. */
struct ReadoutTrace : ReadoutOutcome
{
    /** IF trace as seen by the master controller's ADC. */
    signal::Waveform trace;
};

/** A readout integrated against MDU weights, with its ground truth. */
struct ReadoutIntegral : ReadoutOutcome
{
    /** S = sum_k Va(k) * W(k) over min(samples, weights) samples. */
    double s = 0.0;
};

/**
 * Generate the digitised IF trace for one readout of one qubit.
 *
 * If the qubit starts in |1> it may decay during the window with the
 * exponential statistics of the supplied T1; the trace switches from
 * the |1> response to the |0> response at the decay instant.
 *
 * The additive noise is drawn in one batched pass (the whole
 * window's gaussians up front, then a vectorizable add) -- the RNG
 * stream and draw order are identical to a per-sample loop, so the
 * trace is bit-identical either way. `noise_scratch`, when given,
 * holds the noise buffer across calls; the trace itself is a fresh
 * allocation per call. This is the trace-level path for tests and
 * figures; the machine uses integrateReadout().
 */
ReadoutTrace simulateReadout(const ReadoutParams &params, bool initial_one,
                             TimeNs duration_ns, double t1_ns, Rng &rng,
                             std::vector<double> *noise_scratch = nullptr);

/**
 * The noiseless |0> and |1> IF levels of the first n samples of a
 * readout window, Re(c0 * phasor_k) and Re(c1 * phasor_k): exactly
 * the values simulateReadout() computes sample by sample. They depend
 * only on the response, not on the shot, so a chip builds them once.
 */
struct ReadoutTone
{
    std::vector<double> level0;
    std::vector<double> level1;
};

ReadoutTone readoutTone(const ReadoutParams &params, std::size_t n);

/**
 * The readout the MDU sees, without the trace: the same draws as
 * simulateReadout() (decay, then all n noise samples), and S summed
 * in the same order as Mdu::integrate() over that trace, so S is
 * bit-identical to integrating the simulated trace. `tone` must be
 * readoutTone(params, ...) covering min(n, weights.size()) samples.
 * Allocation-free once `noise_scratch` has grown to the window's
 * sample count.
 */
ReadoutIntegral integrateReadout(const ReadoutParams &params,
                                 const ReadoutTone &tone, bool initial_one,
                                 TimeNs duration_ns, double t1_ns,
                                 Rng &rng,
                                 const std::vector<double> &weights,
                                 std::vector<double> &noise_scratch);

} // namespace quma::qsim

#endif // QUMA_QSIM_READOUT_HH
