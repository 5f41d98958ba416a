/**
 * @file
 * Timed analog pulse records exchanged between the AWG models (which
 * produce them) and the transmon physics model (which consumes them).
 */

#ifndef QUMA_SIGNAL_PULSE_HH
#define QUMA_SIGNAL_PULSE_HH

#include "common/types.hh"
#include "signal/waveform.hh"

namespace quma::signal {

/**
 * A microwave drive pulse leaving an AWG's I/Q channel pair.
 *
 * The stored I/Q samples already include the single-sideband
 * modulation (the AWG plays exactly what is in its wave memory), so
 * together with the start time they fully determine the rotation the
 * qubit experiences.
 */
struct DrivePulse
{
    /** Global start time of the first sample in nanoseconds. */
    TimeNs t0Ns = 0;
    /** In-phase component at the AWG sample rate. */
    Waveform i;
    /** Quadrature component at the AWG sample rate. */
    Waveform q;
    /** SSB modulation frequency baked into the samples (Hz). */
    double ssbHz = 0.0;
    /** Carrier frequency of the upconverting source (Hz). */
    double carrierHz = 0.0;
    /**
     * Identity of the I/Q samples (and their rate): two pulses with
     * the same nonzero shapeId carry the same samples bit for bit,
     * so a consumer may reuse what it computed from them. 0 means
     * unknown and is never reused.
     */
    std::uint64_t shapeId = 0;

    double durationNs() const { return i.durationNs(); }
};

/**
 * A square measurement pulse gating the readout carrier (produced by
 * the master controller's digital output unit via a pulse-modulated
 * microwave source).
 */
struct MeasurementPulse
{
    TimeNs t0Ns = 0;
    /** Pulse duration in nanoseconds (D cycles * 5 ns). */
    TimeNs durationNs = 0;
    /** Readout carrier frequency (Hz). */
    double carrierHz = 0.0;
};

} // namespace quma::signal

#endif // QUMA_SIGNAL_PULSE_HH
