#include "qsim/transmon.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "qsim/channels.hh"
#include "signal/envelope.hh"
#include "signal/phasor.hh"

namespace quma::qsim {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
} // namespace

TransmonChip::TransmonChip(std::vector<TransmonParams> qubit_params,
                           std::uint64_t seed)
    : params(std::move(qubit_params)),
      roundDetuningHz(params.size(), 0.0),
      busyUntilNs(params.size(), 0),
      rho(params.empty() ? 1 : static_cast<unsigned>(params.size())),
      random(seed), readoutTones(params.size()),
      idleMemo(params.size())
{
    if (params.empty())
        fatal("TransmonChip needs at least one qubit");
    for (auto &p : params) {
        if (p.rabiRadPerAmpNs == 0.0)
            p.rabiRadPerAmpNs = standardRabiGain();
        if (p.t2Ns > 2.0 * p.t1Ns)
            fatal("TransmonChip: T2 must be <= 2 * T1");
    }
}

const TransmonParams &
TransmonChip::qubitParams(unsigned q) const
{
    quma_assert(q < params.size(), "qubit index out of range");
    return params[q];
}

void
TransmonChip::reseed(std::uint64_t seed)
{
    random.reseed(seed);
    rho.reset();
    nowNs = 0;
    driveOrdinal = 0;
    for (std::size_t q = 0; q < params.size(); ++q) {
        busyUntilNs[q] = 0;
        roundDetuningHz[q] = 0.0;
    }
}

void
TransmonChip::newRound()
{
    rho.reset();
    nowNs = 0;
    driveOrdinal = 0;
    for (std::size_t q = 0; q < params.size(); ++q) {
        busyUntilNs[q] = 0;
        double sigma = params[q].quasiStaticDetuningSigmaHz;
        roundDetuningHz[q] = sigma > 0 ? random.gaussian(0.0, sigma) : 0.0;
    }
}

void
TransmonChip::idleEvolve(TimeNs from_ns, TimeNs to_ns)
{
    if (to_ns <= from_ns)
        return;
    for (unsigned q = 0; q < params.size(); ++q) {
        // The portion of the interval inside the qubit's readout
        // window is already accounted for by the sampled trace.
        TimeNs start = std::max(from_ns, busyUntilNs[q]);
        if (start >= to_ns)
            continue;
        double dt = static_cast<double>(to_ns - start);
        // Closed-form T1/T2 update fused with the quasi-static
        // detuning frame rotation: one allocation-free sweep instead
        // of a generic Kraus application plus an rz conjugation. Its
        // factors depend only on (dt, detuning), and idle steps of
        // one length recur, so the last ones are kept per qubit.
        double det = roundDetuningHz[q];
        IdleMemo &memo = idleMemo[q];
        auto detBits = std::bit_cast<std::uint64_t>(det);
        if (memo.dtNs != dt || memo.detuningBits != detBits) {
            IdleChannelParams icp =
                idleChannelParams(dt, params[q].t1Ns, params[q].t2Ns);
            memo = {dt, detBits,
                    DensityMatrix::idleFactors(icp.gamma, icp.lambda,
                                               kTwoPi * det * dt * 1e-9)};
        }
        rho.applyIdle(q, memo.factors);
    }
}

void
TransmonChip::advanceTo(TimeNs t_ns)
{
    if (t_ns < nowNs)
        fatal("TransmonChip::advanceTo: time moved backwards (now ",
              nowNs, " ns, requested ", t_ns, " ns)");
    idleEvolve(nowNs, t_ns);
    nowNs = t_ns;
}

void
TransmonChip::advanceAtLeast(TimeNs t_ns)
{
    if (t_ns > nowNs)
        advanceTo(t_ns);
}

void
TransmonChip::applyDrive(unsigned q, const signal::DrivePulse &pulse)
{
    quma_assert(q < params.size(), "qubit index out of range");
    quma_assert(pulse.i.size() == pulse.q.size(),
                "DrivePulse I/Q length mismatch");

    auto dur = static_cast<TimeNs>(std::llround(pulse.durationNs()));
    TimeNs mid = pulse.t0Ns + dur / 2;
    advanceAtLeast(mid);

    // The frame offset from the carrier includes this round's
    // quasi-static detuning.
    const TransmonParams &p = params[q];
    double f_rot = (p.freqHz + roundDetuningHz[q]) - pulse.carrierHz;

    // The operator is a function of the samples (shapeId), t0, f_rot
    // and the qubit alone: an equal key at this ordinal in an earlier
    // round means the computation below would repeat bit for bit.
    std::size_t ordinal = driveOrdinal++;
    bool memoable = pulse.shapeId != 0 && ordinal < kDriveMemoCap;
    auto fRotBits = std::bit_cast<std::uint64_t>(f_rot);
    std::uint64_t tag = pulse.shapeId << 8 | std::uint64_t{q} << 1;
    if (memoable && ordinal < driveMemo.size()) {
        const DriveMemo &m = driveMemo[ordinal];
        if (m.t0Ns == pulse.t0Ns && m.fRotBits == fRotBits &&
            (m.tag & ~std::uint64_t{1}) == tag) {
            ++memoHits;
            if (!(m.tag & 1))
                rho.apply1(q, Mat2{Complex{m.c, 0}, m.u01, m.u10,
                                   Complex{m.c, 0}});
            advanceAtLeast(pulse.t0Ns + dur);
            return;
        }
    }

    // Demodulate the complex baseband against the qubit's rotating
    // frame.
    double dt_ns = 1e9 / pulse.i.rateHz();
    // Incremental phasor over the uniform sample grid: one complex
    // multiply per sample instead of a sincos. The frame rotates at
    // -f_rot relative to the baseband samples.
    signal::Phasor ph = signal::gridPhasor(
        -f_rot, static_cast<double>(pulse.t0Ns), dt_ns);
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t k = 0; k < pulse.i.size(); ++k) {
        acc += std::complex<double>{pulse.i[k], pulse.q[k]} * ph.value();
        ph.advance();
    }
    acc *= dt_ns;

    double theta = p.rabiRadPerAmpNs * std::abs(acc);
    bool identity = !(theta > 1e-12);
    Mat2 u{};
    if (!identity) {
        double phi = std::arg(acc);
        u = gates::raxis(phi, theta);
        rho.apply1(q, u);
    }
    if (memoable) {
        if (ordinal >= driveMemo.size())
            driveMemo.resize(ordinal + 1);
        driveMemo[ordinal] = {pulse.t0Ns, fRotBits,
                              tag | (identity ? 1u : 0u), u[0].real(),
                              u[1], u[2]};
    }
    advanceAtLeast(pulse.t0Ns + dur);
}

void
TransmonChip::applyCz(unsigned a, unsigned b, TimeNs t0_ns,
                      TimeNs duration_ns)
{
    quma_assert(a < params.size() && b < params.size() && a != b,
                "bad CZ operands");
    advanceAtLeast(t0_ns + duration_ns / 2);
    // CZ is diagonal: an O(n^2) sign sweep, not a 4x4 conjugation.
    rho.applyCzPhase(a, b);
    advanceAtLeast(t0_ns + duration_ns);
}

template <class Synthesize>
auto
TransmonChip::measureWith(unsigned q, TimeNs t0_ns, TimeNs duration_ns,
                          Synthesize synthesize)
{
    quma_assert(q < params.size(), "qubit index out of range");
    if (t0_ns < busyUntilNs[q])
        fatal("overlapping readout on qubit ", q, ": window at ", t0_ns,
              " ns starts before the previous one ends (",
              busyUntilNs[q], " ns)");
    advanceAtLeast(t0_ns);

    double p1 = rho.probabilityOne(q);
    bool outcome = random.bernoulli(std::clamp(p1, 0.0, 1.0));
    rho.project(q, outcome);

    const TransmonParams &p = params[q];
    auto readout = synthesize(p, outcome);

    // The measured qubit's state at the end of the window is decided
    // by the sampled readout (T1 decay included); decoherence inside
    // the window is suppressed via busyUntilNs so it is not applied
    // twice. Other qubits idle normally as time advances.
    if (readout.initialOne && !readout.finalOne)
        rho.resetQubit(q);
    busyUntilNs[q] = t0_ns + duration_ns;

    // Quasi-static noise decorrelates between shots: redraw the slow
    // frequency offset after each readout (measurements delimit
    // experiment shots in a continuous run).
    double sigma = p.quasiStaticDetuningSigmaHz;
    if (sigma > 0)
        roundDetuningHz[q] = random.gaussian(0.0, sigma);
    return readout;
}

ReadoutTrace
TransmonChip::measure(unsigned q, TimeNs t0_ns, TimeNs duration_ns)
{
    return measureWith(q, t0_ns, duration_ns,
                       [&](const TransmonParams &p, bool outcome) {
                           return simulateReadout(p.readout, outcome,
                                                  duration_ns, p.t1Ns,
                                                  random, &noiseScratch);
                       });
}

ReadoutIntegral
TransmonChip::measureIntegrated(unsigned q, TimeNs t0_ns,
                                TimeNs duration_ns,
                                const std::vector<double> &weights)
{
    return measureWith(q, t0_ns, duration_ns,
                       [&](const TransmonParams &p, bool outcome) {
                           ReadoutTone &tone = readoutTones[q];
                           if (tone.level0.size() < weights.size())
                               tone = readoutTone(p.readout,
                                                  weights.size());
                           return integrateReadout(p.readout, tone,
                                                   outcome, duration_ns,
                                                   p.t1Ns, random,
                                                   weights, noiseScratch);
                       });
}

double
TransmonChip::probabilityOne(unsigned q) const
{
    return rho.probabilityOne(q);
}

double
standardRabiGain(double pulse_ns)
{
    signal::Envelope env = signal::Envelope::gaussian(pulse_ns, 1.0);
    double area = env.area();
    quma_assert(area > 0, "degenerate calibration envelope");
    return std::numbers::pi / area;
}

TransmonParams
paperQubitParams()
{
    TransmonParams p;
    p.freqHz = 6.466e9;
    p.resonatorHz = 6.850e9;
    p.t1Ns = 30000.0;
    p.t2Ns = 25000.0;
    p.quasiStaticDetuningSigmaHz = 0.0;
    p.rabiRadPerAmpNs = standardRabiGain();
    p.readout.c0 = {30.0, 0.0};
    p.readout.c1 = {-30.0, 0.0};
    p.readout.noiseSigma = 150.0;
    p.readout.ifHz = 40.0e6;
    return p;
}

} // namespace quma::qsim
