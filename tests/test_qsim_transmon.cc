/**
 * @file
 * Unit tests for the pulse-level transmon model: drive calibration,
 * the timing-sets-the-axis property (paper §4.2.3), detuning,
 * decoherence and readout; and the repeated-round drive memo, checked
 * bit for bit against unmemoised chips.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <numbers>

#include "awg/calibration.hh"
#include "common/logging.hh"
#include "qsim/transmon.hh"
#include "quma/machine.hh"
#include "signal/envelope.hh"
#include "signal/modulation.hh"

namespace quma::qsim {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kSsb = -50.0e6;

TransmonParams
quietParams()
{
    TransmonParams p = paperQubitParams();
    p.t1Ns = 1e9; // effectively no decoherence
    p.t2Ns = 1e9;
    p.readout.noiseSigma = 0.0;
    return p;
}

/** Build a calibrated drive pulse for angle theta at phase phi. */
signal::DrivePulse
makePulse(const TransmonParams &p, double theta, double phi,
          TimeNs t0_ns)
{
    double gain = p.rabiRadPerAmpNs;
    signal::Envelope unit = signal::Envelope::gaussian(20.0, 1.0);
    double amp = theta / (gain * unit.area());
    signal::Envelope env = signal::Envelope::gaussian(20.0, amp);
    signal::Waveform base(env.sample(1e9), 1e9);
    auto [i, q] = signal::ssbModulate(base, kSsb, 0.0, phi);
    signal::DrivePulse pulse;
    pulse.t0Ns = t0_ns;
    pulse.i = i;
    pulse.q = q;
    pulse.ssbHz = kSsb;
    pulse.carrierHz = p.freqHz - kSsb;
    return pulse;
}

TEST(Transmon, CalibratedPiPulseExcites)
{
    TransmonChip chip({quietParams()}, 1);
    chip.applyDrive(0, makePulse(chip.qubitParams(0), kPi, 0.0, 0));
    EXPECT_NEAR(chip.probabilityOne(0), 1.0, 1e-3);
}

TEST(Transmon, HalfPiPulseReachesEquator)
{
    TransmonChip chip({quietParams()}, 1);
    chip.applyDrive(0, makePulse(chip.qubitParams(0), kPi / 2, 0.0, 0));
    EXPECT_NEAR(chip.probabilityOne(0), 0.5, 1e-3);
}

TEST(Transmon, TwoPiPulsesReturnToGround)
{
    TransmonChip chip({quietParams()}, 1);
    auto p = chip.qubitParams(0);
    chip.applyDrive(0, makePulse(p, kPi, 0.0, 0));
    chip.applyDrive(0, makePulse(p, kPi, 0.0, 20));
    EXPECT_NEAR(chip.probabilityOne(0), 0.0, 1e-3);
}

TEST(Transmon, PulsesAtTwentyNsGridKeepAxis)
{
    // With -50 MHz SSB, the carrier phase repeats every 20 ns, so
    // X90 followed by X90 20 ns later adds up to a pi rotation.
    TransmonChip chip({quietParams()}, 1);
    auto p = chip.qubitParams(0);
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 20));
    EXPECT_NEAR(chip.probabilityOne(0), 1.0, 1e-3);
}

TEST(Transmon, FiveNsShiftTurnsXIntoY)
{
    // THE paper property (§4.2.3): with 50 MHz SSB, playing the x
    // envelope 5 ns late rotates the axis by 90 degrees. An X90 at
    // t=0 followed by a shifted "X90" at t+5ns-grid behaves like a
    // y rotation: starting from |0>, X90 then Y90 leaves the qubit
    // on the equator rather than completing the flip.
    TransmonChip onGrid({quietParams()}, 1);
    auto p = onGrid.qubitParams(0);
    onGrid.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    onGrid.applyDrive(0, makePulse(p, kPi / 2, 0.0, 20));
    EXPECT_NEAR(onGrid.probabilityOne(0), 1.0, 1e-3);

    TransmonChip shifted({quietParams()}, 1);
    shifted.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    shifted.applyDrive(0, makePulse(p, kPi / 2, 0.0, 25));
    // X90 then (axis-shifted) Y90: P1 stays at 1/2.
    EXPECT_NEAR(shifted.probabilityOne(0), 0.5, 1e-3);
}

TEST(Transmon, TenNsShiftInvertsAxis)
{
    // 10 ns shift = 180 degrees: the second pulse undoes the first.
    TransmonChip chip({quietParams()}, 1);
    auto p = chip.qubitParams(0);
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 30));
    EXPECT_NEAR(chip.probabilityOne(0), 0.0, 1e-3);
}

TEST(Transmon, EnvelopePhaseSelectsAxis)
{
    // X90 then Y90 via envelope phase: equator either way.
    TransmonChip chip({quietParams()}, 1);
    auto p = chip.qubitParams(0);
    chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
    chip.applyDrive(0, makePulse(p, kPi / 2, kPi / 2, 20));
    EXPECT_NEAR(chip.probabilityOne(0), 0.5, 1e-3);
}

TEST(Transmon, DetunedDriveRotatesLess)
{
    TransmonParams p = quietParams();
    TransmonChip resonant({p}, 1);
    resonant.applyDrive(0, makePulse(p, kPi, 0.0, 0));

    TransmonParams detunedParams = quietParams();
    detunedParams.freqHz += 30.0e6; // pulse stays at the old carrier
    TransmonChip detuned({detunedParams}, 1);
    auto pulse = makePulse(p, kPi, 0.0, 0);
    detuned.applyDrive(0, pulse);
    EXPECT_GT(resonant.probabilityOne(0),
              detuned.probabilityOne(0) + 0.05);
}

TEST(Transmon, IdleDecayFollowsT1)
{
    TransmonParams p = quietParams();
    p.t1Ns = 30000.0;
    p.t2Ns = 25000.0;
    TransmonChip chip({p}, 1);
    chip.applyDrive(0, makePulse(p, kPi, 0.0, 0));
    double p1 = chip.probabilityOne(0);
    chip.advanceTo(30020);
    EXPECT_NEAR(chip.probabilityOne(0), p1 * std::exp(-30000.0 / 30000.0),
                1e-3);
}

TEST(Transmon, AdvanceBackwardsIsFatal)
{
    setLogQuiet(true);
    TransmonChip chip({quietParams()}, 1);
    chip.advanceTo(100);
    EXPECT_THROW(chip.advanceTo(50), quma::FatalError);
    EXPECT_NO_THROW(chip.advanceAtLeast(50));
    setLogQuiet(false);
}

TEST(Transmon, MeasureCollapsesAndReportsTruth)
{
    TransmonChip chip({quietParams()}, 7);
    chip.applyDrive(0, makePulse(chip.qubitParams(0), kPi, 0.0, 0));
    auto trace = chip.measure(0, 100, 1500);
    EXPECT_TRUE(trace.initialOne);
    EXPECT_NEAR(chip.probabilityOne(0), trace.finalOne ? 1.0 : 0.0,
                1e-9);
}

TEST(Transmon, MeasureStatisticsFollowBornRule)
{
    TransmonParams p = quietParams();
    int ones = 0;
    const int shots = 2000;
    for (int s = 0; s < shots; ++s) {
        TransmonChip chip({p}, 1000 + s);
        chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
        ones += chip.measure(0, 100, 1500).initialOne;
    }
    EXPECT_NEAR(ones / static_cast<double>(shots), 0.5, 0.04);
}

TEST(Transmon, OverlappingReadoutIsFatal)
{
    setLogQuiet(true);
    TransmonChip chip({quietParams()}, 1);
    chip.measure(0, 0, 1500);
    EXPECT_THROW(chip.measure(0, 1000, 1500), quma::FatalError);
    setLogQuiet(false);
}

TEST(Transmon, DecayDuringReadoutResetsState)
{
    // With T1 much shorter than the readout window the excited state
    // nearly always decays inside the window and ends in |0>.
    TransmonParams p = quietParams();
    p.t1Ns = 100.0;
    p.t2Ns = 150.0;
    TransmonChip chip({p}, 99);
    chip.state().apply1(0, gates::pauliX());
    auto trace = chip.measure(0, 0, 5000);
    EXPECT_TRUE(trace.initialOne);
    EXPECT_FALSE(trace.finalOne);
    EXPECT_NEAR(chip.probabilityOne(0), 0.0, 1e-9);
    EXPECT_GE(trace.decayAtNs, 0.0);
}

TEST(Transmon, NewRoundResetsStateAndClock)
{
    TransmonChip chip({quietParams()}, 1);
    chip.applyDrive(0, makePulse(chip.qubitParams(0), kPi, 0.0, 0));
    chip.newRound();
    EXPECT_EQ(chip.now(), 0);
    EXPECT_NEAR(chip.probabilityOne(0), 0.0, 1e-12);
}

TEST(Transmon, QuasiStaticDetuningDephasesRamsey)
{
    // Chip-level Ramsey: with sigma > 0 the averaged equator phase
    // randomises and the fringe contrast at fixed tau collapses.
    auto ramsey = [](double sigma_hz, TimeNs tau) {
        TransmonParams p = quietParams();
        p.quasiStaticDetuningSigmaHz = sigma_hz;
        double acc = 0;
        const int shots = 400;
        for (int s = 0; s < shots; ++s) {
            TransmonChip chip({p}, 5000 + s);
            chip.newRound();
            chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 0));
            chip.advanceTo(20 + tau);
            chip.applyDrive(0, makePulse(p, kPi / 2, 0.0, 20 + tau));
            acc += chip.probabilityOne(0);
        }
        return acc / shots;
    };
    // tau on the 20 ns grid so the drive phase is unshifted.
    EXPECT_NEAR(ramsey(0.0, 2000), 1.0, 0.05);
    EXPECT_NEAR(ramsey(400.0e3, 2000), 0.5, 0.12);
}

TEST(Readout, TraceSeparatesStates)
{
    ReadoutParams rp;
    rp.c0 = {30.0, 0.0};
    rp.c1 = {-30.0, 0.0};
    rp.noiseSigma = 0.0;
    Rng rng(1);
    auto t0 = simulateReadout(rp, false, 1500, 1e9, rng);
    auto t1 = simulateReadout(rp, true, 1500, 1e9, rng);
    auto z0 = signal::demodulate(t0.trace, rp.ifHz);
    auto z1 = signal::demodulate(t1.trace, rp.ifHz);
    EXPECT_NEAR(z0.real(), 30.0, 1.0);
    EXPECT_NEAR(z1.real(), -30.0, 1.0);
}

TEST(Readout, TraceLengthMatchesAdcRate)
{
    ReadoutParams rp;
    Rng rng(1);
    auto t = simulateReadout(rp, false, 1500, 1e9, rng);
    EXPECT_EQ(t.trace.size(), 300u); // 1500 ns at 200 MSa/s
}

// ------------------------------------------------- repeated-round memo

/** One drive of a round: which qubit, which shape, when. */
struct Drive
{
    unsigned qubit;
    unsigned shape;
    TimeNs t0;
};

using Round = std::vector<Drive>;

/**
 * Two qubits with decoherence, so the idle memo is exercised too. They
 * share a frequency (so a pulse gets one f_rot on both) but not a
 * Rabi gain: only the qubit in the key tells their drives apart.
 */
std::vector<TransmonParams>
memoQubits(double sigma_hz = 0.0)
{
    TransmonParams a = paperQubitParams();
    TransmonParams b = paperQubitParams();
    b.rabiRadPerAmpNs = 0.8 * a.rabiRadPerAmpNs;
    b.t1Ns = 20000.0;
    b.t2Ns = 15000.0;
    a.quasiStaticDetuningSigmaHz = b.quasiStaticDetuningSigmaHz = sigma_hz;
    return {a, b};
}

/**
 * X180, X90, Y90 and a zero-amplitude pulse (the identity path) with
 * the nonzero shapeIds a CTPG would stamp on them.
 */
std::vector<signal::DrivePulse>
memoShapes(const TransmonParams &p)
{
    std::vector<signal::DrivePulse> shapes = {
        makePulse(p, kPi, 0.0, 0), makePulse(p, kPi / 2, 0.0, 0),
        makePulse(p, kPi / 2, kPi / 2, 0), makePulse(p, 0.0, 0.0, 0)};
    for (std::size_t k = 0; k < shapes.size(); ++k)
        shapes[k].shapeId = 1000 + k;
    return shapes;
}

/** A gate train on both qubits, 20 ns apart, every shape used. */
Round
baseRound(unsigned drives = 24)
{
    Round r;
    for (unsigned k = 0; k < drives; ++k)
        r.push_back({k % 3 == 2 ? 1u : 0u, k % 4,
                     static_cast<TimeNs>(100 + 20 * k)});
    return r;
}

void
expectSameBits(const DensityMatrix &got, const DensityMatrix &want,
               std::size_t round)
{
    for (std::size_t r = 0; r < got.dim(); ++r) {
        for (std::size_t c = 0; c < got.dim(); ++c) {
            Complex g = got.element(r, c), w = want.element(r, c);
            if (std::bit_cast<std::uint64_t>(g.real()) !=
                    std::bit_cast<std::uint64_t>(w.real()) ||
                std::bit_cast<std::uint64_t>(g.imag()) !=
                    std::bit_cast<std::uint64_t>(w.imag())) {
                ADD_FAILURE() << "round " << round << ": rho(" << r
                              << ", " << c << ") = " << g
                              << ", reference " << w;
                return;
            }
        }
    }
}

/**
 * Play `rounds` on a chip fed the shapes with their shapeIds and on a
 * reference chip fed the same pulses with shapeId 0 (never
 * memoised). Every round starts like a runtime round (reseed, then
 * newRound) and ends with a readout of qubit 0; rho must agree bit
 * for bit at the end of every round. Returns the memo's hits.
 */
std::size_t
expectMemoMatchesReference(const std::vector<TransmonParams> &qubits,
                           const std::vector<Round> &rounds)
{
    TransmonChip memo(qubits), ref(qubits);
    std::vector<signal::DrivePulse> shapes = memoShapes(qubits[0]);
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        for (TransmonChip *chip : {&memo, &ref}) {
            chip->reseed(77 + r);
            chip->newRound();
        }
        TimeNs end = 0;
        for (const Drive &d : rounds[r]) {
            signal::DrivePulse pulse = shapes[d.shape];
            pulse.t0Ns = d.t0;
            memo.applyDrive(d.qubit, pulse);
            pulse.shapeId = 0;
            ref.applyDrive(d.qubit, pulse);
            end = std::max(end, d.t0 + 20);
        }
        auto a = memo.measure(0, end + 10, 1500);
        auto b = ref.measure(0, end + 10, 1500);
        EXPECT_EQ(a.initialOne, b.initialOne);
        expectSameBits(memo.state(), ref.state(), r);
    }
    EXPECT_EQ(ref.driveMemoHits(), 0u);
    return memo.driveMemoHits();
}

TEST(DriveMemo, RepeatedRoundsHitAndStayBitIdentical)
{
    Round r = baseRound();
    EXPECT_EQ(expectMemoMatchesReference(memoQubits(), {r, r, r, r}),
              3 * r.size());
}

TEST(DriveMemo, RedrawnDetuningMissesEveryRound)
{
    // sigma > 0: every round draws a new frame offset, so no key
    // repeats (readouts redraw it mid-round as well).
    Round r = baseRound();
    EXPECT_EQ(expectMemoMatchesReference(memoQubits(400.0e3),
                                         {r, r, r, r}),
              0u);
}

TEST(DriveMemo, ShiftedStartTimesMiss)
{
    // The program's t0 values move by 5 ns from round 3 on: round 3
    // misses throughout and round 4 hits round 3's entries.
    Round base = baseRound(), shifted = base;
    for (Drive &d : shifted)
        d.t0 += 5;
    EXPECT_EQ(expectMemoMatchesReference(memoQubits(),
                                         {base, base, shifted, shifted}),
              2 * base.size());
}

TEST(DriveMemo, SwappedCodewordsAtOneOrdinalMiss)
{
    // Round 3 plays two different shapes in swapped order: those two
    // ordinals miss in round 3 and again in round 4, which swaps back.
    Round base = baseRound(), swapped = base;
    ASSERT_NE(swapped[4].shape, swapped[5].shape);
    std::swap(swapped[4].shape, swapped[5].shape);
    std::size_t n = base.size();
    EXPECT_EQ(expectMemoMatchesReference(memoQubits(),
                                         {base, base, swapped, base}),
              n + 2 * (n - 2));
}

TEST(DriveMemo, PulseAddressingTwoQubits)
{
    // One pulse on both qubits is two drives at one t0, told apart by
    // the qubit in the key. Round 3 addresses them in the other order.
    Round both, reversed;
    for (unsigned k = 0; k < 8; ++k) {
        auto t0 = static_cast<TimeNs>(100 + 20 * k);
        both.push_back({0, k % 3, t0});
        both.push_back({1, k % 3, t0});
        reversed.push_back({1, k % 3, t0});
        reversed.push_back({0, k % 3, t0});
    }
    EXPECT_EQ(expectMemoMatchesReference(memoQubits(),
                                         {both, both, reversed}),
              both.size());
}

TEST(DriveMemo, DrivesPastTheCapAreComputed)
{
    Round r = baseRound(
        static_cast<unsigned>(TransmonChip::kDriveMemoCap + 40));
    EXPECT_EQ(expectMemoMatchesReference(memoQubits(), {r, r}),
              TransmonChip::kDriveMemoCap);
}

TEST(DriveMemo, ReuploadedLutGetsNewShapes)
{
    // Re-uploading a different LUT must not replay the old shapes'
    // operators: the second run equals a fresh machine built with the
    // second LUT, bit for bit.
    auto lut2 = [](const awg::CalibrationParams &cp) {
        awg::CalibrationParams c = cp;
        c.amplitudeError = 0.05;
        return std::make_shared<const std::map<Codeword, awg::StoredPulse>>(
            awg::buildStandardLutEntries(c));
    };
    const char *src = R"(
        Wait 100
        Pulse {q0}, X90
        Wait 4
        Pulse {q0}, Y180
        Wait 4
        Pulse {q0}, X90
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        Wait 600
        halt
    )";
    core::MachineConfig cfg;
    core::QumaMachine reused(cfg);
    reused.uploadStandardCalibration();
    reused.loadAssembly(src);
    reused.run();
    std::size_t firstHits = reused.chip().driveMemoHits();

    reused.uploadStandardCalibration(lut2);
    reused.reset();
    reused.loadAssembly(src);
    reused.run();
    EXPECT_EQ(reused.chip().driveMemoHits(), firstHits);

    core::QumaMachine fresh(cfg);
    fresh.uploadStandardCalibration(lut2);
    fresh.loadAssembly(src);
    fresh.run();
    expectSameBits(reused.chip().state(), fresh.chip().state(), 1);
    EXPECT_EQ(reused.registers().read(7), fresh.registers().read(7));

    // A third run with the same LUT does replay the operators.
    reused.reset();
    reused.loadAssembly(src);
    reused.run();
    EXPECT_EQ(reused.chip().driveMemoHits(), firstHits + 3);
    expectSameBits(reused.chip().state(), fresh.chip().state(), 2);
}

} // namespace
} // namespace quma::qsim
