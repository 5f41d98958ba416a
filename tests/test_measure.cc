/**
 * @file
 * Unit tests for the measurement subsystem: MDU calibration and
 * discrimination, trigger/trace ordering, the fused readout path
 * against the trace path, the digital output unit, and the data
 * collection unit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numbers>
#include <optional>

#include "common/logging.hh"
#include "measure/datacollector.hh"
#include "measure/digitaloutput.hh"
#include "measure/mdu.hh"
#include "qsim/gates.hh"
#include "qsim/transmon.hh"

namespace quma::measure {
namespace {

qsim::ReadoutParams
cleanReadout()
{
    qsim::ReadoutParams rp;
    rp.c0 = {30.0, 0.0};
    rp.c1 = {-30.0, 0.0};
    rp.noiseSigma = 0.0;
    return rp;
}

// -------------------------------------------------------------------- MDU

TEST(MduCalibration, SeparatesStates)
{
    auto cal = calibrateMdu(cleanReadout(), 1500);
    EXPECT_LT(cal.s0, cal.threshold);
    EXPECT_GT(cal.s1, cal.threshold);
    EXPECT_GT(cal.s1 - cal.s0, 0.0);
}

TEST(MduCalibration, RejectsTinyWindow)
{
    setLogQuiet(true);
    EXPECT_THROW(calibrateMdu(cleanReadout(), 1), quma::FatalError);
    setLogQuiet(false);
}

TEST(Mdu, DiscriminatesNoiselessTraces)
{
    auto rp = cleanReadout();
    Mdu mdu(calibrateMdu(rp, 1500));
    Rng rng(1);
    auto t0 = qsim::simulateReadout(rp, false, 1500, 1e12, rng);
    auto t1 = qsim::simulateReadout(rp, true, 1500, 1e12, rng);
    EXPECT_FALSE(mdu.integrate(t0.trace).second);
    EXPECT_TRUE(mdu.integrate(t1.trace).second);
}

TEST(Mdu, HighNoiseStillMostlyCorrect)
{
    auto rp = cleanReadout();
    rp.noiseSigma = 150.0;
    Mdu mdu(calibrateMdu(rp, 1500));
    Rng rng(7);
    int correct = 0;
    const int shots = 400;
    for (int s = 0; s < shots; ++s) {
        bool one = s % 2 == 1;
        auto t = qsim::simulateReadout(rp, one, 1500, 1e12, rng);
        correct += mdu.integrate(t.trace).second == one;
    }
    EXPECT_GT(correct, shots * 90 / 100);
}

TEST(Mdu, TraceThenTriggerCompletesAfterLatency)
{
    auto rp = cleanReadout();
    Mdu mdu(calibrateMdu(rp, 1500), /*latency=*/100);
    Rng rng(1);
    std::vector<MduResult> results;
    mdu.setResultSink(
        [&](const MduResult &r) { results.push_back(r); });

    auto t = qsim::simulateReadout(rp, true, 1500, 1e12, rng);
    mdu.submitTrace(t.trace, /*td=*/1000, /*duration=*/300);
    EXPECT_TRUE(mdu.hasPendingTrace());
    mdu.discriminate(1000, 7, 0x1);
    ASSERT_TRUE(mdu.nextEventCycle().has_value());
    // Window [1000, 1300] plus 100 cycles of latency.
    EXPECT_EQ(*mdu.nextEventCycle(), 1400u);
    mdu.advanceTo(1399);
    EXPECT_TRUE(results.empty());
    mdu.advanceTo(1400);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].bit);
    EXPECT_EQ(results[0].destReg, 7);
    EXPECT_EQ(results[0].completionCycle, 1400u);
}

TEST(Mdu, TriggerBeforeTraceArms)
{
    auto rp = cleanReadout();
    Mdu mdu(calibrateMdu(rp, 1500), 100);
    Rng rng(1);
    std::vector<MduResult> results;
    mdu.setResultSink(
        [&](const MduResult &r) { results.push_back(r); });

    mdu.discriminate(1000, 5, 0x1);
    EXPECT_TRUE(mdu.armed());
    auto t = qsim::simulateReadout(rp, false, 1500, 1e12, rng);
    mdu.submitTrace(t.trace, 1018, 300);
    EXPECT_FALSE(mdu.armed());
    // Window ends at 1318, plus latency.
    EXPECT_EQ(*mdu.nextEventCycle(), 1418u);
    mdu.advanceTo(2000);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].bit);
}

TEST(Mdu, DoubleTriggerIsFatal)
{
    setLogQuiet(true);
    Mdu mdu(calibrateMdu(cleanReadout(), 1500), 100);
    mdu.discriminate(0, 1, 0x1);
    EXPECT_THROW(mdu.discriminate(5, 1, 0x1), quma::FatalError);
    setLogQuiet(false);
}

TEST(Mdu, DoubleTraceIsFatal)
{
    setLogQuiet(true);
    auto rp = cleanReadout();
    Mdu mdu(calibrateMdu(rp, 1500), 100);
    Rng rng(1);
    auto t = qsim::simulateReadout(rp, false, 1500, 1e12, rng);
    mdu.submitTrace(t.trace, 0, 300);
    EXPECT_THROW(mdu.submitTrace(t.trace, 400, 300),
                 quma::FatalError);
    setLogQuiet(false);
}

TEST(Mdu, SubmitIntegralMatchesSubmitTrace)
{
    auto rp = cleanReadout();
    rp.noiseSigma = 20.0;
    Rng rng(0x51);
    auto t = qsim::simulateReadout(rp, true, 1500, 1e12, rng);
    Mdu viaTrace(calibrateMdu(rp, 1500));
    Mdu viaIntegral(calibrateMdu(rp, 1500));
    std::optional<MduResult> a, b;
    viaTrace.setResultSink([&](const MduResult &r) { a = r; });
    viaIntegral.setResultSink([&](const MduResult &r) { b = r; });
    viaTrace.submitTrace(t.trace, 1000, 300);
    viaIntegral.submitIntegral(viaIntegral.integrate(t.trace).first, 1000,
                               300);
    EXPECT_TRUE(viaIntegral.hasPendingTrace());
    viaTrace.discriminate(1000, 7, 1);
    viaIntegral.discriminate(1000, 7, 1);
    viaTrace.advanceTo(2000);
    viaIntegral.advanceTo(2000);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->s, b->s);
    EXPECT_EQ(a->bit, b->bit);
    EXPECT_EQ(a->completionCycle, b->completionCycle);
}

// --------------------------------------------------------- fused readout

/**
 * Drive two identically seeded chips through the same readouts, one
 * via measure() + Mdu::integrate and one via measureIntegrated().
 * After every shot S must match bit for bit, along with the ground
 * truth, the qubit state and the chip's RNG state. Each round
 * rotates the qubit by `theta` about x and reads it out, twice, with
 * an idle gap between the windows.
 */
struct FusedRun
{
    int shots = 0;
    int ones = 0;
    int decays = 0;
};

FusedRun
compareFusedReadout(const qsim::TransmonParams &qp, double theta,
                    TimeNs window_ns, TimeNs cal_window_ns, int rounds)
{
    qsim::TransmonChip traced({qp}, 0xfeed), fused({qp}, 0xfeed);
    Mdu mdu(calibrateMdu(qp.readout, cal_window_ns));
    const std::vector<double> &weights = mdu.calibration().weights;
    FusedRun run;
    for (int round = 0; round < rounds; ++round) {
        traced.newRound();
        fused.newRound();
        TimeNs t0 = 100;
        for (int readout = 0; readout < 2; ++readout) {
            traced.state().apply1(0, qsim::gates::rx(theta));
            fused.state().apply1(0, qsim::gates::rx(theta));
            auto tr = traced.measure(0, t0, window_ns);
            auto fr = fused.measureIntegrated(0, t0, window_ns, weights);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(fr.s),
                      std::bit_cast<std::uint64_t>(
                          mdu.integrate(tr.trace).first))
                << "round " << round << " readout " << readout;
            EXPECT_EQ(fr.initialOne, tr.initialOne);
            EXPECT_EQ(fr.finalOne, tr.finalOne);
            EXPECT_EQ(fr.decayAtNs, tr.decayAtNs);
            EXPECT_EQ(fused.probabilityOne(0), traced.probabilityOne(0));
            EXPECT_TRUE(fused.rng() == traced.rng());
            ++run.shots;
            run.ones += fr.initialOne;
            run.decays += fr.decayAtNs >= 0;
            t0 += window_ns + 2000;
        }
    }
    return run;
}

TEST(FusedReadout, MatchesTracePathFromZeroAndOne)
{
    auto qp = qsim::paperQubitParams();
    FusedRun zero = compareFusedReadout(qp, 0.0, 1500, 1500, 10);
    EXPECT_EQ(zero.ones, 0);
    FusedRun one =
        compareFusedReadout(qp, std::numbers::pi, 1500, 1500, 10);
    EXPECT_GT(one.ones, 0);
    FusedRun mixed =
        compareFusedReadout(qp, std::numbers::pi / 2, 1500, 1500, 20);
    EXPECT_GT(mixed.ones, 0);
    EXPECT_LT(mixed.ones, mixed.shots);
}

TEST(FusedReadout, MatchesTracePathWithDecayInWindow)
{
    auto qp = qsim::paperQubitParams();
    qp.t1Ns = 800.0;
    qp.t2Ns = 800.0;
    FusedRun run =
        compareFusedReadout(qp, std::numbers::pi, 1500, 1500, 20);
    EXPECT_GT(run.decays, 0);
    EXPECT_LT(run.decays, run.ones);
}

TEST(FusedReadout, MatchesTracePathForWindowsShorterAndLongerThanWeights)
{
    auto qp = qsim::paperQubitParams();
    // 300 weights against windows of 200 and 500 samples.
    compareFusedReadout(qp, std::numbers::pi / 2, 1000, 1500, 10);
    compareFusedReadout(qp, std::numbers::pi / 2, 2500, 1500, 10);
}

TEST(FusedReadout, MatchesTracePathWithQuasiStaticDetuning)
{
    auto qp = qsim::paperQubitParams();
    qp.quasiStaticDetuningSigmaHz = 2.0e6;
    FusedRun run =
        compareFusedReadout(qp, std::numbers::pi / 2, 1500, 1500, 20);
    EXPECT_GT(run.ones, 0);
}

// --------------------------------------------------------- digital output

TEST(DigitalOutput, RaisesMarkersForMask)
{
    DigitalOutputUnit dig(8, 6.849e9);
    std::vector<std::pair<unsigned, signal::MeasurementPulse>> pulses;
    dig.setPulseSink([&](unsigned q, const signal::MeasurementPulse &p) {
        pulses.emplace_back(q, p);
    });
    dig.fire(0b101, 100, 300);
    dig.advanceTo(100);
    ASSERT_EQ(pulses.size(), 2u);
    EXPECT_EQ(pulses[0].first, 0u);
    EXPECT_EQ(pulses[1].first, 2u);
    EXPECT_EQ(pulses[0].second.t0Ns, 500);
    EXPECT_EQ(pulses[0].second.durationNs, 1500);
    ASSERT_EQ(dig.markers().size(), 2u);
    EXPECT_EQ(dig.markers()[0],
              (MarkerWindow{0, 100, 300}));
}

TEST(DigitalOutput, DeliveryIsScheduled)
{
    DigitalOutputUnit dig;
    int delivered = 0;
    dig.setPulseSink(
        [&](unsigned, const signal::MeasurementPulse &) {
            ++delivered;
        });
    dig.fire(0x1, 500, 300);
    EXPECT_EQ(*dig.nextEventCycle(), 500u);
    dig.advanceTo(499);
    EXPECT_EQ(delivered, 0);
    dig.advanceTo(500);
    EXPECT_EQ(delivered, 1);
    EXPECT_FALSE(dig.nextEventCycle().has_value());
}

TEST(DigitalOutput, RejectsZeroDuration)
{
    setLogQuiet(true);
    DigitalOutputUnit dig;
    EXPECT_THROW(dig.fire(0x1, 0, 0), quma::FatalError);
    setLogQuiet(false);
}

// ---------------------------------------------------------- data collector

TEST(DataCollector, RoundRobinBinning)
{
    DataCollectionUnit dcu;
    dcu.configure(3);
    // Two rounds: bins get (1,4), (2,5), (3,6).
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0})
        dcu.addSample(v);
    EXPECT_EQ(dcu.completedRounds(), 2u);
    auto avg = dcu.averages();
    ASSERT_EQ(avg.size(), 3u);
    EXPECT_DOUBLE_EQ(avg[0], 2.5);
    EXPECT_DOUBLE_EQ(avg[1], 3.5);
    EXPECT_DOUBLE_EQ(avg[2], 4.5);
}

TEST(DataCollector, PartialRound)
{
    DataCollectionUnit dcu;
    dcu.configure(2);
    dcu.addSample(10.0);
    dcu.addSample(20.0);
    dcu.addSample(30.0);
    auto avg = dcu.averages();
    EXPECT_DOUBLE_EQ(avg[0], 20.0);
    EXPECT_DOUBLE_EQ(avg[1], 20.0);
    EXPECT_EQ(dcu.completedRounds(), 1u);
}

TEST(DataCollector, BitAverages)
{
    DataCollectionUnit dcu;
    dcu.configure(2);
    dcu.addBit(true);
    dcu.addBit(false);
    dcu.addBit(true);
    dcu.addBit(false);
    auto avg = dcu.bitAverages();
    EXPECT_DOUBLE_EQ(avg[0], 1.0);
    EXPECT_DOUBLE_EQ(avg[1], 0.0);
}

TEST(DataCollector, UnconfiguredIsFatal)
{
    setLogQuiet(true);
    DataCollectionUnit dcu;
    EXPECT_THROW(dcu.addSample(1.0), quma::PanicError);
    setLogQuiet(false);
}

} // namespace
} // namespace quma::measure
