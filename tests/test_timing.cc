/**
 * @file
 * Unit tests for queue-based event timing control (paper §5.2):
 * exact label fire times, the implicit start label, hazard counting,
 * and the queue-state snapshots of paper Tables 2-4.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <random>

#include "common/logging.hh"
#include "timing/controller.hh"
#include "timing/next_due.hh"

namespace quma::timing {
namespace {

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, FifoAndCapacity)
{
    EventQueue<PulseEvent> q(2);
    EXPECT_TRUE(q.push({1, 0x1, 0}));
    EXPECT_TRUE(q.push({2, 0x1, 1}));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push({3, 0x1, 2}));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front().label, 1u);
}

TEST(EventQueue, SaturationCounters)
{
    EventQueue<PulseEvent> q(2);
    EXPECT_EQ(q.pushFailed(), 0u);
    EXPECT_EQ(q.highWaterMark(), 0u);
    q.push({1, 0x1, 0});
    EXPECT_EQ(q.highWaterMark(), 1u);
    q.push({2, 0x1, 1});
    EXPECT_EQ(q.highWaterMark(), 2u);
    EXPECT_FALSE(q.push({3, 0x1, 2}));
    EXPECT_FALSE(q.push({4, 0x1, 3}));
    EXPECT_EQ(q.pushFailed(), 2u);

    // Draining does not lower the high-water mark...
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(1, fired, stale);
    EXPECT_EQ(q.highWaterMark(), 2u);
    // ...and clearStats zeroes both without touching the contents.
    q.clearStats();
    EXPECT_EQ(q.pushFailed(), 0u);
    EXPECT_EQ(q.highWaterMark(), 0u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(TimingControllerStats, QueueStatsReportSaturation)
{
    TimingConfig cfg;
    cfg.pulseQueueCapacity = 2;
    cfg.numPulseQueues = 1;
    TimingController tcu(cfg);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {2, 0x1, 1});
    EXPECT_FALSE(tcu.pushPulse(0, {3, 0x1, 2}));

    TimingUnitStats stats = tcu.queueStats();
    ASSERT_EQ(stats.pulse.size(), 1u);
    EXPECT_EQ(stats.pulse[0].pushFailed, 1u);
    EXPECT_EQ(stats.pulse[0].highWater, 2u);
    EXPECT_EQ(stats.pulse[0].capacity, 2u);
    EXPECT_EQ(stats.totalPushFailed(), 1u);

    // reset() rewinds the counters with everything else.
    tcu.reset();
    EXPECT_EQ(tcu.queueStats().totalPushFailed(), 0u);
    EXPECT_EQ(tcu.queueStats().pulse[0].highWater, 0u);
}

TEST(EventQueue, PopMatchingTakesAllFrontMatches)
{
    EventQueue<PulseEvent> q(8);
    q.push({1, 0x1, 0});
    q.push({1, 0x2, 1});
    q.push({2, 0x1, 2});
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(1, fired, stale);
    EXPECT_EQ(fired.size(), 2u);
    EXPECT_EQ(stale, 0u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopMatchingDropsStale)
{
    EventQueue<PulseEvent> q(8);
    q.push({1, 0x1, 0});
    q.push({3, 0x1, 1});
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(3, fired, stale);
    EXPECT_EQ(stale, 1u);
    EXPECT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].label, 3u);
    // The drop is also counted on the queue itself, so stats paths
    // that never see the out-param still observe it.
    EXPECT_EQ(q.staleDropped(), 1u);
    q.clearStats();
    EXPECT_EQ(q.staleDropped(), 0u);
}

TEST(EventQueue, PopMatchingDropsAWholeStaleRunAtOnce)
{
    // Three orphans for labels that already passed, then the live
    // run, then a future event: one pop clears the orphans, takes
    // the full matching run, and leaves the future event queued.
    EventQueue<PulseEvent> q(8);
    q.push({1, 0x1, 0});
    q.push({2, 0x1, 1});
    q.push({2, 0x2, 2});
    q.push({5, 0x1, 3});
    q.push({5, 0x2, 4});
    q.push({9, 0x1, 5});
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(5, fired, stale);
    EXPECT_EQ(stale, 3u);
    EXPECT_EQ(q.staleDropped(), 3u);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0].label, 5u);
    EXPECT_EQ(fired[1].label, 5u);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().label, 9u);
}

TEST(EventQueue, PopMatchingLeavesFutureEventsUntouched)
{
    // Nothing matches and nothing is stale: the pop must be a
    // complete no-op -- no fires, no drops, contents intact.
    EventQueue<PulseEvent> q(8);
    q.push({7, 0x1, 0});
    q.push({8, 0x1, 1});
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(3, fired, stale);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(stale, 0u);
    EXPECT_EQ(q.staleDropped(), 0u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front().label, 7u);
}

TEST(EventQueue, PopMatchingOnlyDropsStaleAheadOfTheMatch)
{
    // An out-of-order laggard BEHIND the matching run is not touched
    // by this pop -- stale dropping only clears the front run -- but
    // the NEXT pop retires it, and the counters accumulate across
    // both calls into the same out-param.
    EventQueue<PulseEvent> q(8);
    q.push({5, 0x1, 0});
    q.push({3, 0x1, 1}); // out of order: still behind label 5
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(5, fired, stale);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].label, 5u);
    EXPECT_EQ(stale, 0u);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().label, 3u);

    q.popMatching(6, fired, stale);
    EXPECT_EQ(fired.size(), 1u); // nothing new fired
    EXPECT_EQ(stale, 1u);        // ...but the laggard was retired
    EXPECT_EQ(q.staleDropped(), 1u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleDropCounterAccumulatesAcrossPops)
{
    EventQueue<PulseEvent> q(8);
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    for (TimingLabel label : {1u, 2u, 3u, 4u}) {
        q.push({label, 0x1, 0});
        q.popMatching(label + 1, fired, stale);
    }
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(stale, 4u);
    EXPECT_EQ(q.staleDropped(), 4u);
    // clearStats() resets the counter, not the queue's behaviour.
    q.clearStats();
    q.push({1, 0x1, 0});
    q.popMatching(2, fired, stale);
    EXPECT_EQ(q.staleDropped(), 1u);
}

TEST(EventQueue, FillPopAndPushAcrossTheWrapPoint)
{
    // Capacity 5: the ring's storage is exactly 5 slots, so pushes
    // after two pops land at the front of the storage.
    EventQueue<PulseEvent> q(5);
    for (TimingLabel l = 1; l <= 5; ++l)
        EXPECT_TRUE(q.push({l, 0x1, 0}));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push({6, 0x1, 0}));
    q.pop();
    q.pop();
    EXPECT_TRUE(q.push({6, 0x1, 0}));
    EXPECT_TRUE(q.push({7, 0x1, 0}));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push({8, 0x1, 0}));
    std::vector<TimingLabel> labels;
    for (const auto &ev : q.snapshot())
        labels.push_back(ev.label);
    EXPECT_EQ(labels, (std::vector<TimingLabel>{3, 4, 5, 6, 7}));
    // High water is occupancy, not storage; every rejected push
    // counts, on either side of the wrap.
    EXPECT_EQ(q.highWaterMark(), 5u);
    EXPECT_EQ(q.pushFailed(), 2u);
    for (TimingLabel l = 3; l <= 7; ++l) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.front().label, l);
        q.pop();
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, GrowsWhileWrappedAndKeepsFifoOrder)
{
    // Storage starts small and doubles: growing while the contents
    // wrap around the end must keep them in order.
    EventQueue<PulseEvent> q(100);
    TimingLabel next = 1;
    for (int i = 0; i < 12; ++i)
        q.push({next++, 0x1, 0});
    for (int i = 0; i < 10; ++i)
        q.pop();
    for (int i = 0; i < 40; ++i)
        q.push({next++, 0x1, 0});
    auto snap = q.snapshot();
    ASSERT_EQ(snap.size(), 42u);
    for (std::size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].label, 11 + i);
    EXPECT_EQ(q.highWaterMark(), 42u);
    // clear() keeps the storage and restarts at the front.
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push({1, 0x1, 0});
    EXPECT_EQ(q.front().label, 1u);
    EXPECT_EQ(q.capacity(), 100u);
}

TEST(EventQueue, PopMatchingDropsStaleAcrossTheWrapPoint)
{
    EventQueue<PulseEvent> q(4);
    for (TimingLabel l = 1; l <= 4; ++l)
        q.push({l, 0x1, 0});
    std::vector<PulseEvent> fired;
    std::size_t stale = 0;
    q.popMatching(3, fired, stale);
    EXPECT_EQ(stale, 2u);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].label, 3u);
    // 4 sits in the last slot; 5..7 wrap to the front of the storage.
    for (TimingLabel l = 5; l <= 7; ++l)
        EXPECT_TRUE(q.push({l, 0x1, 0}));
    EXPECT_TRUE(q.full());
    q.popMatching(6, fired, stale);
    EXPECT_EQ(stale, 4u);
    EXPECT_EQ(q.staleDropped(), 4u);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[1].label, 6u);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().label, 7u);
}

TEST(EventQueue, HugeCapacityIsNotReserved)
{
    // Capacities arrive unchecked from the wire; storage follows the
    // contents, not the configured bound.
    constexpr std::size_t kHuge = std::size_t{1} << 40;
    EventQueue<PulseEvent> q(kHuge);
    for (TimingLabel l = 1; l <= 3; ++l)
        EXPECT_TRUE(q.push({l, 0x1, 0}));
    EXPECT_EQ(q.capacity(), kHuge);
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.size(), 3u);
}

TEST(TimingControllerStats, QueueStatsReportStaleDrops)
{
    // A queued pulse for label 1, but no time point ever broadcasts
    // label 1: when label 2 fires, popMatching drops the orphan as
    // stale, and that drop must surface in the queue stats.
    TimingController tcu;
    tcu.start(0);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {2, 0x1, 0});
    tcu.pushTimePoint(10, 2);
    tcu.advanceTo(10);
    TimingUnitStats stats = tcu.queueStats();
    EXPECT_EQ(stats.totalStaleDropped(), 1u);
    EXPECT_EQ(stats.pulse[0].staleDropped, 1u);
    tcu.reset();
    EXPECT_EQ(tcu.queueStats().totalStaleDropped(), 0u);
}

// --------------------------------------------------------------- controller

struct FireLog
{
    std::vector<std::pair<Cycle, PulseEvent>> pulses;
    std::vector<std::pair<Cycle, MpgEvent>> mpgs;
    std::vector<std::pair<Cycle, MdEvent>> mds;

    void
    attach(TimingController &tcu)
    {
        tcu.setPulseSink([this](unsigned, Cycle td,
                                const PulseEvent &ev) {
            pulses.emplace_back(td, ev);
        });
        tcu.setMpgSink([this](Cycle td, const MpgEvent &ev) {
            mpgs.emplace_back(td, ev);
        });
        tcu.setMdSink([this](unsigned, Cycle td, const MdEvent &ev) {
            mds.emplace_back(td, ev);
        });
    }
};

TEST(TimingController, FiresAtExactCumulativeCycles)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);

    tcu.start(0);
    // Paper Figure 5 round 0: intervals 40000, 4, 4.
    tcu.pushTimePoint(40000, 1);
    tcu.pushTimePoint(4, 2);
    tcu.pushTimePoint(4, 3);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {2, 0x1, 0});
    tcu.pushMpg({3, 0x1, 300});
    tcu.pushMd(0, {3, 0x1, 7});

    tcu.advanceTo(39999);
    EXPECT_TRUE(log.pulses.empty());
    tcu.advanceTo(40000);
    ASSERT_EQ(log.pulses.size(), 1u);
    EXPECT_EQ(log.pulses[0].first, 40000u);
    tcu.advanceTo(40008);
    ASSERT_EQ(log.pulses.size(), 2u);
    EXPECT_EQ(log.pulses[1].first, 40004u);
    ASSERT_EQ(log.mpgs.size(), 1u);
    EXPECT_EQ(log.mpgs[0].first, 40008u);
    ASSERT_EQ(log.mds.size(), 1u);
    EXPECT_EQ(log.mds[0].first, 40008u);
    EXPECT_TRUE(tcu.violations().clean());
}

TEST(TimingController, ImplicitLabelZeroFiresAtStart)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.pushPulse(0, {0, 0x1, 5});
    tcu.start(100);
    ASSERT_EQ(log.pulses.size(), 1u);
    EXPECT_EQ(log.pulses[0].first, 100u);
    EXPECT_EQ(tcu.lastBroadcastLabel(), 0u);
}

TEST(TimingController, MultipleEventsSameLabel)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.start(0);
    tcu.pushTimePoint(10, 1);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {1, 0x2, 4});
    tcu.pushPulse(1, {1, 0x4, 5});
    tcu.advanceTo(10);
    EXPECT_EQ(log.pulses.size(), 3u);
}

TEST(TimingController, LatePointCountsViolation)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.start(0);
    tcu.advanceTo(100);
    // A wait of 30 cycles arriving when TD is already at 100: due at
    // 30, i.e. 70 cycles late.
    tcu.pushTimePoint(30, 1);
    EXPECT_EQ(tcu.violations().latePoints, 1u);
    EXPECT_EQ(tcu.violations().totalLateCycles, 70u);
    tcu.advanceTo(101);
    EXPECT_EQ(tcu.lastBroadcastLabel(), 1u);
}

TEST(TimingController, StaleEventCountsViolation)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.start(0);
    tcu.pushTimePoint(10, 1);
    tcu.advanceTo(10); // label 1 fired with no event waiting
    tcu.pushPulse(0, {1, 0x1, 0});
    EXPECT_EQ(tcu.violations().staleEvents, 1u);
    // The stale event was dropped, not queued.
    EXPECT_TRUE(tcu.pulseQueueSnapshot(0).empty());
}

TEST(TimingController, ChainedIntervalsAreRelative)
{
    TimingController tcu;
    FireLog log;
    log.attach(tcu);
    tcu.start(50);
    tcu.pushTimePoint(10, 1);
    tcu.pushTimePoint(20, 2);
    tcu.pushPulse(0, {1, 0x1, 0});
    tcu.pushPulse(0, {2, 0x1, 0});
    tcu.advanceTo(200);
    ASSERT_EQ(log.pulses.size(), 2u);
    EXPECT_EQ(log.pulses[0].first, 60u);
    EXPECT_EQ(log.pulses[1].first, 80u);
}

TEST(TimingController, QueueFullBackpressure)
{
    TimingConfig cfg;
    cfg.timingQueueCapacity = 2;
    TimingController tcu(cfg);
    tcu.start(0);
    EXPECT_TRUE(tcu.pushTimePoint(5, 1));
    EXPECT_TRUE(tcu.pushTimePoint(5, 2));
    EXPECT_TRUE(tcu.timingQueueFull());
    EXPECT_FALSE(tcu.pushTimePoint(5, 3));
    tcu.advanceTo(5);
    EXPECT_FALSE(tcu.timingQueueFull());
    EXPECT_TRUE(tcu.pushTimePoint(5, 3));
}

// ------------------------------------------------------------ NextDueTable

TEST(NextDueTable, PopsInCycleOrder)
{
    NextDueTable t;
    t.schedule(0, 500);
    t.schedule(1, 3);
    t.schedule(2, 70000);
    t.schedule(3, 3000);
    std::vector<Cycle> cycles;
    while (auto p = t.popEarliest())
        cycles.push_back(p->cycle);
    EXPECT_EQ(cycles, (std::vector<Cycle>{3, 500, 3000, 70000}));
    EXPECT_EQ(t.stats().dispatched, 4u);
}

TEST(NextDueTable, SameCycleSourcesFireAsOneMask)
{
    NextDueTable t;
    t.schedule(1, 4096);
    t.schedule(3, 4096);
    t.schedule(6, 4096);
    t.schedule(0, 9999);
    auto p = t.popEarliest();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->cycle, 4096u);
    EXPECT_EQ(p->sources, (1ull << 1) | (1ull << 3) | (1ull << 6));
    auto q = t.popEarliest();
    ASSERT_TRUE(q);
    EXPECT_EQ(q->cycle, 9999u);
    EXPECT_EQ(q->sources, 1ull);
    EXPECT_FALSE(t.popEarliest());
}

TEST(NextDueTable, ReregistrationMovesTheDueCycle)
{
    NextDueTable t;
    t.schedule(0, 100);
    t.schedule(1, 1000);
    // Later, past the other source...
    t.schedule(0, 5000);
    auto p = t.popEarliest();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->cycle, 1000u);
    EXPECT_EQ(p->sources, 1ull << 1);
    // ...and earlier again.
    t.schedule(1, 3000);
    t.schedule(0, 7);
    auto q = t.popEarliest();
    ASSERT_TRUE(q);
    EXPECT_EQ(q->cycle, 7u);
    EXPECT_EQ(q->sources, 1ull);
    auto r = t.popEarliest();
    ASSERT_TRUE(r);
    EXPECT_EQ(r->cycle, 3000u);
    EXPECT_FALSE(t.popEarliest());
    EXPECT_EQ(t.stats().highWater, 2u);
}

TEST(NextDueTable, CancelIsIdempotentAndUnregisters)
{
    NextDueTable t;
    t.schedule(0, 10);
    t.schedule(1, 20);
    t.cancel(0);
    t.cancel(0);
    auto p = t.popEarliest();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->cycle, 20u);
    EXPECT_EQ(p->sources, 1ull << 1);
    EXPECT_FALSE(t.popEarliest());
    EXPECT_EQ(t.stats().dispatched, 1u);
}

TEST(NextDueTable, AgreesWithASortedModelOnRandomTraffic)
{
    // Randomized cross-check against a trivially correct model: the
    // table must always pop the minimum registered due, with every
    // source due there, whatever mix of (re-)registrations and
    // (repeated) cancels came before; its counters must match too.
    std::mt19937_64 gen(0x5eed);
    NextDueTable t;
    std::map<unsigned, Cycle> model; // src -> due
    std::size_t dispatched = 0, highWater = 0;
    Cycle now = 0;
    for (int step = 0; step < 3000; ++step) {
        unsigned op = static_cast<unsigned>(gen() % 4);
        auto src = static_cast<unsigned>(gen() % 16);
        if (op == 3) {
            t.cancel(src);
            model.erase(src);
        } else if (op != 0) {
            // Mix of near, mid and far dues.
            static constexpr Cycle spans[] = {60, 4000, 200000};
            Cycle when = now + gen() % spans[gen() % 3];
            t.schedule(src, when);
            model[src] = when;
            highWater = std::max(highWater, model.size());
        } else {
            std::optional<NextDueTable::Popped> p = t.popEarliest();
            if (model.empty()) {
                EXPECT_FALSE(p);
                continue;
            }
            Cycle best = std::numeric_limits<Cycle>::max();
            for (auto &[s, duec] : model)
                best = std::min(best, duec);
            std::uint64_t mask = 0;
            for (auto it = model.begin(); it != model.end();)
                if (it->second == best) {
                    mask |= std::uint64_t{1} << it->first;
                    it = model.erase(it);
                    ++dispatched;
                } else {
                    ++it;
                }
            ASSERT_TRUE(p);
            EXPECT_EQ(p->cycle, best);
            EXPECT_EQ(p->sources, mask);
            now = best;
        }
    }
    EXPECT_EQ(t.stats().dispatched, dispatched);
    EXPECT_EQ(t.stats().highWater, highWater);
    t.clear();
    EXPECT_FALSE(t.popEarliest());
    EXPECT_EQ(t.stats().dispatched, 0u);
    EXPECT_EQ(t.stats().highWater, 0u);
}

/**
 * Reproduce paper Tables 2-4: the queue contents of the AllXY
 * experiment before TD starts and after the first fires. Events are
 * pushed exactly as the QMB would for rounds 0 and 1.
 */
class AllxyQueueStateTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        log.attach(tcu);
        // Round 0: Wait 40000; Pulse I; Wait 4; Pulse I; Wait 4;
        //          MPG 300; MD r7.
        tcu.pushTimePoint(40000, 1);
        tcu.pushPulse(0, {1, 0x1, 0});
        tcu.pushTimePoint(4, 2);
        tcu.pushPulse(0, {2, 0x1, 0});
        tcu.pushTimePoint(4, 3);
        tcu.pushMpg({3, 0x1, 300});
        tcu.pushMd(0, {3, 0x1, 7});
        // Round 1: same with X180 (uop 1).
        tcu.pushTimePoint(40000, 4);
        tcu.pushPulse(0, {4, 0x1, 1});
        tcu.pushTimePoint(4, 5);
        tcu.pushPulse(0, {5, 0x1, 1});
        tcu.pushTimePoint(4, 6);
        tcu.pushMpg({6, 0x1, 300});
        tcu.pushMd(0, {6, 0x1, 7});
    }

    TimingController tcu;
    FireLog log;
};

TEST_F(AllxyQueueStateTest, Table2StateBeforeStart)
{
    auto timing = tcu.timingQueueSnapshot();
    ASSERT_EQ(timing.size(), 6u);
    EXPECT_EQ(timing[0], (TimePoint{40000, 1}));
    EXPECT_EQ(timing[1], (TimePoint{4, 2}));
    EXPECT_EQ(timing[2], (TimePoint{4, 3}));
    EXPECT_EQ(timing[3], (TimePoint{40000, 4}));
    EXPECT_EQ(timing[4], (TimePoint{4, 5}));
    EXPECT_EQ(timing[5], (TimePoint{4, 6}));

    auto pulses = tcu.pulseQueueSnapshot(0);
    ASSERT_EQ(pulses.size(), 4u);
    EXPECT_EQ(pulses[0], (PulseEvent{1, 0x1, 0})); // (I, 1)
    EXPECT_EQ(pulses[1], (PulseEvent{2, 0x1, 0})); // (I, 2)
    EXPECT_EQ(pulses[2], (PulseEvent{4, 0x1, 1})); // (Xpi, 4)
    EXPECT_EQ(pulses[3], (PulseEvent{5, 0x1, 1})); // (Xpi, 5)

    auto mpgs = tcu.mpgQueueSnapshot();
    ASSERT_EQ(mpgs.size(), 2u);
    EXPECT_EQ(mpgs[0].label, 3u);
    EXPECT_EQ(mpgs[1].label, 6u);

    auto mds = tcu.mdQueueSnapshot(0);
    ASSERT_EQ(mds.size(), 2u);
    EXPECT_EQ(mds[0].label, 3u);
    EXPECT_EQ(mds[0].destReg, 7);
    EXPECT_EQ(mds[1].label, 6u);
}

TEST_F(AllxyQueueStateTest, Table3StateAtTd40000)
{
    tcu.start(0);
    tcu.advanceTo(40000);
    // The first I fired; timing queue front is now (4, 2).
    auto timing = tcu.timingQueueSnapshot();
    ASSERT_EQ(timing.size(), 5u);
    EXPECT_EQ(timing[0], (TimePoint{4, 2}));
    auto pulses = tcu.pulseQueueSnapshot(0);
    ASSERT_EQ(pulses.size(), 3u);
    EXPECT_EQ(pulses[0], (PulseEvent{2, 0x1, 0}));
    // MPG/MD untouched.
    EXPECT_EQ(tcu.mpgQueueSnapshot().size(), 2u);
    EXPECT_EQ(tcu.mdQueueSnapshot(0).size(), 2u);
}

TEST_F(AllxyQueueStateTest, Table4StateAtTd40008)
{
    tcu.start(0);
    tcu.advanceTo(40008);
    // Labels 1-3 fired: both I pulses, the first MPG and MD.
    auto timing = tcu.timingQueueSnapshot();
    ASSERT_EQ(timing.size(), 3u);
    EXPECT_EQ(timing[0], (TimePoint{40000, 4}));
    auto pulses = tcu.pulseQueueSnapshot(0);
    ASSERT_EQ(pulses.size(), 2u);
    EXPECT_EQ(pulses[0], (PulseEvent{4, 0x1, 1}));
    EXPECT_EQ(tcu.mpgQueueSnapshot().size(), 1u);
    EXPECT_EQ(tcu.mpgQueueSnapshot()[0].label, 6u);
    EXPECT_EQ(tcu.mdQueueSnapshot(0).size(), 1u);
    EXPECT_TRUE(tcu.violations().clean());
}

TEST_F(AllxyQueueStateTest, FullDrainLeavesQueuesEmpty)
{
    tcu.start(0);
    tcu.advanceTo(80016);
    EXPECT_TRUE(tcu.allQueuesEmpty());
    EXPECT_EQ(log.pulses.size(), 4u);
    EXPECT_EQ(log.mpgs.size(), 2u);
    EXPECT_EQ(log.mds.size(), 2u);
    // Paper Table 5 fire times.
    EXPECT_EQ(log.pulses[2].first, 80008u);
    EXPECT_EQ(log.pulses[3].first, 80012u);
    EXPECT_EQ(log.mpgs[1].first, 80016u);
}

} // namespace
} // namespace quma::timing
