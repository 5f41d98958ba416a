/**
 * @file
 * Unit tests of the benchmark's own helpers: percentiles and their
 * sample counts, the result digest, the result-line schema and span
 * self time.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "helpers.hh"
#include "workloads.hh"

using namespace e2e;

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    std::vector<double> v{4, 1, 3, 2, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2}, 0.5), 1.5);
    EXPECT_DOUBLE_EQ(percentile({7}, 0.99), 7.0);
}

TEST(Percentile, EmptySampleThrows)
{
    EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, SamplesBeyondCountsTheTail)
{
    // p99 of 1000 samples has exactly ten samples beyond its rank.
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_EQ(samplesBeyond(100, 0.99), 1u);
    EXPECT_EQ(samplesBeyond(101, 0.5), 50u);
    EXPECT_EQ(samplesBeyond(0, 0.5), 0u);
    EXPECT_EQ(samplesBeyond(5, 1.0), 0u);
}

TEST(Percentile, SummarizeStatesItsSampleCount)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    LatencySummary s = summarize(v);
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_EQ(s.beyondP99, 10u);
    EXPECT_DOUBLE_EQ(s.p50, 500.5);
    EXPECT_NEAR(s.p99, 990.01, 1e-9);
    EXPECT_EQ(summarize({}).samples, 0u);
}

TEST(Digest, EqualResultsGiveEqualDigests)
{
    quma::runtime::JobResult a;
    a.averages = {0.1, 0.2};
    a.run.cyclesRun = 42;
    quma::runtime::JobResult b = a;
    Digest da, db;
    da.addResult(a);
    db.addResult(b);
    EXPECT_EQ(da.value(), db.value());
    EXPECT_EQ(da.hex().size(), 16u);
}

TEST(Digest, OneBitChangesTheDigest)
{
    quma::runtime::JobResult a;
    a.averages = {0.1, 0.2};
    quma::runtime::JobResult b = a;
    b.averages[1] = std::nextafter(0.2, 1.0);
    Digest da, db;
    da.addResult(a);
    db.addResult(b);
    EXPECT_NE(da.value(), db.value());

    // Order matters: the digest is over a fixed sequence.
    Digest ab, ba;
    ab.addResult(a);
    ab.addResult(b);
    ba.addResult(b);
    ba.addResult(a);
    EXPECT_NE(ab.value(), ba.value());
}

TEST(ResultJson, HasExactlyTheContractKeys)
{
    std::string j = resultJson(true, 12, 0,
                               {{"rounds_per_s", "1/s", 1234.5},
                                {"setup_s", "s", 0.125}});
    EXPECT_EQ(j,
              "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
              "\"metrics\": {\"rounds_per_s\": {\"value\": 1234.5, "
              "\"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.125, "
              "\"unit\": \"s\"}}}");
}

TEST(ResultJson, PrintsEveryDigit)
{
    std::string j = resultJson(false, 1, 1, {{"x", "ms", 0.1}});
    EXPECT_NE(j.find("0.10000000000000001"), std::string::npos);
    EXPECT_NE(j.find("\"correct\": false"), std::string::npos);
}

TEST(ResultJson, RefusesNonFiniteValues)
{
    EXPECT_THROW(resultJson(true, 1, 0, {{"x", "ms", 1.0 / 0.0}}),
                 std::invalid_argument);
}

TEST(ResultJson, EscapesStrings)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(Spans, DisabledRecorderKeepsNothing)
{
    SpanRecorder rec;
    {
        ScopedSpan s(rec, "x");
        EXPECT_EQ(s.id(), 0u);
    }
    EXPECT_TRUE(rec.spans().empty());
}

TEST(Spans, SelfTimeSubtractsChildCoverage)
{
    SpanRecorder rec;
    rec.setEnabled(true);
    std::uint64_t parent = rec.begin("parent", 0, 7);
    std::uint64_t child = rec.begin("child", parent, 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    rec.end(child);
    rec.end(parent);
    auto self = rec.selfNanosByName();
    ASSERT_EQ(self.size(), 2u);
    std::vector<Span> all = rec.spans();
    std::uint64_t parentDur = all[0].endNanos - all[0].startNanos;
    std::uint64_t childDur = all[1].endNanos - all[1].startNanos;
    EXPECT_EQ(self[0].first, "child");
    EXPECT_EQ(self[0].second, childDur);
    EXPECT_EQ(self[1].second, parentDur - childDur);
    EXPECT_NE(rec.chromeEvents(1).find("\"name\":\"child\""),
              std::string::npos);
}

TEST(Workloads, NamesMatchTheBenchmarkFile)
{
    EXPECT_EQ(workloadNames(),
              (std::vector<std::string>{"allxy_batch", "rb_sweep",
                                        "fleet_serve"}));
}

TEST(Workloads, UnknownWorkloadIsRefused)
{
    Options opt;
    opt.workload = "nope";
    EXPECT_THROW(runBenchmark(opt), std::invalid_argument);
}
