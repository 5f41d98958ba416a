/**
 * @file
 * Micro-benchmarks of the event-engine hot paths: the next-due
 * table's pop/re-register cycle behind QumaMachine::run, at 1/4/8/16
 * registered sources, and the batched readout-noise fill against the
 * per-sample gaussian loop. Prints a fixed-width table and, with
 * `--json <path>`, writes machine-readable metrics per
 * docs/benchmarks.md.
 *
 * `--smoke` runs every case exactly once (no timing claims): the
 * perf_smoke ctest label uses it to catch bit-rot in Debug builds.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.hh"
#include "common/rng.hh"
#include "qsim/readout.hh"
#include "qsim/transmon.hh"
#include "timing/next_due.hh"

using namespace quma;

namespace {

bool g_smoke = false;
volatile double benchmarkSink = 0.0;

/** Mean ns/op over enough iterations to fill a small time budget. */
template <class F>
double
timeNs(F &&body, std::size_t iters)
{
    if (g_smoke)
        iters = 1;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i)
        body();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(iters);
}

/**
 * Steady-state dispatch traffic: `sources` registered sources with
 * staggered periods; each pop re-registers every fired source one
 * period later, exactly the QumaMachine run-loop's access pattern.
 * Reported per dispatched event.
 */
double
dispatchNs(unsigned sources, std::size_t events)
{
    timing::NextDueTable t;
    std::vector<Cycle> period(sources);
    for (unsigned s = 0; s < sources; ++s) {
        // Mixed cadences, from a few cycles to thousands.
        period[s] = 4 + 37 * (s % 7) + (s % 3) * 4000;
        t.schedule(s, period[s]);
    }
    std::size_t fired = 0;
    Cycle now = 0;
    auto t0 = std::chrono::steady_clock::now();
    while (fired < events) {
        auto p = t.popEarliest();
        std::uint64_t m = p->sources;
        now = p->cycle;
        while (m != 0) {
            auto s = static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            t.schedule(s, now + period[s]);
            ++fired;
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    benchmarkSink = static_cast<double>(now);
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(fired);
}

void
benchDispatch(bench::JsonReport &json)
{
    bench::banner("next-event dispatch (next-due table)");
    std::size_t events = g_smoke ? 64 : 4'000'000;
    for (unsigned sources : {1u, 4u, 8u, 16u}) {
        double ns = dispatchNs(sources, events);
        std::printf("dispatch %2u sources: %7.1f ns/event "
                    "(%8.2f Mev/s)\n",
                    sources, ns, 1e3 / ns);
        json.metric("dispatch_" + std::to_string(sources) + "_sources",
                    ns, "ns/event");
    }
}

void
benchNoise(bench::JsonReport &json)
{
    bench::banner("readout noise (per-sample vs batched gaussian)");
    constexpr std::size_t kSamples = 300; // one 1500 ns window
    Rng perSample(0x9b1d), batched(0x9b1d);
    std::vector<double> buf(kSamples);
    std::size_t iters = 20000;

    double loop = timeNs(
        [&] {
            double acc = 0.0;
            for (std::size_t k = 0; k < kSamples; ++k)
                acc += perSample.standardNormal();
            benchmarkSink = acc;
        },
        iters);
    double batch = timeNs(
        [&] {
            batched.fillStandardNormal(buf.data(), kSamples);
            benchmarkSink = buf[kSamples - 1];
        },
        iters);
    std::printf("gaussian x%zu: per-sample %8.1f ns  batched %8.1f "
                "ns  (%.2fx)\n",
                kSamples, loop, batch, loop / batch);
    json.metric("gaussian_300_per_sample", loop, "ns/window");
    json.metric("gaussian_300_batched", batch, "ns/window");

    // End-to-end readout window with the batched fill in place.
    auto rp = qsim::paperQubitParams().readout;
    Rng rng(0x9b1d);
    std::vector<double> scratch;
    double readout = timeNs(
        [&] {
            auto t = qsim::simulateReadout(rp, false, 1500, 30000.0,
                                           rng, &scratch);
            benchmarkSink = t.trace.empty() ? 0.0 : t.trace[0];
        },
        g_smoke ? 1 : 4000);
    std::printf("simulate_readout_1500ns: %8.1f ns\n", readout);
    json.metric("simulate_readout_1500ns_batched", readout, "ns/op");
}

} // namespace

int
main(int argc, char **argv)
{
    g_smoke = bench::argFlag(argc, argv, "--smoke");
    std::string jsonPath = bench::argValue(argc, argv, "--json");

    bench::JsonReport json("event_engine");
    if (g_smoke)
        std::printf("(smoke mode: single iteration, timings "
                    "meaningless)\n");

    benchDispatch(json);
    benchNoise(json);
    bench::rule();

    return json.writeTo(jsonPath) ? 0 : 1;
}
