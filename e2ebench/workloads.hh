/**
 * @file
 * The benchmark's workloads and the run that measures one of them.
 *
 * A run builds the workload's service or fleet (set-up, timed and
 * repeated), drives it in a closed loop for the requested seconds,
 * checks every result against an in-process 1-worker run of the same
 * specs plus the workload's physics gate, and reports either the
 * end-to-end metrics (trace off) or the per-layer metrics (trace on;
 * see README.md for the catalogue).
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "helpers.hh"

namespace e2e {

/**
 * Seed held out from tuning: a later claim is confirmed on it after
 * being developed on other seeds.
 */
inline constexpr std::uint64_t kHeldOutSeed = 1708077;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where a traced run writes its span and layer files. */
    std::string outDir = ".bench_build/e2ebench-out";
};

struct Outcome
{
    bool correct = false;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
};

/** allxy_batch, rb_sweep, fleet_serve. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload as `opt` says. Human-readable progress and check
 * results go to stderr; the caller prints the Outcome. Throws
 * std::invalid_argument for an unknown workload.
 */
Outcome runBenchmark(const Options &opt);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
