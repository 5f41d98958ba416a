/**
 * @file
 * quma_e2e: the repository benchmark's one command.
 *
 *   quma_e2e --workload allxy_batch|rb_sweep|fleet_serve --seed N
 *            --seconds S --trace 0|1 [--out DIR]
 *
 * Runs the workload for S seconds from inputs derived from the seed,
 * checks every result, and prints as its last stdout line one JSON
 * object {correct, attempted, failed, metrics}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * Exit code 0 only when the run completed and printed its result.
 * Seed 1708077 (e2e::kHeldOutSeed) is held out for confirming claims.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/logging.hh"
#include "workloads.hh"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "quma_e2e: %s\nusage: quma_e2e --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\nworkloads:",
                 why);
    for (const std::string &n : e2e::workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                opt.workload = v;
                haveWorkload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                opt.trace = std::stoi(v) != 0;
            } else if (a == "--out") {
                opt.outDir = v;
            } else {
                return usage(("unknown option " + a).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (!haveWorkload)
        return usage("--workload is required");
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");

    quma::setLogQuiet(true);
    try {
        e2e::Outcome out = e2e::runBenchmark(opt);
        std::printf("%s\n", e2e::resultJson(out.correct, out.attempted,
                                            out.failed, out.metrics)
                                .c_str());
        std::fflush(stdout);
        return out.correct ? 0 : 1;
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "quma_e2e: %s\n", ex.what());
        return 1;
    }
}
