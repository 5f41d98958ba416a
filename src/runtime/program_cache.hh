/**
 * @file
 * Compiled-program and calibration cache.
 *
 * Two memoization layers sit between job submission and a pooled
 * machine:
 *
 *  - the PROGRAM layer maps assembly source text to the assembled
 *    isa::Program, so a sweep that submits the same (or few distinct)
 *    programs pays the assembler once;
 *  - the LUT layer maps calibration parameters to the rendered
 *    Table 1 waveform entries, so calibrating the Nth pooled machine
 *    with the same qubit parameters copies stored samples instead of
 *    re-rendering envelopes and SSB modulation.
 *
 * Both layers are bounded (FIFO eviction) and thread-safe: every
 * scheduler worker shares one cache.
 */

#ifndef QUMA_RUNTIME_PROGRAM_CACHE_HH
#define QUMA_RUNTIME_PROGRAM_CACHE_HH

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "awg/calibration.hh"
#include "common/metrics.hh"
#include "isa/program.hh"
#include "quma/machine.hh"

namespace quma::runtime {

class ProgramCache
{
  public:
    struct Stats
    {
        std::size_t programHits = 0;
        std::size_t programMisses = 0;
        std::size_t programEvictions = 0;
        std::size_t lutHits = 0;
        std::size_t lutMisses = 0;
        std::size_t lutEvictions = 0;
    };

    explicit ProgramCache(std::size_t max_programs = 256,
                          std::size_t max_luts = 64);

    /** Assemble `source`, memoized on the exact source text. */
    std::shared_ptr<const isa::Program>
    assemble(const std::string &source);

    /** Rendered Table 1 LUT entries, memoized on the parameters. */
    std::shared_ptr<const std::map<Codeword, awg::StoredPulse>>
    lut(const awg::CalibrationParams &params);

    /** Adapter handing the LUT layer to uploadStandardCalibration. */
    core::QumaMachine::LutProvider lutProvider();

    Stats stats() const;

    /** Programs currently resident in the program layer. */
    std::size_t programCount() const;
    /** LUT sets currently resident in the calibration layer. */
    std::size_t lutCount() const;

    /**
     * Register this cache's series with `registry` (quma_cache_*
     * family). The cache must outlive the registry's last render:
     * gauge callbacks read live cache state.
     */
    void bindMetrics(metrics::MetricsRegistry &registry);

  private:
    mutable std::mutex mu;
    std::size_t maxPrograms;
    std::size_t maxLuts;
    std::unordered_map<std::string, std::shared_ptr<const isa::Program>>
        programs;
    std::deque<std::string> programOrder;
    std::unordered_map<
        std::string,
        std::shared_ptr<const std::map<Codeword, awg::StoredPulse>>>
        luts;
    std::deque<std::string> lutOrder;
    Stats counters;

    /** Metric handles; default-constructed (no-op) until bound. */
    struct Instruments
    {
        metrics::Counter hits;
        metrics::Counter misses;
        metrics::Counter evictions;
        metrics::Counter lutHits;
        metrics::Counter lutMisses;
        metrics::Counter lutEvictions;
    };
    Instruments ms;
};

} // namespace quma::runtime

#endif // QUMA_RUNTIME_PROGRAM_CACHE_HH
