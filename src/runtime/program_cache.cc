#include "runtime/program_cache.hh"

#include <sstream>

#include "isa/assembler.hh"
#include "runtime/keys.hh"

namespace quma::runtime {

namespace {

std::string
lutKey(const awg::CalibrationParams &p)
{
    std::ostringstream os;
    for (double v : {p.pulseNs, p.sigmaNs, p.ssbHz, p.rabiRadPerAmpNs,
                     p.rateHz, p.amplitudeError, p.msmtPulseNs,
                     p.czPulseNs})
        keys::appendBits(os, v);
    return os.str();
}

} // namespace

ProgramCache::ProgramCache(std::size_t max_programs,
                           std::size_t max_luts)
    : maxPrograms(max_programs ? max_programs : 1),
      maxLuts(max_luts ? max_luts : 1)
{
}

std::shared_ptr<const isa::Program>
ProgramCache::assemble(const std::string &source)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = programs.find(source);
        if (it != programs.end()) {
            ++counters.programHits;
            ms.hits.inc();
            return it->second;
        }
        ++counters.programMisses;
        ms.misses.inc();
    }

    // Assemble outside the lock: compiles of distinct sources run in
    // parallel. A racing duplicate assembles twice and the results
    // are identical, so either insert is correct.
    isa::Assembler assembler;
    auto program =
        std::make_shared<const isa::Program>(assembler.assemble(source));

    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = programs.emplace(source, program);
    if (inserted) {
        programOrder.push_back(source);
        while (programOrder.size() > maxPrograms) {
            programs.erase(programOrder.front());
            programOrder.pop_front();
            ++counters.programEvictions;
            ms.evictions.inc();
        }
    }
    return it->second;
}

std::shared_ptr<const std::map<Codeword, awg::StoredPulse>>
ProgramCache::lut(const awg::CalibrationParams &params)
{
    std::string key = lutKey(params);
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = luts.find(key);
        if (it != luts.end()) {
            ++counters.lutHits;
            ms.lutHits.inc();
            return it->second;
        }
        ++counters.lutMisses;
        ms.lutMisses.inc();
    }

    auto entries =
        std::make_shared<const std::map<Codeword, awg::StoredPulse>>(
            awg::buildStandardLutEntries(params));

    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = luts.emplace(key, entries);
    if (inserted) {
        lutOrder.push_back(key);
        while (lutOrder.size() > maxLuts) {
            luts.erase(lutOrder.front());
            lutOrder.pop_front();
            ++counters.lutEvictions;
            ms.lutEvictions.inc();
        }
    }
    return it->second;
}

core::QumaMachine::LutProvider
ProgramCache::lutProvider()
{
    return [this](const awg::CalibrationParams &params) {
        return lut(params);
    };
}

ProgramCache::Stats
ProgramCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

std::size_t
ProgramCache::programCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return programs.size();
}

std::size_t
ProgramCache::lutCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return luts.size();
}

void
ProgramCache::bindMetrics(metrics::MetricsRegistry &registry)
{
    ms.hits = registry.counter(
        "quma_cache_program_hits_total",
        "assemble() calls served from the program layer.");
    ms.misses = registry.counter(
        "quma_cache_program_misses_total",
        "assemble() calls that ran the assembler.");
    ms.evictions = registry.counter(
        "quma_cache_program_evictions_total",
        "Programs aged out of the bounded program layer (FIFO).");
    ms.lutHits = registry.counter(
        "quma_cache_lut_hits_total",
        "Calibration uploads served from the LUT layer.");
    ms.lutMisses = registry.counter(
        "quma_cache_lut_misses_total",
        "Calibration uploads that re-rendered the waveform tables.");
    ms.lutEvictions = registry.counter(
        "quma_cache_lut_evictions_total",
        "LUT sets aged out of the bounded LUT layer (FIFO).");
    registry.gaugeFn("quma_cache_programs_resident",
                     "Programs currently held by the program layer.",
                     {}, [this] {
                         return static_cast<double>(programCount());
                     });
    registry.gaugeFn(
        "quma_cache_luts_resident",
        "LUT sets currently held by the calibration layer.", {},
        [this] { return static_cast<double>(lutCount()); });
}

} // namespace quma::runtime
