/**
 * @file
 * Flat next-due table behind QumaMachine::run's event dispatch. Why a
 * min-scan and not an indexed structure: src/timing/README.md.
 */

#ifndef QUMA_TIMING_NEXT_DUE_HH
#define QUMA_TIMING_NEXT_DUE_HH

#include <bit>
#include <cstdint>
#include <optional>

#include "common/types.hh"

namespace quma::timing {

/** Counters since the last clear(). */
struct NextDueStats
{
    /** Sources popped. */
    std::size_t dispatched = 0;
    /** Most sources registered at once. */
    std::size_t highWater = 0;
};

/** The next due cycle of each event source, indexed by its bit id. */
class NextDueTable
{
  public:
    static constexpr unsigned kMaxSources = 64;

    struct Popped
    {
        Cycle cycle;
        std::uint64_t sources;
    };

    /** Register or move a source's due cycle (src < kMaxSources). */
    void
    schedule(unsigned src, Cycle when)
    {
        due[src] = when;
        if (live >> src & 1)
            return;
        live |= std::uint64_t{1} << src;
        if (static_cast<std::size_t>(std::popcount(live)) > stat.highWater)
            ++stat.highWater;
    }

    /** Unregister a source; a no-op when it is not registered. */
    void cancel(unsigned src) { live &= ~(std::uint64_t{1} << src); }

    /**
     * Unregister and return the minimum due cycle and every source due
     * at it as one mask; nullopt when nothing is registered.
     */
    std::optional<Popped>
    popEarliest()
    {
        Popped p{~Cycle{0}, 0};
        for (std::uint64_t m = live; m != 0; m &= m - 1) {
            auto src = static_cast<unsigned>(std::countr_zero(m));
            if (due[src] < p.cycle)
                p = {due[src], 0};
            if (due[src] == p.cycle)
                p.sources |= std::uint64_t{1} << src;
        }
        live &= ~p.sources;
        stat.dispatched += static_cast<unsigned>(std::popcount(p.sources));
        if (p.sources == 0)
            return std::nullopt;
        return p;
    }

    /** Drop every registration and zero the counters. */
    void
    clear()
    {
        live = 0;
        stat = {};
    }

    const NextDueStats &stats() const { return stat; }

  private:
    Cycle due[kMaxSources] = {};
    std::uint64_t live = 0;
    NextDueStats stat;
};

} // namespace quma::timing

#endif // QUMA_TIMING_NEXT_DUE_HH
