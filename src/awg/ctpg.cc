#include "awg/ctpg.hh"

#include <atomic>

#include "common/logging.hh"

namespace quma::awg {

namespace {
/** Source of process-unique DrivePulse::shapeIds (0 = unknown). */
std::atomic<std::uint64_t> nextShapeId{1};
} // namespace

Ctpg::Ctpg(CtpgConfig config)
    : cfg(config),
      dac(config.dacBits, config.dacFullScale, kAwgSampleRateHz)
{}

void
Ctpg::trigger(Codeword cw, Cycle td, QubitMask mask)
{
    if (!memory.contains(cw))
        fatal("CTPG triggered with codeword ", cw,
              " but no pulse is uploaded at that index");
    pending.push(Pending{td + cfg.delayCycles, cw, mask, orderCounter++});
}

std::optional<Cycle>
Ctpg::nextEventCycle() const
{
    if (pending.empty())
        return std::nullopt;
    return pending.top().emitCycle;
}

signal::DrivePulse &
Ctpg::rendered(Codeword cw)
{
    if (renderCacheVersion != memory.version()) {
        renderCache.clear();
        renderCacheVersion = memory.version();
    }
    auto it = renderCache.find(cw);
    if (it == renderCache.end()) {
        const StoredPulse &stored = memory.lookup(cw);
        signal::DrivePulse pulse;
        pulse.i = dac.render(stored.i);
        pulse.q = dac.render(stored.q);
        pulse.ssbHz = cfg.ssbHz;
        pulse.carrierHz = cfg.carrierHz;
        pulse.shapeId = nextShapeId.fetch_add(1, std::memory_order_relaxed);
        it = renderCache.emplace(cw, std::move(pulse)).first;
    }
    return it->second;
}

void
Ctpg::advanceTo(Cycle now)
{
    while (!pending.empty() && pending.top().emitCycle <= now) {
        Pending p = pending.top();
        pending.pop();
        signal::DrivePulse &pulse = rendered(p.cw);
        pulse.t0Ns = cyclesToNs(p.emitCycle);
        ++emitted;
        if (pulseSink)
            pulseSink(pulse, p.cw, p.mask);
    }
}

void
Ctpg::reset()
{
    pending = {};
    orderCounter = 0;
    emitted = 0;
}

} // namespace quma::awg
