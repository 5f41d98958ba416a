/**
 * @file
 * Bounded FIFO event queues used by the timing control unit, kept in
 * a Ring (common/ring.hh): storage grows on demand up to the
 * capacity and survives clear().
 */

#ifndef QUMA_TIMING_QUEUES_HH
#define QUMA_TIMING_QUEUES_HH

#include <vector>

#include "common/logging.hh"
#include "common/ring.hh"
#include "common/types.hh"

namespace quma::timing {

/**
 * A bounded FIFO of labelled events. The stored type T must expose a
 * `label` member.
 */
template <typename T>
class EventQueue
{
  public:
    explicit EventQueue(std::size_t capacity = 64) : q(capacity)
    {
        quma_assert(capacity > 0, "queue capacity must be positive");
    }

    std::size_t capacity() const { return q.capacity(); }
    std::size_t size() const { return q.size(); }
    bool empty() const { return q.empty(); }
    bool full() const { return q.full(); }

    /** Rejected pushes since the last clearStats() (backpressure). */
    std::size_t pushFailed() const { return pushFailedCount; }
    /** Deepest occupancy reached since the last clearStats(). */
    std::size_t highWaterMark() const { return highWater; }
    /** Stale front entries dropped by popMatching since clearStats():
     *  payloads silently discarded because their time point already
     *  passed -- a saturation signal just like pushFailed. */
    std::size_t staleDropped() const { return staleDroppedCount; }

    /** Enqueue; returns false (and drops nothing) when full. */
    bool
    push(const T &event)
    {
        if (full()) {
            ++pushFailedCount;
            return false;
        }
        q.push(event);
        if (q.size() > highWater)
            highWater = q.size();
        return true;
    }

    /** Front element; queue must not be empty. */
    const T &
    front() const
    {
        quma_assert(!q.empty(), "front() on empty event queue");
        return q.front();
    }

    /** Drop the front element; queue must not be empty. */
    void
    pop()
    {
        quma_assert(!q.empty(), "pop() on empty event queue");
        q.pop();
    }

    /**
     * Pop every front entry whose label matches `label` into `fired`.
     * Front entries with a SMALLER label are stale (their time point
     * already passed): they are dropped and counted in `stale`.
     */
    void
    popMatching(TimingLabel label, std::vector<T> &fired,
                std::size_t &stale)
    {
        while (!q.empty() && q.front().label < label) {
            q.pop();
            ++stale;
            ++staleDroppedCount;
        }
        while (!q.empty() && q.front().label == label) {
            fired.push_back(q.front());
            q.pop();
        }
    }

    /** Snapshot of the queue contents, front first. */
    std::vector<T>
    snapshot() const
    {
        std::vector<T> out;
        out.reserve(q.size());
        for (std::size_t i = 0; i < q.size(); ++i)
            out.push_back(q[i]);
        return out;
    }

    /** Drop the contents, keeping the storage. */
    void clear() { q.clear(); }

    /** Zero the saturation counters (queue contents untouched). */
    void
    clearStats()
    {
        pushFailedCount = 0;
        highWater = 0;
        staleDroppedCount = 0;
    }

  private:
    Ring<T> q;
    std::size_t pushFailedCount = 0;
    std::size_t highWater = 0;
    std::size_t staleDroppedCount = 0;
};

} // namespace quma::timing

#endif // QUMA_TIMING_QUEUES_HH
