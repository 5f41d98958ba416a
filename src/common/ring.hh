/**
 * @file
 * A bounded FIFO ring that grows on demand.
 *
 * The QMB and the timing unit's queues are fixed-capacity hardware
 * buffers. Their capacities come from the machine config, which may
 * arrive unchecked off the wire, so the ring never reserves its
 * capacity up front: storage starts empty, doubles when a push finds
 * it full (up to the capacity), and is kept across clear(), so a
 * reused machine stops allocating once its queues have reached their
 * working depth.
 */

#ifndef QUMA_COMMON_RING_HH
#define QUMA_COMMON_RING_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace quma {

template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity) : cap(capacity) {}

    std::size_t capacity() const { return cap; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count >= cap; }

    /** Append at the back; the ring must not be full. */
    void
    push(const T &value)
    {
        quma_assert(count < cap, "push into a full ring");
        if (count == slots.size())
            grow();
        slots[wrap(head + count)] = value;
        ++count;
    }

    /** Front element; the ring must not be empty. */
    const T &front() const { return slots[head]; }

    /** Drop the front element; the ring must not be empty. */
    void
    pop()
    {
        head = wrap(head + 1);
        --count;
    }

    /** The i-th element from the front (i < size()). */
    const T &
    operator[](std::size_t i) const
    {
        return slots[wrap(head + i)];
    }

    /** Empty the ring, keeping its storage. */
    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    /** Smallest storage allocated by the first push. */
    static constexpr std::size_t kFirstSlots = 16;

    std::size_t
    wrap(std::size_t i) const
    {
        return i < slots.size() ? i : i - slots.size();
    }

    void
    grow()
    {
        std::size_t n = slots.empty() ? kFirstSlots : 2 * slots.size();
        std::vector<T> next(std::min(n, cap));
        for (std::size_t i = 0; i < count; ++i)
            next[i] = (*this)[i];
        slots.swap(next);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
    std::size_t cap;
};

} // namespace quma

#endif // QUMA_COMMON_RING_HH
