/**
 * @file
 * Bounded FIFO channel. This models the triangle FIFO "ahead of the
 * texture mapping engine" whose size Section 8 of the paper studies:
 * the geometry feeder blocks while any destination FIFO is full,
 * which is the mechanism that turns one slow node into *local* load
 * imbalance for all the others.
 */

#ifndef TEXDIST_SIM_FIFO_HH
#define TEXDIST_SIM_FIFO_HH

#include <cstddef>
#include <deque>
#include <utility>

#include "sim/logging.hh"

namespace texdist
{

/**
 * A bounded FIFO. Not an active component: producers and consumers
 * are responsible for their own scheduling; the FIFO only enforces
 * capacity and order.
 */
template <typename T>
class BoundedFifo
{
  public:
    /** @param capacity maximum number of entries (> 0) */
    explicit BoundedFifo(size_t capacity) : _capacity(capacity)
    {
        if (capacity == 0)
            texdist_fatal("FIFO capacity must be positive");
    }

    size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }
    bool full() const { return entries.size() >= _capacity; }

    /** Push one entry; the FIFO must not be full. */
    void
    push(T value)
    {
        if (full())
            texdist_panic("push to full FIFO");
        entries.push_back(std::move(value));
    }

    /**
     * Push ignoring the capacity limit. Used only by graceful
     * degradation, which migrates a dead node's queued work onto the
     * survivors: real hardware would flow-control the migration, but
     * modelling that adds nothing to the timing (the receiving node
     * drains the entries at its normal rate either way).
     */
    void
    forcePush(T value)
    {
        entries.push_back(std::move(value));
    }

    /** Pop the front entry; the FIFO must not be empty. */
    T
    pop()
    {
        if (empty())
            texdist_panic("pop from empty FIFO");
        T value = std::move(entries.front());
        entries.pop_front();
        return value;
    }

  private:
    size_t _capacity;
    std::deque<T> entries;
};

} // namespace texdist

#endif // TEXDIST_SIM_FIFO_HH
