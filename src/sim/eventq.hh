/**
 * @file
 * Discrete-event simulation kernel — the analogue of the ASF
 * framework the paper's cycle-accurate simulator was built on.
 *
 * Events are scheduled at integer ticks (cycles of the texture
 * mapping engines). Events scheduled for the same tick are processed
 * in scheduling order, which makes simulations fully deterministic.
 */

#ifndef TEXDIST_SIM_EVENTQ_HH
#define TEXDIST_SIM_EVENTQ_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace texdist
{

/** Simulation time, in cycles. */
using Tick = uint64_t;

/** A large sentinel tick (never reached by real simulations). */
constexpr Tick maxTick = UINT64_MAX;

class EventQueue;

/**
 * Base class for schedulable events. An Event may be rescheduled
 * after it has been processed; it may not be scheduled twice
 * concurrently.
 */
class Event
{
  public:
    virtual ~Event();

    /** Invoked by the queue when the event's tick is reached. */
    virtual void process() = 0;

    /** Human-readable description for debugging. */
    virtual const char *description() const { return "event"; }

    /** Tick the event is currently scheduled for. */
    Tick when() const { return _when; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return _scheduled; }

  private:
    friend class EventQueue;
    Tick _when = 0;
    uint64_t _stamp = 0; ///< matches the queue entry; detects stale
    bool _scheduled = false;
};

/** An Event that runs an arbitrary callable. */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(std::function<void()> callable,
                         const char *what = "lambda event")
        : fn(std::move(callable)), desc(what)
    {}

    void process() override { fn(); }
    const char *description() const override { return desc; }

  private:
    std::function<void()> fn;
    const char *desc;
};

/**
 * The event queue: a priority queue ordered by (tick, scheduling
 * order). Descheduling is lazy — stale entries are skipped when
 * popped.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p event at absolute tick @p when (must not be in the
     * past, and the event must not already be scheduled).
     */
    void schedule(Event *event, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *event);

    /** Deschedule (if needed) and schedule at a new tick. */
    void reschedule(Event *event, Tick when);

    /** True when no events are pending. */
    bool empty() const { return numPending == 0; }

    /** Number of pending (non-stale) events. */
    size_t size() const { return numPending; }

    /**
     * Process exactly one event.
     * @return true if an event was processed
     */
    bool step();

    /**
     * Run until the queue drains.
     * @return the final simulation time
     */
    Tick run();

    /**
     * Restore the clock of a checkpointed simulation: jump an idle
     * queue (nothing pending, nothing processed yet) forward to
     * @p when, so restored components whose timestamps are absolute
     * resume against a consistent notion of "now".
     */
    void restoreClock(Tick when);

  private:
    struct Entry
    {
        Tick when;
        uint64_t stamp;
        Event *event;
    };
    struct EntryCompare
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            // priority_queue is a max-heap; invert for earliest-first,
            // breaking ties by scheduling order.
            if (a.when != b.when)
                return a.when > b.when;
            return a.stamp > b.stamp;
        }
    };

    /** Pop stale (descheduled/rescheduled) entries off the top. */
    void skipStale();

    std::priority_queue<Entry, std::vector<Entry>, EntryCompare> heap;
    Tick _curTick = 0;
    uint64_t nextStamp = 1;
    uint64_t numProcessed = 0;
    size_t numPending = 0;
};

} // namespace texdist

#endif // TEXDIST_SIM_EVENTQ_HH
