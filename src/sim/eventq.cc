#include "sim/eventq.hh"

#include "sim/logging.hh"

namespace texdist
{

Event::~Event()
{
    // An event must not be destroyed while scheduled; the queue would
    // later dereference freed memory. Catch this in debug builds.
    if (_scheduled)
        texdist_panic("event destroyed while scheduled");
}

void
EventQueue::schedule(Event *event, Tick when)
{
    if (event->_scheduled)
        texdist_panic("event scheduled twice: ", event->description());
    if (when < _curTick)
        texdist_panic("event scheduled in the past: ",
                      event->description(), " at ", when, " < ",
                      _curTick);

    event->_when = when;
    event->_stamp = nextStamp++;
    event->_scheduled = true;
    heap.push({when, event->_stamp, event});
    ++numPending;
}

void
EventQueue::deschedule(Event *event)
{
    if (!event->_scheduled)
        texdist_panic("descheduling unscheduled event: ",
                      event->description());
    // Lazy removal: invalidate the stamp; the heap entry is skipped
    // when it surfaces.
    event->_scheduled = false;
    event->_stamp = 0;
    --numPending;
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    if (event->_scheduled)
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::skipStale()
{
    while (!heap.empty()) {
        const Entry &top = heap.top();
        if (top.event->_scheduled && top.event->_stamp == top.stamp)
            return;
        heap.pop();
    }
}

bool
EventQueue::step()
{
    skipStale();
    if (heap.empty())
        return false;

    Entry top = heap.top();
    heap.pop();
    --numPending;
    _curTick = top.when;
    top.event->_scheduled = false;
    top.event->process();
    return true;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return _curTick;
}

} // namespace texdist
