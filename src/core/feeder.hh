/**
 * @file
 * The geometry stage, sort network and triangle FIFOs of the
 * event-driven machine, idealized as in Section 3.2: the geometry
 * processors and the interconnection network are never the
 * bottleneck, but strict OpenGL ordering is preserved — the feeder
 * emits triangles in submission order, sending each to every node
 * whose region its bounding box overlaps, and *blocks* whenever any
 * destination FIFO is full. That blocking is the coupling that
 * converts one overloaded node into idle time on all the others
 * when the triangle buffers are small (Section 8).
 *
 * The feeder owns one bounded FIFO per node and the work event that
 * drains it: the event pops the head, wakes a dispatch blocked on
 * the freed slot, and runs the triangle on the queue-free node
 * (TextureNode::consumeDirect) at the current tick. Faults that act
 * on the queues act here: a frozen FIFO accepts nothing, and a dead
 * node's queued work moves to the survivors.
 */

#ifndef TEXDIST_CORE_FEEDER_HH
#define TEXDIST_CORE_FEEDER_HH

#include <memory>
#include <vector>

#include "core/distribution.hh"
#include "core/node.hh"
#include "scene/scene.hh"
#include "sim/eventq.hh"
#include "sim/fifo.hh"
#include "sim/stats.hh"

namespace texdist
{

/** One triangle FIFO entry: a node's share of a triangle. */
struct TriangleWork
{
    TextureId tex = 0;
    std::vector<NodeFragment> frags;
};

/** Streams a scene's triangles through the node FIFOs in order. */
class GeometryFeeder
{
  public:
    GeometryFeeder(const Scene &scene, const Distribution &dist,
                   std::vector<std::unique_ptr<TextureNode>> &nodes,
                   EventQueue &eq, const MachineConfig &config);

    /** Schedule the first dispatch at the current tick. */
    void start();

    /** A FIFO slot freed; resume if dispatch was blocked. */
    void notifySpaceFreed();

    /** All triangles dispatched. */
    bool done() const { return nextTriangle >= scene.triangles.size(); }

    /** Triangles remain undispatched or queued on a live node. */
    bool workRemains() const;

    uint64_t trianglesDispatched() const { return _dispatched; }

    /** Triangles skipped because they snapped to zero area. */
    uint64_t degenerateTriangles() const { return _degenerate; }

    /** Triangles whose bounding box missed the screen entirely. */
    uint64_t culledTriangles() const { return _culled; }

    /** Cycles the feeder spent blocked on a full FIFO. */
    uint64_t blockedCycles() const { return _blockedCycles; }

    /** Destination FIFO occupancy sampled at every dispatch. */
    const Histogram &fifoOccupancyHistogram() const
    { return fifoOccupancy; }

    /** Triangles waiting in node @p p's FIFO. */
    size_t queued(uint32_t p) const { return ports[p]->fifo.size(); }

    /**
     * Stop node @p p's FIFO accepting triangles — the fifo-freeze
     * fault, which back-pressures the in-order stream.
     */
    void freeze(uint32_t p) { ports[p]->frozen = true; }

    /** Accept triangles again and wake a dispatch blocked on them. */
    void thaw(uint32_t p);

    bool frozen(uint32_t p) const { return ports[p]->frozen; }

    bool nodeAlive(uint32_t p) const { return alive[p]; }

    /**
     * Node @p dead no longer accepts work. Its pending work event is
     * cancelled (the triangle in flight completes: its cycles were
     * committed when it started) and its queued triangles move
     * round-robin to the survivors, past their FIFO capacity; each
     * pays setup again and misses the new node's cache — the
     * locality penalty of degradation, measured rather than assumed.
     * From now on fragments its regions own are rerouted round-robin
     * to surviving nodes too.
     * @return the triangles moved (0 when no node survives)
     */
    size_t markDead(uint32_t dead);

    /** Fragments rerouted away from dead nodes so far. */
    uint64_t fragmentsRerouted() const { return _fragmentsRerouted; }

    /**
     * The node whose refusing FIFO blocked the last failed dispatch;
     * -1 when the feeder is not blocked. This is the culprit the
     * machine kills when it degrades around a deadlocked frame.
     */
    int32_t blockedOn() const { return waiting ? _blockedOn : -1; }

    /** Deschedule every pending dispatch and work event. */
    void cancelPending();

  private:
    class DispatchEvent : public Event
    {
      public:
        explicit DispatchEvent(GeometryFeeder &owner)
            : feeder(owner)
        {}
        void process() override { feeder.dispatchLoop(); }
        const char *description() const override
        { return "geometry dispatch"; }

      private:
        GeometryFeeder &feeder;
    };

    /** Event: node @p p starts the head of its FIFO. */
    class WorkEvent : public Event
    {
      public:
        WorkEvent(GeometryFeeder &owner, uint32_t p)
            : feeder(owner), node(p)
        {}
        void process() override { feeder.runNode(node); }
        const char *description() const override
        { return "node work"; }

      private:
        GeometryFeeder &feeder;
        uint32_t node;
    };

    /** One node's triangle FIFO and the event that drains it. */
    struct Port
    {
        Port(GeometryFeeder &owner, uint32_t p, size_t capacity)
            : fifo(capacity), work(owner, p)
        {}
        BoundedFifo<TriangleWork> fifo;
        WorkEvent work;
        bool frozen = false;
    };

    void dispatchLoop();

    /**
     * Try to dispatch the next triangle.
     * @return false when blocked on a full destination FIFO
     */
    bool tryDispatchOne();

    /**
     * Queue @p work on node @p p (past capacity when @p force) and
     * wake the node if it was idle: it starts as soon as its scan
     * engine is free, which may be in the past.
     */
    void push(uint32_t p, TriangleWork &&work, bool force);

    /** Pop node @p p's FIFO head and run it at the current tick. */
    void runNode(uint32_t p);

    /**
     * Tick at which the next triangle leaves the geometry stage
     * (maxTick-free: 0 when the stage is ideal). Advances the
     * modelled geometry engines as a side effect, so call exactly
     * once per triangle index.
     */
    Tick computeArrival();

    EventQueue &eq;
    const Scene &scene;
    const Distribution &dist;
    std::vector<std::unique_ptr<TextureNode>> &nodes;

    // Structured geometry stage (0 engines = ideal).
    uint32_t geomProcs;
    uint32_t geomCycles;
    std::vector<Tick> geomEngineFree;
    size_t nextGeomEngine = 0;
    Tick nextArrival = 0;       ///< arrival of triangle nextTriangle
    bool arrivalValid = false;

    /** The surviving node that replaces @p dead for one triangle. */
    uint32_t replacementFor(uint32_t dead);

    size_t nextTriangle = 0;
    OverlapScratch scratch;
    std::vector<uint32_t> targets;
    std::vector<uint32_t> dests;
    std::vector<std::unique_ptr<Port>> ports;
    std::vector<bool> alive;
    size_t rerouteCursor = 0;
    size_t redistributeCursor = 0;
    int32_t _blockedOn = -1;
    std::vector<std::vector<NodeFragment>> buckets;
    DispatchEvent dispatchEvent;
    bool waiting = false;
    Tick blockedSince = 0;

    Histogram fifoOccupancy{8.0, 64};
    uint64_t _dispatched = 0;
    uint64_t _degenerate = 0;
    uint64_t _culled = 0;
    uint64_t _blockedCycles = 0;
    uint64_t _fragmentsRerouted = 0;
};

} // namespace texdist

#endif // TEXDIST_CORE_FEEDER_HH
