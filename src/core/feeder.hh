/**
 * @file
 * The geometry stage and sort network, idealized as in Section 3.2:
 * the geometry processors and the interconnection network are never
 * the bottleneck, but strict OpenGL ordering is preserved — the
 * feeder emits triangles in submission order, sending each to every
 * node whose region its bounding box overlaps, and *blocks* whenever
 * any destination FIFO is full. That blocking is the coupling that
 * converts one overloaded node into idle time on all the others
 * when the triangle buffers are small (Section 8).
 */

#ifndef TEXDIST_CORE_FEEDER_HH
#define TEXDIST_CORE_FEEDER_HH

#include <memory>
#include <vector>

#include "core/distribution.hh"
#include "core/node.hh"
#include "scene/scene.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace texdist
{

/** Streams a scene's triangles into the node FIFOs in order. */
class GeometryFeeder
{
  public:
    GeometryFeeder(const Scene &scene, const Distribution &dist,
                   std::vector<std::unique_ptr<TextureNode>> &nodes,
                   EventQueue &eq, const MachineConfig &config);

    /**
     * Schedule the first dispatch at @p when (>= current tick). The
     * geometry engines' availability starts then too, so sequences
     * can begin a frame's geometry at the frame boundary.
     */
    void start(Tick when = 0);

    /** A node freed FIFO space; resume if dispatch was blocked. */
    void notifySpaceFreed();

    /** All triangles dispatched. */
    bool done() const { return nextTriangle >= scene.triangles.size(); }

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

    /**
     * Node @p dead no longer accepts work: fragments its regions own
     * are rerouted round-robin to surviving nodes from now on (the
     * graceful-degradation path — the survivors pay the setup and
     * cache-locality penalty for the foreign regions).
     */
    void markDead(uint32_t dead);

    /** Fragments rerouted away from dead nodes so far. */
    uint64_t fragmentsRerouted() const { return _fragmentsRerouted; }

    /**
     * The node whose refusing FIFO blocked the last failed dispatch;
     * -1 when the feeder is not blocked. This is the culprit the
     * machine kills when it degrades around a deadlocked frame.
     */
    int32_t blockedOn() const { return waiting ? _blockedOn : -1; }

    /** Deschedule any pending dispatch (frame abandonment). */
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

    void dispatchLoop();

    /**
     * Try to dispatch the next triangle.
     * @return false when blocked on a full destination FIFO
     */
    bool tryDispatchOne();

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
    double rate; ///< triangles per cycle; 0 = unlimited

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
    std::vector<bool> alive;
    size_t rerouteCursor = 0;
    int32_t _blockedOn = -1;
    std::vector<std::vector<NodeFragment>> buckets;
    DispatchEvent dispatchEvent;
    bool waiting = false;
    Tick blockedSince = 0;
    double rateCredit = 0.0;
    Tick lastRateTick = 0;

    Histogram fifoOccupancy{8.0, 64};
    uint64_t _dispatched = 0;
    uint64_t _degenerate = 0;
    uint64_t _culled = 0;
    uint64_t _blockedCycles = 0;
    uint64_t _fragmentsRerouted = 0;
};

} // namespace texdist

#endif // TEXDIST_CORE_FEEDER_HH
