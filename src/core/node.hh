/**
 * @file
 * The texture-mapping node of Figure 3: triangle FIFO, setup engine
 * (one triangle per 25 cycles), pixel scan (one pixel per cycle), an
 * on-chip texture cache, a fragment prefetch queue, and the
 * bandwidth-limited bus to the node's private texture memory.
 *
 * Timing model:
 *  - A triangle occupies the node for max(setupCycles, scan time):
 *    a triangle with a small intersection with the node's region is
 *    setup-bound — the paper's small-tile overhead.
 *  - The scan issues one fragment per cycle. Each fragment makes 8
 *    texel references; missed lines are transferred in request order
 *    over the bus at R texels/cycle. Memory latency is hidden by the
 *    prefetch queue (Igehy et al.): a fragment only *retires* when
 *    its texels have arrived, and the scan stalls when the queue of
 *    unretired fragments reaches its depth. Sustained misses beyond
 *    the bus bandwidth therefore throttle the scan; short bursts are
 *    absorbed by the queue.
 */

#ifndef TEXDIST_CORE_NODE_HH
#define TEXDIST_CORE_NODE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "core/config.hh"
#include "core/coverage.hh"
#include "mem/bus.hh"
#include "sim/fifo.hh"
#include "sim/sim_object.hh"
#include "texture/manager.hh"

namespace texdist
{

class GeometryFeeder;

/** One fragment as dispatched to a node. */
struct NodeFragment
{
    uint16_t x;
    uint16_t y;
    float u;
    float v;
    float lod;
};

/** One triangle FIFO entry: the node's share of a triangle. */
struct TriangleWork
{
    TextureId tex = 0;
    std::vector<NodeFragment> frags;
};

/** A texture-mapping engine plus its cache, bus and triangle FIFO. */
// texlint: owned-by-task
class TextureNode : public SimObject
{
  public:
    TextureNode(uint32_t id, const MachineConfig &config,
                const TextureManager &textures, EventQueue &eq);

    /** The feeder to notify when FIFO space frees. */
    void setFeeder(GeometryFeeder *f) { feeder = f; }

    uint32_t id() const { return nodeId; }

    /**
     * Free entries in the triangle FIFO. A frozen or dead node
     * accepts nothing, which is how a fault back-pressures the
     * in-order feeder.
     */
    bool
    fifoHasSpace() const
    {
        return !_frozen && !_dead && !fifo.full();
    }

    /** Current triangle FIFO occupancy. */
    size_t fifoOccupancy() const { return fifo.size(); }

    /**
     * Push one triangle's work (called by the feeder at the current
     * tick). The caller must have checked fifoHasSpace().
     */
    void enqueue(TriangleWork &&work);

    /**
     * Push one triangle's work ignoring FIFO capacity — graceful
     * degradation migrating a dead node's queue onto a survivor.
     */
    void forceEnqueue(TriangleWork &&work);

    // --- two-phase (queue-free) execution --------------------------------
    //
    // The deterministic parallel engine bypasses the event queue and
    // the FIFO object: the node's evolution is a pure function of
    // its (push tick, work) stream, because triangle k starts at
    // max(scan-free time after k-1, push tick of k) — exactly when
    // the event-driven machine would have fired its work event.

    /** Tick at which work pushed at @p push_tick would start. */
    Tick
    nextStart(Tick push_tick) const
    {
        return std::max(cpuTime, push_tick);
    }

    /**
     * Process one triangle pushed at @p push_tick directly,
     * replicating processNext() exactly (idle accounting, scan,
     * setup bound) without event-queue or FIFO involvement.
     * @return the start tick, i.e. when the event-driven machine
     *         would have popped this triangle from the FIFO
     */
    Tick consumeDirect(Tick push_tick, TextureId tex,
                       const NodeFragment *frags, size_t count);

    /**
     * Fold the FIFO occupancy high-water computed by the two-phase
     * engine into this node's FIFO statistic (and thus into results
     * and checkpoints).
     */
    void noteFifoHighWater(size_t hw) { fifo.noteOccupancy(hw); }

    /**
     * Functional (no-timing) execution of one triangle for sampled
     * warm-up frames: the cache sees every texel reference of every
     * fragment in exactly the order the detailed scan would issue
     * them — so tags, LRU state and the access/miss counters evolve
     * identically — but no simulated time passes: the engine clocks,
     * prefetch ring, stall/idle accounting and the bus are untouched.
     * Work counters (triangles, pixels) advance as in detailed mode.
     */
    void functionalScan(TextureId tex, const NodeFragment *frags,
                        size_t count);

    /** Tick at which this node has fully finished (idle + retired). */
    Tick finishTime() const;

    // --- fault hooks ---------------------------------------------------

    /**
     * Run the scan and setup engines @p factor times slower
     * (1 restores full speed) — the slow-node fault.
     */
    void setSlowdown(uint32_t factor);

    uint32_t slowdown() const { return _slowdown; }

    /** Stop/resume accepting triangles — the fifo-freeze fault. */
    void freezeFifo() { _frozen = true; }
    void unfreezeFifo() { _frozen = false; }
    bool frozen() const { return _frozen; }

    /**
     * Declare the node dead: it stops processing and returns its
     * queued (not yet started) work for redistribution. The triangle
     * already in flight completes — its cycles and pixels were
     * committed when it started. Idempotent-hostile: callers check
     * isDead() first.
     */
    std::vector<TriangleWork> kill();

    bool isDead() const { return _dead; }

    /** Deschedule any pending work event (frame abandonment). */
    void cancelPending();

    /**
     * Inject a bus blackout over [from, until); no-op (with a
     * warning) when the configuration has an infinite bus.
     */
    void stallBus(Tick from, Tick until);

    // --- results -------------------------------------------------------

    uint64_t pixelsDrawn() const { return _pixelsDrawn; }
    uint64_t trianglesReceived() const { return _trianglesReceived; }

    /** Triangles whose node time was bound by the setup engine. */
    uint64_t setupBoundTriangles() const { return _setupBound; }

    /** Cycles the scan stalled on the full prefetch queue. */
    uint64_t stallCycles() const { return _stallCycles; }

    /** Cycles the node spent idle waiting for triangles. */
    uint64_t idleCycles() const { return _idleCycles; }

    /** Cycles added waiting for the setup engine (small triangles). */
    uint64_t setupWaitCycles() const { return _setupWaitCycles; }

    const TextureCache &cache() const { return *cache_; }

    // --- oracle hooks --------------------------------------------------
    //
    // All host-side observation: none of these change simulated
    // timing, digests or checkpoints unless a planted-bug knob is
    // deliberately enabled (and those are only ever enabled by the
    // texmeta mutation self-test, never by a simulation run).

    /**
     * Point the node at a frame-coverage map; every drawn fragment
     * is noted into it. Null detaches.
     */
    void setCoverageSink(FrameCoverage *sink) { coverage = sink; }

    /**
     * Surrender the cache so the oracle can wrap it in a shadowed
     * differential decorator; installCacheForOracle() puts the
     * wrapper (or the original) back. The node must be between
     * accesses when either is called.
     */
    std::unique_ptr<TextureCache>
    takeCacheForOracle()
    {
        return std::move(cache_);
    }

    void
    installCacheForOracle(std::unique_ptr<TextureCache> c)
    {
        cache_ = std::move(c);
    }

    /**
     * Planted bug: report the first fragment of every triangle one
     * pixel off (x xor 1) to the coverage sink. Simulated results
     * are untouched — only the oracle's coverage map lies, which is
     * exactly what its spatial check must catch.
     */
    void debugPlantCoverageShift() { _plantCoverageShift = true; }

    /**
     * Planted bug: the first texel reference of each triangle's
     * first fragment skips the cache entirely, leaking one access
     * per triangle out of the sampler → cache → bus conservation
     * ledger the oracle balances.
     */
    void debugPlantTexelLeak() { _plantTexelLeak = true; }

    /** Null when the configuration uses an infinite bus. */
    const TextureBus *bus() const { return bus_.get(); }

    size_t fifoMaxOccupancy() const { return fifo.maxOccupancy(); }

    /** Distribution of per-triangle pixel counts on this node. */
    const Histogram &trianglePixelsHistogram() const
    { return trianglePixels; }

    /**
     * Serialize the node's complete mutable state: engine clocks,
     * prefetch retire ring, fault flags, counters, triangle FIFO
     * contents, cache tag arrays and bus position. A node restored
     * from this state continues bit-exactly where the original
     * stood.
     */
    void serialize(CheckpointWriter &w) const;

    /**
     * Restore state serialized by a node with the same id and
     * configuration; fatal on mismatch. If the restored FIFO is
     * non-empty the work event is rescheduled so the queued
     * triangles drain.
     */
    void unserialize(CheckpointReader &r);

  private:
    /** Event: start processing the FIFO head. */
    class WorkEvent : public Event
    {
      public:
        explicit WorkEvent(TextureNode &owner) : node(owner) {}
        void process() override { node.processNext(); }
        const char *description() const override
        { return "node work"; }

      private:
        TextureNode &node;
    };

    void processNext();

    /**
     * Shared core of processNext and consumeDirect: charge one
     * triangle (idle time, counters, fragment scan, setup engine)
     * starting at @p start and advance the scan-free time.
     */
    void runTriangle(TextureId tex, const NodeFragment *frags,
                     size_t count, Tick start);

    /** Scan one triangle's fragments starting at @p start. */
    Tick scanFragments(TextureId tex, const NodeFragment *frags,
                       size_t count, Tick start);

    uint32_t nodeId;
    // texlint: allow(checkpoint) construction state; restore validates
    // the prefetch ring against it
    MachineConfig cfg;
    const TextureManager &textures;
    // texlint: allow(checkpoint) wiring, re-established by the machine
    GeometryFeeder *feeder = nullptr;

    std::unique_ptr<TextureCache> cache_;
    std::unique_ptr<TextureBus> bus_;
    BoundedFifo<TriangleWork> fifo;
    // texlint: allow(checkpoint) rescheduled from the restored FIFO, not
    // stored
    WorkEvent workEvent;

    /** When the scan engine is next free. */
    Tick cpuTime = 0;

    /**
     * Retire times of the last prefetchQueueDepth fragments; the scan
     * may not run more than the queue depth ahead of retirement.
     */
    std::vector<Tick> retireRing;
    size_t ringHead = 0;
    Tick lastRetire = 0;

    // Scratch for batched texel-address generation (not state: the
    // scan refills it per chunk). SoA copies of the fragment
    // coordinates feed TrilinearSampler::generateBatch, whose
    // addresses land in addrScratch for the timing loop to walk.
    // texlint: allow(checkpoint) per-chunk scratch, refilled before use
    std::vector<uint64_t> addrScratch;
    // texlint: allow(checkpoint) per-chunk scratch, refilled before use
    std::vector<float> uScratch;
    // texlint: allow(checkpoint) per-chunk scratch, refilled before use
    std::vector<float> vScratch;
    // texlint: allow(checkpoint) per-chunk scratch, refilled before use
    std::vector<float> lodScratch;

    uint32_t _slowdown = 1;
    bool _frozen = false;
    bool _dead = false;

    // texlint: allow(checkpoint) host-side oracle observation, not state
    FrameCoverage *coverage = nullptr;
    // texlint: allow(checkpoint) debug-only planted-bug knob
    bool _plantCoverageShift = false;
    // texlint: allow(checkpoint) debug-only planted-bug knob
    bool _plantTexelLeak = false;

    Histogram trianglePixels{4.0, 64};
    uint64_t _pixelsDrawn = 0;
    uint64_t _trianglesReceived = 0;
    uint64_t _setupBound = 0;
    uint64_t _stallCycles = 0;
    uint64_t _idleCycles = 0;
    uint64_t _setupWaitCycles = 0;
};

} // namespace texdist

#endif // TEXDIST_CORE_NODE_HH
