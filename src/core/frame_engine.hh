/**
 * @file
 * The deterministic two-phase parallel frame engine.
 *
 * The event-driven machine couples the geometry feeder and the P
 * texture nodes only through FIFO back-pressure; everything else a
 * node does — cache hits, bus transfers, prefetch-queue stalls — is
 * a pure function of its own (push tick, triangle work) stream,
 * because triangle k starts at max(scan-free time after k-1, push
 * tick of k). The engine exploits that:
 *
 *  - Phase 0 (parallel): rasterize every triangle and bucket its
 *    fragments by owning processor. Rasterization has no timing
 *    inputs at all, so triangles fan out over the worker pool.
 *  - Phase 1 (serial, cheap): replay the feeder's timing — geometry
 *    engines and FIFO back-pressure — over the pre-rasterized
 *    buckets, materializing each node's stream
 *    with push ticks. When a FIFO would be full the engine advances
 *    *that node's* simulation just far enough to find the pop that
 *    frees a slot (lazy, conservative coupling); with the default
 *    10000-entry buffers this almost never triggers and phase 1 is
 *    pure arithmetic.
 *  - Phase 2 (parallel): drain every node's remaining stream on the
 *    pool, one node per task.
 *
 * Results merge in node-index order, so counters, digests, CSV rows
 * and checkpoint bytes are bit-exact across any --jobs value — the
 * serial schedule and the parallel schedule are the *same* schedule.
 */

#ifndef TEXDIST_CORE_FRAME_ENGINE_HH
#define TEXDIST_CORE_FRAME_ENGINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/distribution.hh"
#include "core/node.hh"
#include "scene/scene.hh"
#include "sim/thread_pool.hh"

namespace texdist
{

/**
 * One pre-resolved fault action for a frame: what the corresponding
 * event-queue LambdaEvent of the event-driven machine would have
 * done at its tick. A node applies its own actions in (tick, arm
 * order) interleaved with its triangle starts, which reproduces the
 * event engine's (tick, stamp) ordering: fault events are armed
 * before any frame event, so at equal ticks they fire first.
 * Actions after a node's last triangle start wait until the frame's
 * end is known: as in the event-driven machine, a strike at or after
 * it neither applies nor counts, and its recovery goes with it.
 */
struct EngineFaultAction
{
    enum class Kind : uint8_t
    {
        Slowdown, ///< setSlowdown(factor) — strike or recovery
        BusStall, ///< stallBus(stallFrom, stallUntil)
    };

    Tick at = 0;
    uint32_t victim = 0;
    Kind kind = Kind::Slowdown;
    uint32_t factor = 1;
    Tick stallFrom = 0;
    Tick stallUntil = 0;
    /** Index of a recovery's strike in the frame's plan; -1 marks a
     * strike. */
    int32_t strikeIndex = -1;
};

/** Feeder-side outcomes of one two-phase frame. */
struct FrameEngineResult
{
    Tick frameEnd = 0; ///< latest node finish time
    uint32_t faultsInjected = 0; ///< strikes that fired
    Tick lastActionTick = 0;     ///< latest fault action that fired
    uint64_t trianglesDispatched = 0;
    uint64_t degenerateTriangles = 0;
    uint64_t culledTriangles = 0;
    uint64_t feederBlockedCycles = 0;
};

/**
 * Reusable two-phase engine bound to one machine (distribution +
 * nodes). Owns the worker pool and all per-worker scratch (fragment
 * arenas, rasterization buckets), which persist across frames.
 */
class TwoPhaseFrameEngine
{
  public:
    /** @param jobs host threads (>= 1); 1 = fully serial */
    TwoPhaseFrameEngine(
        const MachineConfig &config, const Distribution &dist,
        std::vector<std::unique_ptr<TextureNode>> &nodes,
        uint32_t jobs);

    /**
     * Simulate one frame starting at @p frame_start, mutating the
     * nodes exactly as the event-driven schedule would have.
     * @param actions the frame's fault plan in arm order
     */
    FrameEngineResult runFrame(
        const Scene &scene, Tick frame_start,
        const std::vector<EngineFaultAction> &actions);

    /**
     * Functional (no-timing) execution of one frame for sampled
     * warm-up: phase 0 runs unchanged, then every node consumes its
     * triangle stream in dispatch order through
     * TextureNode::functionalScan, so each cache sees exactly the
     * reference sequence a detailed frame would have shown it while
     * no simulated time passes anywhere. The result carries the
     * dispatch counters; frameEnd stays 0 and no fault actions are
     * accepted (sampled runs exclude fault plans).
     */
    FrameEngineResult runFrameFunctional(const Scene &scene);

    uint32_t jobs() const { return pool.threads(); }

  private:
    /**
     * Bump-allocates fragment arrays in large reusable blocks so a
     * frame's rasterization does one allocation per ~64K fragments
     * instead of one per (triangle, node) bucket. Pointers stay
     * valid until reset(): blocks never reallocate (inserts stay
     * within reserved capacity) and reset() only rewinds sizes.
     */
    // texlint: owned-by-task
    class FragmentArena
    {
      public:
        const NodeFragment *store(const NodeFragment *src, size_t n);
        void reset();

      private:
        static constexpr size_t chunkFrags = size_t(1) << 16;
        std::deque<std::vector<NodeFragment>> blocks;
        size_t active = 0;
    };

    /** Phase-0 output: one node's share of one triangle. */
    struct StreamEntry
    {
        uint32_t dest = 0;
        uint32_t count = 0;
        const NodeFragment *frags = nullptr;
    };

    enum class TriKind : uint8_t { Normal, Degenerate, Culled };

    /** Phase-0 per-triangle slot, indexed by triangle number. */
    struct TriSlot
    {
        TriKind kind = TriKind::Normal;
        uint32_t worker = 0;     ///< whose entry list holds it
        uint32_t entryBegin = 0; ///< index into that worker's entries
        uint32_t entryCount = 0;
    };

    /** Per-worker phase-0 scratch; persists across frames. */
    // texlint: owned-by-task
    struct WorkerCtx
    {
        FragmentArena arena;
        std::vector<StreamEntry> entries;
        OverlapScratch scratch;
        std::vector<uint32_t> targets;
        std::vector<std::vector<NodeFragment>> buckets;
    };

    /** One triangle of a node's materialized stream. */
    struct LaneTri
    {
        Tick push = 0;
        TextureId tex = 0;
        const NodeFragment *frags = nullptr;
        uint32_t count = 0;
    };

    /** Per-node stream state for phases 1 and 2. */
    // texlint: owned-by-task
    struct Lane
    {
        std::vector<LaneTri> stream;
        std::vector<Tick> starts; ///< pop tick of each consumed tri
        size_t next = 0;          ///< first unconsumed stream index
        std::vector<const EngineFaultAction *> actions;
        size_t nextAction = 0;

        size_t pending() const { return stream.size() - next; }
    };

    /**
     * Frame prologue shared by runFrame and runFrameFunctional:
     * reset the slots, arenas and lanes, then run phase 0.
     */
    void rasterizeFrame(const Scene &scene);
    void rasterizeOne(const Scene &scene, uint32_t worker,
                      size_t tri);
    Tick consumeOne(Lane &lane, TextureNode &node);
    void applyAction(TextureNode &node,
                     const EngineFaultAction &action);
    /** Pop-before-push-at-equal-tick occupancy high-water. */
    static size_t fifoHighWater(const Lane &lane);

    // texlint: shared(immutable machine description, read-only)
    const MachineConfig &cfg;
    // texlint: shared(immutable screen-ownership map, read-only)
    const Distribution &dist;
    // texlint: shared(vector shape is fixed before any phase starts)
    std::vector<std::unique_ptr<TextureNode>> &nodes;
    // texlint: shared(tasks are only ever submitted from serial code)
    ThreadPool pool;
    // texlint: owned-by-task
    std::vector<WorkerCtx> workers; ///< one per worker, by worker id
    // texlint: owned-by-task
    std::vector<TriSlot> slots; ///< one per triangle, by task index
    // texlint: owned-by-task
    std::vector<Lane> lanes; ///< one per node, by phase-2 task index
};

} // namespace texdist

#endif // TEXDIST_CORE_FRAME_ENGINE_HH
