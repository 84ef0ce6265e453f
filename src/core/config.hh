/**
 * @file
 * Configuration of the parallel sort-middle machine (Section 3 of
 * the paper). Defaults reproduce the paper's fixed parameters.
 */

#ifndef TEXDIST_CORE_CONFIG_HH
#define TEXDIST_CORE_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/cache.hh"
#include "core/distribution.hh"
#include "fault/fault.hh"

namespace texdist
{

/**
 * What the machine does when a frame deadlocks: the event queue
 * drains while work remains, because a FIFO refuses forever.
 */
enum class WatchdogPolicy
{
    /** Abandon the frame with a structured diagnostic dump. */
    FailFrame,

    /**
     * Declare the culprit node dead and redistribute its work so
     * the frame completes degraded; falls back to FailFrame when no
     * culprit can be identified or no node would survive.
     */
    Degrade,
};

/** Full description of one machine configuration. */
struct MachineConfig
{
    /** Number of texture-mapping processors. */
    uint32_t numProcs = 1;

    /** Tile shape: square blocks or scan-line groups. */
    DistKind dist = DistKind::Block;

    /** Block width in pixels, or lines per SLI group. */
    uint32_t tileParam = 16;

    /** Tile-to-processor interleave order. */
    InterleaveOrder interleave = InterleaveOrder::Raster;

    /** Which texture cache each node has. */
    CacheKind cacheKind = CacheKind::SetAssoc;

    /** Real-cache geometry (paper: 16 KB, 4-way, 64 B lines). */
    CacheGeometry cacheGeom{};

    /**
     * Add a board-level L2 behind each node's L1 (Cox-style, the
     * paper's Section 9 future work). Only meaningful with
     * cacheKind == SetAssoc; misses counted on the external bus are
     * then L2 misses.
     */
    bool hasL2 = false;

    /** L2 geometry (Cox: 2-8 MB). */
    CacheGeometry l2Geom{2 * 1024 * 1024, 8, 64};

    /**
     * Enforce strict L1 ⊆ L2 inclusion (L2 evictions back-invalidate
     * the L1). Off by default: the seed hierarchy is inclusive-fill
     * but lets the levels age independently. When set, the oracle
     * additionally verifies the inclusion property structurally.
     */
    bool l2Inclusive = false;

    /**
     * External bus bandwidth in texels per cycle — the paper's
     * "maximum texel-to-fragment ratio the bus may transfer"
     * (studied at 1 and 2). Ignored when infiniteBus is set.
     */
    double busTexelsPerCycle = 1.0;

    /** Disable the bandwidth limit (used for locality-only runs). */
    bool infiniteBus = false;

    /**
     * Triangle FIFO entries ahead of each texture-mapping engine.
     * The paper uses 10000 ("big enough to hide local load
     * imbalance") everywhere except the Section 8 sweep.
     */
    uint32_t triangleBufferSize = 10000;

    /**
     * Setup engine throughput: cycles per triangle; a triangle
     * occupying fewer pixels than this on a node still costs this
     * many cycles (paper: 25, from Chen et al.).
     */
    uint32_t setupCyclesPerTriangle = 25;

    /**
     * Fragments allowed in flight between the scan engine and
     * texture filtering (the prefetch/pixel FIFO of Igehy et al.
     * that hides memory latency). Bounds how far the scan can run
     * ahead of the bus, which is what makes miss *bursts* stall the
     * pipeline even when average bandwidth suffices.
     */
    uint32_t prefetchQueueDepth = 64;

    /**
     * Structured geometry-stage model (the factor the paper's
     * Section 2.3 lists first and then idealizes): the number of
     * parallel geometry processors, each spending
     * geometryCyclesPerTriangle on transform/lighting per triangle,
     * feeding the in-order sort network. 0 processors = ideal stage.
     * Triangles are assigned to geometry engines round-robin and
     * re-merged in submission order, so one slow engine delays the
     * whole ordered stream.
     */
    uint32_t geometryProcs = 0;

    /** Transform + lighting cycles per triangle per geometry engine. */
    uint32_t geometryCyclesPerTriangle = 100;

    /** Faults to inject during the frame (default: none). */
    FaultPlan faults;

    /**
     * Response to a deadlocked frame (`--watchdog=`). Not part of
     * describe(): it changes nothing unless the frame deadlocks.
     */
    WatchdogPolicy watchdogPolicy = WatchdogPolicy::FailFrame;

    /** One-line description for reports. */
    std::string describe() const;
};

} // namespace texdist

#endif // TEXDIST_CORE_CONFIG_HH
