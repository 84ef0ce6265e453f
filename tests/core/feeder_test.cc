/** @file Tests for the geometry feeder: ordering, blocking, buffering. */

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "core/machine.hh"
#include "scene/builder.hh"

namespace texdist
{
namespace
{

/** Scene: alternating large quads confined to each node's rows. */
Scene
alternatingScene(int pairs)
{
    // Screen 64x64, SLI with 2 procs x 32-line groups: top half is
    // node 0, bottom half node 1.
    SceneBuilder b("alt", 64, 64, 3);
    TextureId tex = b.makeTexture(32, 32);
    for (int i = 0; i < pairs; ++i) {
        b.addQuad(0, 0, 64, 30, tex, 1.0);  // node 0 only
        b.addQuad(0, 34, 64, 64, tex, 1.0); // node 1 only
    }
    return b.take();
}

/** Scene: all of node 0's work first, then all of node 1's. */
Scene
phasedScene(int quads)
{
    SceneBuilder b("phased", 64, 64, 3);
    TextureId tex = b.makeTexture(32, 32);
    for (int i = 0; i < quads; ++i)
        b.addQuad(0, 0, 64, 30, tex, 1.0); // node 0 only
    for (int i = 0; i < quads; ++i)
        b.addQuad(0, 34, 64, 64, tex, 1.0); // node 1 only
    return b.take();
}

MachineConfig
sliConfig(uint32_t buffer)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.dist = DistKind::SLI;
    cfg.tileParam = 32;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    cfg.triangleBufferSize = buffer;
    return cfg;
}

TEST(Feeder, BigBufferDecouplesNodes)
{
    // With an ample buffer both nodes stream their own triangles and
    // finish in parallel: T ~ work per node.
    Scene scene = alternatingScene(8);
    FrameResult r = runFrame(scene, sliConfig(10000));
    uint64_t per_node = r.nodes[0].pixels;
    EXPECT_NEAR(double(r.frameTime), double(per_node),
                double(per_node) * 0.05);
}

TEST(Feeder, AlternatingWorkToleratesTinyBuffer)
{
    // Alternating submission keeps both FIFOs fed even with a
    // 1-entry buffer: no serialization.
    Scene scene = alternatingScene(8);
    Tick big = runFrame(scene, sliConfig(10000)).frameTime;
    Tick tiny = runFrame(scene, sliConfig(1)).frameTime;
    EXPECT_LE(tiny, big + big / 4);
}

TEST(Feeder, TinyBufferSerializesPhasedWork)
{
    // All of node 0's triangles are submitted first: with a tiny
    // FIFO the in-order feeder can't run ahead, so node 1 only
    // starts when node 0 is nearly done — the local load imbalance
    // of Section 8.
    Scene scene = phasedScene(8);
    Tick big = runFrame(scene, sliConfig(10000)).frameTime;
    Tick tiny = runFrame(scene, sliConfig(1)).frameTime;
    EXPECT_GT(tiny, big + big / 2);
}

TEST(Feeder, BufferSizeMonotonicity)
{
    Scene scene = phasedScene(6);
    Tick prev = UINT64_MAX;
    for (uint32_t buffer : {1u, 2u, 4u, 16u, 10000u}) {
        Tick t = runFrame(scene, sliConfig(buffer)).frameTime;
        EXPECT_LE(t, prev) << "buffer " << buffer;
        prev = t;
    }
}

TEST(Feeder, BlockedCyclesReported)
{
    Scene scene = alternatingScene(8);
    ParallelMachine machine(scene, sliConfig(1));
    machine.run();
    EXPECT_GT(machine.feeder().blockedCycles(), 0u);
    ParallelMachine machine2(scene, sliConfig(10000));
    machine2.run();
    EXPECT_EQ(machine2.feeder().blockedCycles(), 0u);
}

TEST(Feeder, CullsOffscreenAndDegenerate)
{
    SceneBuilder b("cull", 64, 64, 1);
    TextureId tex = b.makeTexture(32, 32);
    b.addQuad(100, 100, 200, 200, tex, 1.0); // offscreen
    TexTriangle degen;
    degen.v[0] = {5, 5, 1.0f, 0, 0};
    degen.v[1] = {10, 10, 1.0f, 0, 0};
    degen.v[2] = {15, 15, 1.0f, 0, 0};
    degen.tex = tex;
    b.addTriangle(degen);
    b.addQuad(0, 0, 10, 10, tex, 1.0); // visible
    Scene scene = b.take();

    MachineConfig cfg;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    ParallelMachine machine(scene, cfg);
    FrameResult r = machine.run();
    EXPECT_EQ(machine.feeder().degenerateTriangles(), 1u);
    EXPECT_EQ(machine.feeder().culledTriangles(), 2u);
    EXPECT_EQ(r.trianglesDispatched, 2u);
    EXPECT_EQ(r.totalPixels, 100u);
}

TEST(Feeder, StrictOrderPreservedPerNode)
{
    // Node FIFO max occupancy never exceeds capacity, and with a big
    // buffer the busy node's FIFO fills deep (feeder runs ahead).
    Scene scene = alternatingScene(10);
    ParallelMachine machine(scene, sliConfig(10000));
    FrameResult r = machine.run();
    EXPECT_GT(r.fifoMaxOccupancy, 2u);
    EXPECT_LE(r.fifoMaxOccupancy, 10000u);
}

TEST(Feeder, GeometryEnginesGateArrivals)
{
    // 10 tiny quads (20 triangles), one geometry engine at 100
    // cycles/triangle: the frame cannot finish before 2000 cycles
    // even though drawing is trivial.
    SceneBuilder b("geo", 64, 64, 6);
    TextureId tex = b.makeTexture(32, 32);
    for (int i = 0; i < 10; ++i)
        b.addQuad(float(i * 6), 0, float(i * 6 + 4), 4, tex, 1.0);
    Scene scene = b.take();

    MachineConfig cfg;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    cfg.geometryProcs = 1;
    cfg.geometryCyclesPerTriangle = 100;
    FrameResult r = runFrame(scene, cfg);
    EXPECT_GE(r.frameTime, 2000u);
    EXPECT_LT(r.frameTime, 2200u);

    // Two engines halve the geometry bound.
    cfg.geometryProcs = 2;
    FrameResult r2 = runFrame(scene, cfg);
    EXPECT_GE(r2.frameTime, 1000u);
    EXPECT_LT(r2.frameTime, 1200u);
}

TEST(Feeder, GeometryStageOrderPreserved)
{
    // With several engines the merged stream stays in submission
    // order: total fragments and per-node pixel counts match the
    // ideal-geometry run exactly.
    SceneBuilder b("geo2", 64, 64, 7);
    TextureId tex = b.makeTexture(32, 32);
    for (int i = 0; i < 12; ++i)
        b.addQuad(0, float(i * 5), 64, float(i * 5 + 5), tex, 1.0);
    Scene scene = b.take();

    MachineConfig ideal;
    ideal.numProcs = 2;
    ideal.dist = DistKind::SLI;
    ideal.tileParam = 8;
    ideal.cacheKind = CacheKind::Perfect;
    ideal.infiniteBus = true;
    FrameResult a = runFrame(scene, ideal);

    MachineConfig staged = ideal;
    staged.geometryProcs = 3;
    staged.geometryCyclesPerTriangle = 7;
    FrameResult c = runFrame(scene, staged);
    EXPECT_EQ(a.totalPixels, c.totalPixels);
    for (size_t i = 0; i < a.nodes.size(); ++i)
        EXPECT_EQ(a.nodes[i].pixels, c.nodes[i].pixels);
    EXPECT_GE(c.frameTime, a.frameTime);
}

TEST(Feeder, ManyGeometryEnginesApproachIdeal)
{
    SceneBuilder b("geo3", 64, 64, 8);
    TextureId tex = b.makeTexture(32, 32);
    for (int i = 0; i < 8; ++i)
        b.addQuad(0, 0, 64, 64, tex, 1.0);
    Scene scene = b.take();

    MachineConfig cfg;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    Tick ideal = runFrame(scene, cfg).frameTime;

    cfg.geometryProcs = 16;
    cfg.geometryCyclesPerTriangle = 100;
    Tick staged = runFrame(scene, cfg).frameTime;
    // 16 triangles of ~2048 px each: geometry (100 cycles apiece,
    // 16-wide) is fully hidden behind rasterization.
    EXPECT_LE(staged, ideal + 200);
}

TEST(Feeder, IdleCyclesWhenStarved)
{
    // Node 1's work comes after node 0's in submission order with a
    // tiny buffer: node 1 idles at the start.
    SceneBuilder b("starve", 64, 64, 4);
    TextureId tex = b.makeTexture(32, 32);
    for (int i = 0; i < 6; ++i)
        b.addQuad(0, 0, 64, 30, tex, 1.0); // node 0
    b.addQuad(0, 34, 64, 64, tex, 1.0);    // node 1 last
    Scene scene = b.take();
    ParallelMachine machine(scene, sliConfig(1));
    machine.run();
    EXPECT_GT(machine.node(1).idleCycles(), 1000u);
}

} // namespace
} // namespace texdist
