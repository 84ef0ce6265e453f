/**
 * @file
 * Determinism suite for the two-phase parallel frame engine: the
 * host job count must never change a single result bit. Digests
 * cover every per-frame statistic (see digestFrame), so equality
 * here is equality of results, CSV rows and manifests.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/interframe.hh"
#include "core/machine.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "scene/builder.hh"
#include "sim/checkpoint.hh"

namespace texdist
{
namespace
{

Scene
wallScene(uint32_t screen = 128)
{
    SceneBuilder b("wall", screen, screen, 97);
    auto pool = b.makeTexturePool(6, 32, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    return b.take();
}

MachineConfig
blockConfig(uint32_t procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.dist = DistKind::Block;
    cfg.tileParam = 16;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.busTexelsPerCycle = 1.0;
    return cfg;
}

MachineConfig
sliConfig(uint32_t procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.dist = DistKind::SLI;
    cfg.tileParam = 4;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.hasL2 = true;
    cfg.l2Geom = CacheGeometry{1024 * 1024, 8, 64};
    cfg.busTexelsPerCycle = 1.0;
    return cfg;
}

/** Run @p frames panning frames and return the per-frame digests. */
std::vector<uint64_t>
runDigests(const Scene &scene, const MachineConfig &cfg,
           uint32_t frames, uint32_t jobs)
{
    SequenceMachine machine(scene, cfg, jobs);
    std::vector<uint64_t> digests;
    for (uint32_t f = 0; f < frames; ++f) {
        Scene frame = translateScene(scene, float(4 * f), 0.0f);
        digests.push_back(digestFrame(machine.runFrame(frame)));
    }
    return digests;
}

void
expectJobsInvariant(const Scene &scene, const MachineConfig &cfg,
                    uint32_t frames)
{
    std::vector<uint64_t> serial =
        runDigests(scene, cfg, frames, 1);
    for (uint32_t jobs : {4u, 8u}) {
        std::vector<uint64_t> threaded =
            runDigests(scene, cfg, frames, jobs);
        ASSERT_EQ(threaded.size(), serial.size());
        for (size_t f = 0; f < serial.size(); ++f)
            EXPECT_EQ(threaded[f], serial[f])
                << "jobs=" << jobs << " diverged at frame " << f;
    }
}

TEST(ParallelEngine, JobsInvariantOnBlockDistribution)
{
    expectJobsInvariant(wallScene(), blockConfig(8), 3);
}

TEST(ParallelEngine, JobsInvariantOnSliWithL2)
{
    expectJobsInvariant(wallScene(), sliConfig(8), 3);
}

TEST(ParallelEngine, JobsInvariantUnderFifoBackPressure)
{
    // A 4-entry triangle buffer forces the feeder to block on full
    // FIFOs, exercising the engine's lazy feeder-node coupling.
    MachineConfig cfg = blockConfig(4);
    cfg.triangleBufferSize = 4;
    expectJobsInvariant(wallScene(), cfg, 2);
}

TEST(ParallelEngine, JobsInvariantWithGeometryStageAndRate)
{
    // Finite dispatch rate plus modelled geometry engines: the
    // credit and arrival arithmetic runs in the serial phase and
    // must not see the job count either.
    MachineConfig cfg = blockConfig(4);
    cfg.triangleBufferSize = 8;
    cfg.geometryTrianglesPerCycle = 0.02;
    cfg.geometryProcs = 2;
    cfg.geometryCyclesPerTriangle = 120;
    expectJobsInvariant(wallScene(), cfg, 2);
}

TEST(ParallelEngine, JobsInvariantUnderFaultInjection)
{
    MachineConfig cfg = sliConfig(8);
    cfg.faults.add("slow-node:rand,at=2000,for=4000,x=6");
    cfg.faults.add("bus-stall:2,at=1000,for=2000");
    cfg.faults.seed = 7;
    expectJobsInvariant(wallScene(), cfg, 3);
}

TEST(ParallelEngine, BlockedFrameMatchesEventDrivenMachine)
{
    // Cross-engine anchor for the back-pressure path: with no
    // dispatch-rate modelling, the two-phase schedule under blocking
    // must reproduce the event-driven machine's timing exactly.
    Scene scene = wallScene();
    MachineConfig cfg = blockConfig(4);
    cfg.triangleBufferSize = 4;

    FrameResult event_driven = runFrame(scene, cfg);
    std::vector<Scene> frames;
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    SequenceResult seq = runFrameSequence(frames, cfg, 4);
    ASSERT_EQ(seq.frames.size(), 1u);
    EXPECT_EQ(seq.frames[0].frameTime, event_driven.frameTime);
    EXPECT_EQ(seq.frames[0].totalPixels, event_driven.totalPixels);
    EXPECT_EQ(seq.frames[0].totalTexelsFetched,
              event_driven.totalTexelsFetched);
    // The buffer must actually have filled, or this config is not
    // exercising the back-pressure path at all.
    EXPECT_EQ(seq.frames[0].fifoMaxOccupancy, 4u);
}

/** Background walls plus two clusters of small triangles. */
Scene
clusterScene(uint32_t screen = 128)
{
    SceneBuilder b("clusters", screen, screen, 41);
    auto pool = b.makeTexturePool(4, 16, 64);
    b.addBackgroundLayer(pool, 48, 48, 0.5);
    b.addCluster(40, 50, 18, 120, 30.0, pool[0], 1.0);
    b.addCluster(96, 88, 12, 80, 20.0, pool[1], 2.0);
    return b.take();
}

/**
 * runFrame (event-driven) against a one-frame SequenceMachine
 * (two-phase): frame time and every NodeResult counter must agree.
 */
void
expectEnginesAgree(const Scene &scene, const MachineConfig &cfg,
                   const std::string &what)
{
    FrameResult ev = runFrame(scene, cfg);
    SequenceMachine machine(scene, cfg, 1);
    FrameResult tp = machine.runFrame(scene);

    ASSERT_FALSE(ev.failed) << what;
    ASSERT_FALSE(tp.failed) << what;
    EXPECT_EQ(tp.frameTime, ev.frameTime) << what;
    EXPECT_EQ(tp.totalPixels, ev.totalPixels) << what;
    EXPECT_EQ(tp.totalTexelsFetched, ev.totalTexelsFetched) << what;
    EXPECT_EQ(tp.trianglesDispatched, ev.trianglesDispatched) << what;
    ASSERT_EQ(tp.nodes.size(), ev.nodes.size()) << what;
    for (size_t n = 0; n < ev.nodes.size(); ++n) {
        const NodeResult &a = ev.nodes[n];
        const NodeResult &b = tp.nodes[n];
        std::string at = what + " node" + std::to_string(n);
        EXPECT_EQ(b.pixels, a.pixels) << at;
        EXPECT_EQ(b.triangles, a.triangles) << at;
        EXPECT_EQ(b.finishTime, a.finishTime) << at;
        EXPECT_EQ(b.cacheAccesses, a.cacheAccesses) << at;
        EXPECT_EQ(b.cacheMisses, a.cacheMisses) << at;
        EXPECT_EQ(b.texelsFetched, a.texelsFetched) << at;
        EXPECT_EQ(b.stallCycles, a.stallCycles) << at;
        EXPECT_EQ(b.idleCycles, a.idleCycles) << at;
        EXPECT_EQ(b.setupBoundTriangles, a.setupBoundTriangles) << at;
        EXPECT_EQ(b.setupWaitCycles, a.setupWaitCycles) << at;
        EXPECT_EQ(b.busUtilization, a.busUtilization) << at;
        // Known gap: in the event-driven machine the feeder's
        // initial same-tick burst lands before the node's first pop
        // at that tick, while fifoHighWater's pops-win-ties replay
        // lets that pop go first. The event-driven high-water mark
        // can therefore read exactly one higher. Closing the gap on
        // either side changes golden digests, so it waits for the
        // merge of the two timing engines (ROADMAP.md).
        EXPECT_TRUE(a.fifoMaxOccupancy == b.fifoMaxOccupancy ||
                    a.fifoMaxOccupancy == b.fifoMaxOccupancy + 1)
            << at << ": event-driven " << a.fifoMaxOccupancy
            << ", two-phase " << b.fifoMaxOccupancy;
    }
}

/**
 * Differential matrix for retiring the event-driven machine: procs
 * {4, 16, 64} x tile {2, 8, 32} x triangle buffer {1, 4, 500,
 * 10000} on two small scenes. Block runs the flat L1, SLI the
 * two-level hierarchy (see the two config helpers).
 */
void
expectMatrixAgrees(DistKind dist)
{
    const Scene scenes[] = {wallScene(), clusterScene()};
    for (const Scene &scene : scenes) {
        for (uint32_t procs : {4u, 16u, 64u}) {
            for (uint32_t tile : {2u, 8u, 32u}) {
                for (uint32_t buffer : {1u, 4u, 500u, 10000u}) {
                    MachineConfig cfg = dist == DistKind::Block
                                            ? blockConfig(procs)
                                            : sliConfig(procs);
                    cfg.tileParam = tile;
                    cfg.triangleBufferSize = buffer;
                    expectEnginesAgree(
                        scene, cfg,
                        scene.name + " procs=" + std::to_string(procs) +
                            " tile=" + std::to_string(tile) +
                            " buffer=" + std::to_string(buffer));
                }
            }
        }
    }
}

TEST(ParallelEngine, BlockMatrixMatchesEventDrivenMachine)
{
    expectMatrixAgrees(DistKind::Block);
}

TEST(ParallelEngine, SliMatrixMatchesEventDrivenMachine)
{
    expectMatrixAgrees(DistKind::SLI);
}

TEST(ParallelEngine, CheckpointBytesAreJobsInvariant)
{
    Scene scene = wallScene();
    MachineConfig cfg = sliConfig(8);

    auto checkpoint_bytes = [&](uint32_t jobs) {
        SequenceMachine machine(scene, cfg, jobs);
        for (uint32_t f = 0; f < 2; ++f) {
            Scene frame = translateScene(scene, float(4 * f), 0.0f);
            machine.runFrame(frame);
        }
        CheckpointWriter w;
        machine.serialize(w);
        std::string path = ::testing::TempDir() +
                           "/jobs" + std::to_string(jobs) + ".ckpt";
        w.writeFile(path);
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };

    std::string serial = checkpoint_bytes(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(checkpoint_bytes(4), serial);
    EXPECT_EQ(checkpoint_bytes(8), serial);
}

TEST(ParallelEngine, RestoreThenThreadedMatchesSerialRun)
{
    // A checkpoint written by a serial run must resume bit-exactly
    // on a threaded machine (and vice versa): the job count is a
    // host parameter, not machine state.
    Scene scene = wallScene();
    MachineConfig cfg = blockConfig(8);
    constexpr uint32_t total_frames = 4;

    std::vector<uint64_t> reference =
        runDigests(scene, cfg, total_frames, 1);

    std::string path =
        ::testing::TempDir() + "/restore_threaded.ckpt";
    {
        SequenceMachine machine(scene, cfg, 1);
        for (uint32_t f = 0; f < 2; ++f) {
            Scene frame = translateScene(scene, float(4 * f), 0.0f);
            machine.runFrame(frame);
        }
        CheckpointWriter w;
        machine.serialize(w);
        w.writeFile(path);
    }
    {
        SequenceMachine machine(scene, cfg, 8);
        CheckpointReader r(path);
        machine.restore(r);
        EXPECT_EQ(machine.framesRun(), 2u);
        for (uint32_t f = 2; f < total_frames; ++f) {
            Scene frame = translateScene(scene, float(4 * f), 0.0f);
            EXPECT_EQ(digestFrame(machine.runFrame(frame)),
                      reference[f])
                << "threaded resume diverged at frame " << f;
        }
    }
}

} // namespace
} // namespace texdist
