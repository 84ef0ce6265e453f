/** @file Tests for the sort-last comparator machine. */

#include <gtest/gtest.h>

#include "core/replay.hh"
#include "core/sortlast.hh"
#include "scene/benchmarks.hh"
#include "scene/builder.hh"
#include "sim/checkpoint.hh"

namespace texdist
{
namespace
{

Scene
gridScene(int quads, uint32_t screen = 128)
{
    SceneBuilder b("grid", screen, screen, 11);
    TextureId tex = b.makeTexture(64, 64);
    int per_row = 8;
    float cell = float(screen) / float(per_row);
    for (int i = 0; i < quads; ++i) {
        float x = float(i % per_row) * cell;
        float y = float((i / per_row) % per_row) * cell;
        b.addQuad(x, y, x + cell, y + cell, tex, 1.0);
    }
    return b.take();
}

SortLastConfig
baseConfig(uint32_t procs, CacheKind cache = CacheKind::Perfect)
{
    SortLastConfig cfg;
    cfg.node.numProcs = procs;
    cfg.node.cacheKind = cache;
    cfg.node.infiniteBus = true;
    return cfg;
}

TEST(SortLast, AllFragmentsRendered)
{
    Scene scene = gridScene(64);
    FrameResult r = runSortLastFrame(scene, baseConfig(4)).frame;
    EXPECT_EQ(r.totalPixels, 128u * 128u);
    uint64_t tris = 0;
    for (const NodeResult &n : r.nodes)
        tris += n.triangles;
    EXPECT_EQ(tris, 128u); // 64 quads, each node gets its own only
}

TEST(SortLast, NoTriangleDuplication)
{
    // Unlike sort-middle, a triangle lives on exactly one node:
    // total setup work is independent of P.
    Scene scene = gridScene(64);
    for (uint32_t procs : {1u, 4u, 16u}) {
        FrameResult r =
            runSortLastFrame(scene, baseConfig(procs)).frame;
        uint64_t tris = 0;
        for (const NodeResult &n : r.nodes)
            tris += n.triangles;
        EXPECT_EQ(tris, 128u) << procs << " procs";
    }
}

TEST(SortLast, RoundRobinBalances)
{
    Scene scene = gridScene(64);
    // Use 3 nodes so the two (unequal) halves of each quad don't
    // correlate with the round-robin stride.
    FrameResult r = runSortLastFrame(scene, baseConfig(3)).frame;
    EXPECT_LT(r.pixelImbalancePercent, 2.0);
}

TEST(SortLast, SpeedupNearLinearOnUniformWork)
{
    Scene scene = gridScene(64, 256);
    Tick t1 = runSortLastFrame(scene, baseConfig(1)).frame.frameTime;
    Tick t8 = runSortLastFrame(scene, baseConfig(8)).frame.frameTime;
    double speedup = double(t1) / double(t8);
    EXPECT_GT(speedup, 6.5);
    EXPECT_LE(speedup, 8.001);
}

TEST(SortLast, ChunkedAssignmentKeepsRunsTogether)
{
    Scene scene = gridScene(64);
    SortLastConfig cfg = baseConfig(4);
    cfg.chunkSize = 16;
    FrameResult r = runSortLastFrame(scene, cfg).frame;
    // 128 triangles in 8 chunks of 16 over 4 nodes: 2 chunks each.
    for (const NodeResult &n : r.nodes)
        EXPECT_EQ(n.triangles, 32u);
}

TEST(SortLast, RoundRobinScattersTextureLocality)
{
    // Consecutive triangles walk a texture coherently; round-robin
    // destroys that per-node coherence, chunked keeps it.
    SceneBuilder b("walk", 256, 256, 9);
    TextureId tex = b.makeTexture(256, 256);
    // A strip of quads advancing through the texture.
    for (int i = 0; i < 16; ++i)
        b.addQuad(float(i * 16), 0, float(i * 16 + 16), 256, tex,
                  1.0);
    Scene scene = b.take();

    SortLastConfig cfg = baseConfig(8, CacheKind::SetAssoc);
    cfg.chunkSize = 1;
    double rr = runSortLastFrame(scene, cfg).frame.texelToFragmentRatio;
    cfg.chunkSize = 4;
    double ch = runSortLastFrame(scene, cfg).frame.texelToFragmentRatio;
    EXPECT_LE(ch, rr + 1e-9);
}

TEST(SortLast, CompositionCostAdds)
{
    Scene scene = gridScene(64);
    SortLastConfig cfg = baseConfig(4);
    cfg.compositePixelsPerCycle = 8.0;
    SortLastResult r = runSortLastFrame(scene, cfg);
    // ceil(log2 4) = 2 stages x 16384 px / 8 px/cycle = 4096.
    EXPECT_EQ(r.compositionCycles, 4096u);
    EXPECT_EQ(r.frame.frameTime, r.renderTime + 4096u);

    SortLastConfig free_cfg = baseConfig(4);
    SortLastResult free_r = runSortLastFrame(scene, free_cfg);
    EXPECT_EQ(free_r.compositionCycles, 0u);
    EXPECT_EQ(free_r.frame.frameTime, free_r.renderTime);
}

TEST(SortLast, SingleNodeMatchesSortMiddleBaseline)
{
    // With one node, sort-last and sort-middle are the same machine
    // (all triangles, whole screen): frame times agree.
    Scene scene = gridScene(64);
    FrameResult sl = runSortLastFrame(scene, baseConfig(1)).frame;

    MachineConfig sm;
    sm.numProcs = 1;
    sm.tileParam = 128;
    sm.cacheKind = CacheKind::Perfect;
    sm.infiniteBus = true;
    FrameResult smr = runFrame(scene, sm);
    EXPECT_EQ(sl.frameTime, smr.frameTime);
    EXPECT_EQ(sl.totalPixels, smr.totalPixels);
}

TEST(SortLastDeath, BadConfig)
{
    Scene scene = gridScene(4);
    SortLastConfig cfg = baseConfig(0);
    EXPECT_EXIT(runSortLastFrame(scene, cfg),
                ::testing::ExitedWithCode(1), "at least one");
    cfg = baseConfig(2);
    cfg.chunkSize = 0;
    EXPECT_EXIT(runSortLastFrame(scene, cfg),
                ::testing::ExitedWithCode(1), "chunk size");
}

/**
 * Digests of the event-queue sort-last machine this one replaced
 * (every triangle enqueued at tick 0, then the queue run), recorded
 * before that path was deleted. `frame` is digestFrame of the
 * result; `ratios` mixes the bits of the texel/fragment ratio, the
 * pixel imbalance and every node's bus utilization, which
 * digestFrame leaves out.
 */
struct SortLastPin
{
    const char *scene;
    int setup; ///< see pinnedNodeConfig
    uint32_t procs;
    uint32_t chunk;
    uint64_t frame;
    uint64_t ratios;
};

const SortLastPin sortLastPins[] = {
    {"quake", 0, 1u, 1u, 0x32005b37fa9e6f6eull, 0xae706f6094097a47ull},
    {"quake", 0, 1u, 8u, 0x32005b37fa9e6f6eull, 0xae706f6094097a47ull},
    {"quake", 0, 3u, 1u, 0x05991625d7be9fbdull, 0xac9d95b2b767267bull},
    {"quake", 0, 3u, 8u, 0x9bb339ea7005017eull, 0x559786b9bd734ad6ull},
    {"quake", 0, 16u, 1u, 0x28b2a0edf6a17486ull, 0xfe3dcc70a5a4ff5eull},
    {"quake", 0, 16u, 8u, 0x4be38605a50f9f23ull, 0xdff12555eeef94e9ull},
    {"quake", 1, 1u, 1u, 0x4d62f28e7f435651ull, 0x81d23fd7003c2305ull},
    {"quake", 1, 1u, 8u, 0x4d62f28e7f435651ull, 0x81d23fd7003c2305ull},
    {"quake", 1, 3u, 1u, 0x7b1e1a8440e8e856ull, 0x08dfdbcc732f4250ull},
    {"quake", 1, 3u, 8u, 0x4c216fb75ef7147eull, 0x9ce86f4574801e44ull},
    {"quake", 1, 16u, 1u, 0xfb56e412b8166a16ull, 0xd7d51933c3e9b21full},
    {"quake", 1, 16u, 8u, 0x4779fde3bde48f47ull, 0x30281cdb488a25fdull},
    {"quake", 2, 1u, 1u, 0x766e1927cfc1ecc0ull, 0x24833979c160091bull},
    {"quake", 2, 1u, 8u, 0x766e1927cfc1ecc0ull, 0x24833979c160091bull},
    {"quake", 2, 3u, 1u, 0x7135d8fc16520d7aull, 0x7e268799c0bf3f80ull},
    {"quake", 2, 3u, 8u, 0x0b65fe4dc36a3d93ull, 0x2ed7936c031405e8ull},
    {"quake", 2, 16u, 1u, 0xb8462d80d264c75cull, 0xa4bc7a9833176313ull},
    {"quake", 2, 16u, 8u, 0xd0d523c7716e024cull, 0xb84d32fbb2b23ad7ull},
    {"32massive11255", 0, 1u, 1u, 0x94bd783258c7655full, 0x8ea3940b2afc52a2ull},
    {"32massive11255", 0, 1u, 8u, 0x94bd783258c7655full, 0x8ea3940b2afc52a2ull},
    {"32massive11255", 0, 3u, 1u, 0xd85ba4b57187b10dull, 0x3ed2ad9896c1cd46ull},
    {"32massive11255", 0, 3u, 8u, 0x084ba1e837afe48aull, 0x60f3c377156f4d6full},
    {"32massive11255", 0, 16u, 1u, 0xffb95ba847646c3cull, 0x3506d7128b9e5f48ull},
    {"32massive11255", 0, 16u, 8u, 0xc80fff46280cb6b7ull, 0x322b93dcdf24b857ull},
    {"32massive11255", 1, 1u, 1u, 0x05f316bb8cbeed16ull, 0x81d23fd7003c2305ull},
    {"32massive11255", 1, 1u, 8u, 0x05f316bb8cbeed16ull, 0x81d23fd7003c2305ull},
    {"32massive11255", 1, 3u, 1u, 0x9bc932ebc64a7b93ull, 0xd04bb93a5a454bb8ull},
    {"32massive11255", 1, 3u, 8u, 0x71733afe4703ed71ull, 0xe85fb70d48670167ull},
    {"32massive11255", 1, 16u, 1u, 0x2ca5cf8dff81d22aull, 0x652ce0a839a1b6f3ull},
    {"32massive11255", 1, 16u, 8u, 0x038e53228f5fdbe4ull, 0x098b8cb9bb9c28c9ull},
    {"32massive11255", 2, 1u, 1u, 0xa7e29dc430123fb7ull, 0xb9eaf910265a18b0ull},
    {"32massive11255", 2, 1u, 8u, 0xa7e29dc430123fb7ull, 0xb9eaf910265a18b0ull},
    {"32massive11255", 2, 3u, 1u, 0xa4059de84a714d4full, 0xd421ad29d95760b2ull},
    {"32massive11255", 2, 3u, 8u, 0xf1d2f34b9872bffcull, 0x476082ca8e581c32ull},
    {"32massive11255", 2, 16u, 1u, 0x7b55c47a710a71beull, 0xf71a3861772ef088ull},
    {"32massive11255", 2, 16u, 8u, 0x514b4c68b8c7d7b1ull, 0x45fef30e1d979a0bull},
};

/** The three node setups of the pinned matrix. */
MachineConfig
pinnedNodeConfig(int setup)
{
    MachineConfig cfg; // 0: the paper's 16 KB cache on a 1x bus
    if (setup == 1) {
        cfg.cacheKind = CacheKind::Perfect;
        cfg.infiniteBus = true;
    } else if (setup == 2) {
        cfg.hasL2 = true;
        cfg.busTexelsPerCycle = 0.5;
        cfg.prefetchQueueDepth = 4;
    }
    return cfg;
}

TEST(SortLast, DirectDriveMatchesEventQueueDigests)
{
    std::string loaded;
    Scene scene;
    for (const SortLastPin &pin : sortLastPins) {
        if (loaded != pin.scene) {
            scene = makeBenchmark(pin.scene, 0.25);
            loaded = pin.scene;
        }
        SortLastConfig cfg;
        cfg.node = pinnedNodeConfig(pin.setup);
        cfg.node.numProcs = pin.procs;
        cfg.chunkSize = pin.chunk;
        FrameResult r = runSortLastFrame(scene, cfg).frame;

        StateDigest ratios;
        ratios.mix(r.texelToFragmentRatio);
        ratios.mix(r.pixelImbalancePercent);
        for (const NodeResult &n : r.nodes)
            ratios.mix(n.busUtilization);
        std::string at = std::string(pin.scene) + " setup " +
                         std::to_string(pin.setup) + " procs " +
                         std::to_string(pin.procs) + " chunk " +
                         std::to_string(pin.chunk);
        EXPECT_EQ(digestHex(digestFrame(r)), digestHex(pin.frame)) << at;
        EXPECT_EQ(digestHex(ratios.value()), digestHex(pin.ratios))
            << at;
    }
}

} // namespace
} // namespace texdist
