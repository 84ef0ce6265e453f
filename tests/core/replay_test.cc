/** @file Tests for replay manifests and frame digests. */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "core/interframe.hh"
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
    SceneBuilder b("wall", screen, screen, 51);
    auto pool = b.makeTexturePool(6, 32, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    return b.take();
}

MachineConfig
l2Config(uint32_t procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.tileParam = 16;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.hasL2 = true;
    cfg.l2Geom = CacheGeometry{1024 * 1024, 8, 64};
    cfg.busTexelsPerCycle = 1.0;
    return cfg;
}

TEST(Digest, HexRoundTrip)
{
    EXPECT_EQ(digestHex(0), "0000000000000000");
    EXPECT_EQ(digestHex(0x0123456789abcdefull), "0123456789abcdef");
    EXPECT_EQ(digestFromHex("0123456789abcdef"),
              0x0123456789abcdefull);
    EXPECT_EQ(digestFromHex(digestHex(UINT64_MAX)), UINT64_MAX);
}

TEST(DigestError, MalformedHexIsTyped)
{
    for (const char *hex : {"123", "0123456789abcdeZ"}) {
        try {
            (void)digestFromHex(hex);
            FAIL() << "bad digest accepted: " << hex;
        } catch (const ParseError &e) {
            EXPECT_EQ(e.surface(), ParseSurface::Json);
            EXPECT_EQ(e.rule(), ParseRule::Syntax);
            EXPECT_NE(e.describe().find("bad digest"),
                      std::string::npos)
                << e.describe();
        }
    }
    // The same digests appear in result CSVs; the surface (and so
    // the exit code) follows the caller.
    try {
        (void)digestFromHex("123", ParseSurface::Csv);
        FAIL() << "bad digest accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Csv);
        EXPECT_EQ(e.exitCode(), 9);
    }
}

TEST(Digest, SameRunSameDigestDifferentRunDifferentDigest)
{
    Scene scene = wallScene();
    MachineConfig cfg = l2Config(4);
    FrameResult a = runFrame(scene, cfg);
    FrameResult b = runFrame(scene, cfg);
    EXPECT_EQ(digestFrame(a), digestFrame(b));

    // A single corrupted per-node counter must change the digest.
    FrameResult c = a;
    c.nodes[2].cacheMisses += 1;
    EXPECT_NE(digestFrame(a), digestFrame(c));

    // So must a changed total.
    FrameResult d = a;
    d.totalPixels += 1;
    EXPECT_NE(digestFrame(a), digestFrame(d));
}

TEST(Manifest, SaveLoadRoundTrip)
{
    RunManifest m;
    m.scene = "quake";
    m.config = "procs=4 tile=16 cache=setassoc";
    m.faultPlan = "none";
    m.faultSeed = 0xfedcba9876543210ull;
    m.frames = 3;
    m.panDx = 8.5;
    m.panDy = -2.25;
    m.digests = {1, 0xdeadbeefcafef00dull, UINT64_MAX};
    m.interrupted = false;

    std::string path = ::testing::TempDir() + "/manifest.json";
    m.save(path);
    RunManifest back = RunManifest::load(path);
    EXPECT_EQ(back.scene, m.scene);
    EXPECT_EQ(back.config, m.config);
    EXPECT_EQ(back.faultPlan, m.faultPlan);
    EXPECT_EQ(back.faultSeed, m.faultSeed);
    EXPECT_EQ(back.frames, m.frames);
    EXPECT_EQ(back.panDx, m.panDx);
    EXPECT_EQ(back.panDy, m.panDy);
    EXPECT_EQ(back.digests, m.digests);
    EXPECT_FALSE(back.interrupted);
}

TEST(Manifest, InterruptedRunKeepsPartialDigests)
{
    RunManifest m;
    m.scene = "wall";
    m.frames = 10;
    m.digests = {42, 43};
    m.interrupted = true;
    std::string path = ::testing::TempDir() + "/partial.json";
    m.save(path);
    RunManifest back = RunManifest::load(path);
    EXPECT_TRUE(back.interrupted);
    EXPECT_EQ(back.digests.size(), 2u);
}

TEST(ManifestError, CompleteRunWithMissingDigestsIsTyped)
{
    RunManifest m;
    m.scene = "wall";
    m.frames = 10;
    m.digests = {42, 43};
    m.interrupted = false;
    std::string path = ::testing::TempDir() + "/bad_count.json";
    m.save(path);
    try {
        (void)RunManifest::load(path);
        FAIL() << "manifest with missing digests accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Json);
        EXPECT_EQ(e.exitCode(), 8);
        EXPECT_EQ(e.rule(), ParseRule::Mismatch);
        EXPECT_EQ(e.fieldName(), "frame_digests");
        EXPECT_NE(e.describe().find("complete run"),
                  std::string::npos)
            << e.describe();
    }
}

TEST(Replay, RestoredMachineReplaysRemainingFramesBitExactly)
{
    Scene scene = wallScene();
    MachineConfig cfg = l2Config(4);
    const int total_frames = 4;

    // Reference: uninterrupted run.
    std::vector<uint64_t> reference;
    {
        SequenceMachine machine(scene, cfg);
        for (int f = 0; f < total_frames; ++f) {
            Scene frame =
                translateScene(scene, float(4 * f), 0.0f);
            reference.push_back(digestFrame(machine.runFrame(frame)));
        }
    }

    // Interrupted run: checkpoint after frame 2.
    std::string path = ::testing::TempDir() + "/replay.ckpt";
    {
        SequenceMachine machine(scene, cfg);
        for (int f = 0; f < 2; ++f) {
            Scene frame =
                translateScene(scene, float(4 * f), 0.0f);
            EXPECT_EQ(digestFrame(machine.runFrame(frame)),
                      reference[size_t(f)]);
        }
        CheckpointWriter w;
        machine.serialize(w);
        w.writeFile(path);
    }

    // Resumed run: frames 3 and 4 must digest identically.
    {
        SequenceMachine machine(scene, cfg);
        CheckpointReader r(path);
        machine.restore(r);
        EXPECT_EQ(machine.framesRun(), 2u);
        for (int f = 2; f < total_frames; ++f) {
            Scene frame =
                translateScene(scene, float(4 * f), 0.0f);
            EXPECT_EQ(digestFrame(machine.runFrame(frame)),
                      reference[size_t(f)])
                << "divergence at frame " << f + 1;
        }
    }
}

TEST(ReplayError, RestoreIntoMismatchedConfigIsTyped)
{
    Scene scene = wallScene();
    MachineConfig cfg = l2Config(4);
    SequenceMachine machine(scene, cfg);
    machine.runFrame(scene);
    CheckpointWriter w;
    machine.serialize(w);
    std::string path = ::testing::TempDir() + "/mismatch.ckpt";
    w.writeFile(path);

    MachineConfig other = l2Config(8);
    SequenceMachine wrong(scene, other);
    CheckpointReader r(path);
    try {
        wrong.restore(r);
        FAIL() << "mismatched configuration accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Checkpoint);
        EXPECT_EQ(e.exitCode(), 7);
        EXPECT_EQ(e.rule(), ParseRule::Mismatch);
        EXPECT_EQ(e.file(), path);
        EXPECT_NE(e.describe().find("configuration"),
                  std::string::npos)
            << e.describe();
    }
}

} // namespace
} // namespace texdist
