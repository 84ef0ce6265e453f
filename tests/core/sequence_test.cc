/** @file Tests for multi-frame sequence simulation. */

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "core/interframe.hh"
#include "core/error.hh"
#include "core/options.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "scene/benchmarks.hh"
#include "scene/builder.hh"
#include "sim/simd.hh"

namespace texdist
{
namespace simd
{

/** Name a tier in test output and ctest names ("avx2"). */
void
PrintTo(Kernel kernel, std::ostream *os)
{
    *os << to_string(kernel);
}

} // namespace simd

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

TEST(Sequence, SingleFrameMatchesParallelMachine)
{
    Scene scene = wallScene();
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.tileParam = 16;
    cfg.busTexelsPerCycle = 1.0;

    FrameResult one = runFrame(scene, cfg);
    std::vector<Scene> frames;
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    SequenceResult seq = runFrameSequence(frames, cfg);
    ASSERT_EQ(seq.frames.size(), 1u);
    EXPECT_EQ(seq.frames[0].frameTime, one.frameTime);
    EXPECT_EQ(seq.frames[0].totalPixels, one.totalPixels);
    EXPECT_EQ(seq.frames[0].totalTexelsFetched,
              one.totalTexelsFetched);
}

TEST(Sequence, WarmCachesMakeSecondFrameCheaper)
{
    Scene scene = wallScene();
    std::vector<Scene> frames;
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    SequenceResult seq =
        runFrameSequence(frames, l2Config(4));
    ASSERT_EQ(seq.frames.size(), 2u);
    EXPECT_EQ(seq.frames[0].totalPixels,
              seq.frames[1].totalPixels);
    // Identical second frame: the L2 eats all external traffic.
    EXPECT_EQ(seq.frames[1].totalTexelsFetched, 0u);
    EXPECT_LE(seq.frames[1].frameTime, seq.frames[0].frameTime);
}

TEST(Sequence, DeltasSumToTotals)
{
    Scene scene = wallScene();
    std::vector<Scene> frames;
    for (int i = 0; i < 3; ++i)
        frames.push_back(
            translateScene(scene, float(8 * i), 0.0f));
    MachineConfig cfg = l2Config(4);
    SequenceResult seq = runFrameSequence(frames, cfg);

    Tick sum = 0;
    for (const FrameResult &f : seq.frames)
        sum += f.frameTime;
    EXPECT_EQ(sum, seq.totalTime);
}

TEST(Sequence, WarmPanFramesReportTimeImbalance)
{
    // The imbalance is over each node's finish relative to its own
    // frame's start, not over the absolute finish ticks.
    Scene scene = wallScene();
    std::vector<Scene> frames;
    for (int i = 0; i < 3; ++i)
        frames.push_back(translateScene(scene, float(8 * i), 0.0f));
    SequenceResult seq = runFrameSequence(frames, l2Config(16));

    Tick start = 0;
    for (const FrameResult &f : seq.frames) {
        std::vector<uint64_t> relative;
        for (const NodeResult &n : f.nodes)
            relative.push_back(std::max(n.finishTime, start) - start);
        EXPECT_EQ(f.timeImbalancePercent, imbalancePercent(relative));
        start += f.frameTime;
    }
    EXPECT_GT(seq.frames[2].timeImbalancePercent, 0.0);
}

TEST(Sequence, PanCostsScaleWithDistanceUnderMultiprocessing)
{
    Scene scene = wallScene();
    auto frame2_traffic = [&](float pan) {
        std::vector<Scene> frames;
        frames.push_back(translateScene(scene, 0.0f, 0.0f));
        frames.push_back(translateScene(scene, pan, 0.0f));
        SequenceResult seq =
            runFrameSequence(frames, l2Config(16));
        return seq.frames[1].totalTexelsFetched;
    };
    EXPECT_LT(frame2_traffic(4.0f), frame2_traffic(48.0f));
}

TEST(Sequence, FramesSerializeInTime)
{
    Scene scene = wallScene();
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.dist = DistKind::SLI;
    cfg.tileParam = 32;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;

    SequenceMachine machine(scene, cfg);
    FrameResult f1 = machine.runFrame(scene);
    Tick after1 = machine.currentTime();
    EXPECT_EQ(after1, f1.frameTime);
    FrameResult f2 = machine.runFrame(scene);
    EXPECT_EQ(machine.currentTime(), after1 + f2.frameTime);
}

TEST(SequenceDeath, MismatchedFrameFatal)
{
    Scene scene = wallScene(128);
    Scene small = wallScene(64);
    MachineConfig cfg;
    SequenceMachine machine(scene, cfg);
    EXPECT_EXIT(machine.runFrame(small),
                ::testing::ExitedWithCode(1),
                "does not match the sequence");
}

TEST(SequenceDeath, EmptySequenceFatal)
{
    MachineConfig cfg;
    std::vector<Scene> no_frames;
    EXPECT_EXIT(runFrameSequence(no_frames, cfg),
                ::testing::ExitedWithCode(1), "empty frame");
}

TEST(Sequence, L2ConfigFlowsIntoNodes)
{
    // With hasL2 the external traffic of a rerendered frame drops;
    // without it the 16KB L1 cannot hold the frame.
    Scene scene = wallScene();
    std::vector<Scene> frames;
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    MachineConfig with = l2Config(4);
    MachineConfig without = with;
    without.hasL2 = false;
    uint64_t l2_frame2 =
        runFrameSequence(frames, with).frames[1].totalTexelsFetched;
    uint64_t l1_frame2 = runFrameSequence(frames, without)
                             .frames[1]
                             .totalTexelsFetched;
    EXPECT_LT(l2_frame2, l1_frame2 / 4);
}

TEST(SequenceRestorePoison, RunFrameAfterFailedRestorePanics)
{
    // A restore that throws must leave the machine poisoned: it may
    // hold half-restored state, so running a frame from it would
    // silently produce wrong results. runFrame must refuse loudly.
    Scene scene = wallScene();
    SequenceMachine good(scene, l2Config(4));
    good.runFrame(scene);
    CheckpointWriter w;
    good.serialize(w);

    SequenceMachine wrong(scene, l2Config(8));
    CheckpointReader r("poison-test", w.bytes());
    EXPECT_THROW(wrong.restore(r), ParseError);
    EXPECT_DEATH((void)wrong.runFrame(scene), "a failed restore");
}

TEST(SequenceRestorePoison, SuccessfulRestoreClearsNothingByMistake)
{
    // The poison flag must not leak into the success path: a clean
    // restore runs frames normally.
    Scene scene = wallScene();
    SequenceMachine good(scene, l2Config(4));
    uint64_t reference = good.runFrame(scene).totalPixels;
    CheckpointWriter w;
    good.serialize(w);

    SequenceMachine back(scene, l2Config(4));
    CheckpointReader r("clean-restore", w.bytes());
    back.restore(r);
    EXPECT_EQ(back.runFrame(scene).totalPixels, reference);
}

/**
 * The machine of the 8-px pan of 32massive11255 below: the paper's
 * fixed parameters (MachineConfig's defaults: 16 KB set-associative
 * caches, a 1 texel/cycle bus) at 16 processors, block width 16.
 */
MachineConfig
panConfig()
{
    MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.dist = DistKind::Block;
    cfg.tileParam = 16;
    return cfg;
}

/** Frame @p f of the pan: the scene moved 8 px right per frame. */
Scene
panFrame(const Scene &base, uint32_t f)
{
    return translateScene(base, float(8 * f), 0.0f);
}

/** Frame digests of the first @p frames pan frames at --jobs=1. */
std::vector<uint64_t>
panDigests(const Scene &base, uint32_t frames)
{
    std::vector<uint64_t> digests;
    SequenceMachine machine(base, panConfig(), 1);
    for (uint32_t f = 0; f < frames; ++f) {
        Scene frame = f == 0 ? Scene() : panFrame(base, f);
        digests.push_back(
            digestFrame(machine.runFrame(f == 0 ? base : frame)));
    }
    return digests;
}

class SequenceSimd : public ::testing::TestWithParam<simd::Kernel>
{
};

TEST_P(SequenceSimd, PanDigestsMatchScalar)
{
    // Whole-machine tier parity: rasterizer coverage and trilinear
    // addressing both dispatch through simd::dispatch(), so every
    // frame digest of a warm-cache pan must be the scalar one.
    if (!simd::kernelSupported(GetParam()))
        GTEST_SKIP() << simd::to_string(GetParam())
                     << " kernel not available on this host or build";
    const Scene scene = makeBenchmark("32massive11255", 0.25);
    auto digestsOn = [&](simd::Kernel kernel) {
        EXPECT_TRUE(simd::forceKernel(kernel));
        std::vector<uint64_t> digests = panDigests(scene, 3);
        simd::clearForcedKernel();
        return digests;
    };
    EXPECT_EQ(digestsOn(GetParam()), digestsOn(simd::Kernel::Scalar));
}

INSTANTIATE_TEST_SUITE_P(Tiers, SequenceSimd,
                         ::testing::Values(simd::Kernel::SSE2,
                                           simd::Kernel::AVX2));

/** Cache accesses and misses summed over the frames it was given. */
struct MissCount
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint32_t frames = 0;

    void
    add(const FrameResult &r)
    {
        for (const NodeResult &n : r.nodes) {
            accesses += n.cacheAccesses;
            misses += n.cacheMisses;
        }
        ++frames;
    }

    double
    rate() const
    {
        return accesses ? double(misses) / double(accesses) : 0.0;
    }
};

TEST(Sequence, SampledPanMissRateWithinTwoPercent)
{
    // Sampled fast-forward must estimate the full run's steady-state
    // miss rate within 2%: 87 frames of the 8-px pan, one warm and one
    // detailed frame per 29-frame period. The steady state excludes
    // frame 0, the cold start that sampling amortizes away; every
    // later frame starts warm, the regime the detailed windows
    // measure. The odd period lands successive windows on alternating
    // frame parities, which cancels the pan's frame-to-frame miss-rate
    // oscillation. The error is deterministic: 0.0095 on x86-64.
    const Scene scene = makeBenchmark("32massive11255", 0.25);
    const SampleSpec spec = parseSampleSpec("warm:1,detail:1,ff:27");
    constexpr uint32_t frames = 87;

    MissCount steady;
    {
        SequenceMachine machine(scene, panConfig(), 1);
        for (uint32_t f = 0; f < frames; ++f) {
            Scene frame = f == 0 ? Scene() : panFrame(scene, f);
            FrameResult r = machine.runFrame(f == 0 ? scene : frame);
            if (f > 0)
                steady.add(r);
        }
    }

    MissCount sampled;
    {
        SequenceMachine machine(scene, panConfig(), 1);
        for (uint32_t f = 0; f < frames; ++f) {
            const FrameRole role = frameRole(spec, f);
            if (role == FrameRole::Skip)
                continue;
            Scene frame = f == 0 ? Scene() : panFrame(scene, f);
            const Scene &input = f == 0 ? scene : frame;
            if (role == FrameRole::Warm)
                machine.runFrameFunctional(input);
            else
                sampled.add(machine.runFrame(input));
        }
    }

    ASSERT_EQ(sampled.frames, 3u);
    ASSERT_GT(steady.rate(), 0.0);
    const double error =
        std::abs(sampled.rate() - steady.rate()) / steady.rate();
    EXPECT_LT(error, 0.02) << "sampled miss rate " << sampled.rate()
                           << ", full-run steady state "
                           << steady.rate();
}

} // namespace
} // namespace texdist
