/** @file Tests for the experiment drivers. */

#include <sstream>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "core/experiments.hh"
#include "core/replay.hh"
#include "scene/benchmarks.hh"
#include "scene/builder.hh"

namespace texdist
{
namespace
{

/**
 * @p fn must throw a CLI-surface ParseError (exit code 1) whose
 * diagnostic contains every needle.
 */
template <typename Fn>
void
expectCliError(Fn &&fn, std::initializer_list<const char *> needles)
{
    try {
        (void)fn();
        ADD_FAILURE() << "bad input accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Cli) << e.describe();
        EXPECT_EQ(e.exitCode(), 1);
        for (const char *needle : needles)
            EXPECT_NE(e.describe().find(needle), std::string::npos)
                << "diagnostic: " << e.describe()
                << "\n  missing: " << needle;
    }
}


TEST(PixelWork, SumsToSceneFragments)
{
    SceneBuilder b("w", 128, 128, 6);
    auto pool = b.makeTexturePool(2, 16, 32);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addCluster(70, 70, 20, 60, 30.0, pool[0], 1.0);
    Scene scene = b.take();

    auto dist = Distribution::make(DistKind::Block, 128, 128, 4, 16);
    auto work = pixelWorkPerProc(scene, *dist);
    uint64_t sum = 0;
    for (uint64_t w : work)
        sum += w;

    MachineConfig cfg;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    EXPECT_EQ(sum, runFrame(scene, cfg).totalPixels);
}

TEST(PixelWork, MatchesFullSimulationPartition)
{
    SceneBuilder b("w2", 96, 96, 8);
    auto pool = b.makeTexturePool(2, 16, 32);
    b.addBackgroundLayer(pool, 24, 24, 1.0);
    Scene scene = b.take();

    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.dist = DistKind::SLI;
    cfg.tileParam = 4;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    FrameResult r = runFrame(scene, cfg);

    auto dist = Distribution::make(DistKind::SLI, 96, 96, 4, 4);
    auto work = pixelWorkPerProc(scene, *dist);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(work[i], r.nodes[i].pixels) << "node " << i;
}

TEST(Imbalance, Formula)
{
    EXPECT_DOUBLE_EQ(imbalancePercent({100, 100, 100, 100}), 0.0);
    EXPECT_DOUBLE_EQ(imbalancePercent({200, 100, 100, 0}), 100.0);
    EXPECT_DOUBLE_EQ(imbalancePercent({}), 0.0);
    EXPECT_DOUBLE_EQ(imbalancePercent({0, 0}), 0.0);
}

TEST(Imbalance, GrowsWithBlockSize)
{
    // The paper's Section 5 headline: bigger tiles, worse balance,
    // on a hot-spotted frame.
    Scene scene = makeBenchmark("32massive11255", 0.2);
    double prev = -1.0;
    std::vector<double> series;
    for (uint32_t width : {8u, 32u, 128u}) {
        auto dist = Distribution::make(
            DistKind::Block, scene.screenWidth, scene.screenHeight,
            16, width);
        series.push_back(
            imbalancePercent(pixelWorkPerProc(scene, *dist)));
    }
    EXPECT_LT(series[0], series[2]);
    EXPECT_LE(series[0], 25.0); // small blocks balance well
    (void)prev;
}

TEST(FrameLab, BaselineCachedAcrossCalls)
{
    SceneBuilder b("lab", 96, 96, 12);
    auto pool = b.makeTexturePool(2, 16, 32);
    b.addBackgroundLayer(pool, 24, 24, 1.0);
    Scene scene = b.take();
    FrameLab lab(scene);

    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.tileParam = 8;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    Tick t1a = lab.baseline(cfg);
    cfg.tileParam = 16; // different parallel config, same node params
    Tick t1b = lab.baseline(cfg);
    EXPECT_EQ(t1a, t1b);
    EXPECT_GT(t1a, 0u);
}

TEST(FrameLab, BaselineDiffersAcrossCacheKinds)
{
    SceneBuilder b("lab2", 96, 96, 12);
    auto pool = b.makeTexturePool(2, 16, 64);
    b.addBackgroundLayer(pool, 24, 24, 2.0);
    Scene scene = b.take();
    FrameLab lab(scene);

    MachineConfig perfect;
    perfect.cacheKind = CacheKind::Perfect;
    perfect.infiniteBus = true;
    MachineConfig cacheless;
    cacheless.cacheKind = CacheKind::None;
    cacheless.busTexelsPerCycle = 1.0;
    EXPECT_LT(lab.baseline(perfect), lab.baseline(cacheless));
}

TEST(FrameLab, SpeedupConsistent)
{
    SceneBuilder b("lab3", 128, 128, 14);
    auto pool = b.makeTexturePool(2, 16, 32);
    b.addBackgroundLayer(pool, 16, 16, 1.0);
    b.addBackgroundLayer(pool, 16, 16, 1.0);
    Scene scene = b.take();
    FrameLab lab(scene);

    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.tileParam = 8;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    auto res = lab.runWithSpeedup(cfg);
    EXPECT_DOUBLE_EQ(res.speedup, double(res.baselineTime) /
                                      double(res.frame.frameTime));
    EXPECT_GT(res.speedup, 2.0);
}

TEST(BenchOptions, ParseFlags)
{
    const char *argv1[] = {"prog", "--full"};
    EXPECT_DOUBLE_EQ(
        BenchOptions::parse(2, const_cast<char **>(argv1)).scale,
        1.0);
    const char *argv2[] = {"prog", "--quick"};
    EXPECT_DOUBLE_EQ(
        BenchOptions::parse(2, const_cast<char **>(argv2)).scale,
        0.25);
    const char *argv3[] = {"prog", "--scale=0.75"};
    EXPECT_DOUBLE_EQ(
        BenchOptions::parse(2, const_cast<char **>(argv3)).scale,
        0.75);
}

TEST(BenchOptionsError, RejectsBadScale)
{
    const char *argv[] = {"prog", "--scale=0"};
    expectCliError([&] { return BenchOptions::parse(2, const_cast<char **>(argv)); },
                   {"out of range"});
}

TEST(BenchOptions, ThreadsFlagParsesAndClamps)
{
    const char *argv[] = {"prog", "--threads=1"};
    EXPECT_EQ(
        BenchOptions::parse(2, const_cast<char **>(argv)).threads,
        1u);

    const char *argv2[] = {"prog", "--threads=1048576"};
    EXPECT_EQ(
        BenchOptions::parse(2, const_cast<char **>(argv2)).threads,
        ThreadPool::defaultThreads());

    const char *argv3[] = {"prog"};
    EXPECT_EQ(
        BenchOptions::parse(1, const_cast<char **>(argv3)).threads,
        1u);
}

TEST(BenchOptionsError, RejectsBadThreads)
{
    const char *argv[] = {"prog", "--threads=0"};
    expectCliError([&] { return BenchOptions::parse(2, const_cast<char **>(argv)); },
                   {"positive"});
    const char *argv2[] = {"prog", "--threads=two"};
    expectCliError([&] { return BenchOptions::parse(2, const_cast<char **>(argv2)); },
                   {"integer"});
}

TEST(FrameLab, BatchMatchesSerialRuns)
{
    // runBatch on a real pool must reproduce runWithSpeedup exactly:
    // same baselines, same whole-frame digests, same speedups.
    SceneBuilder b("batch", 96, 96, 11);
    auto pool = b.makeTexturePool(3, 16, 32);
    b.addBackgroundLayer(pool, 24, 24, 1.0);
    Scene scene = b.take();

    std::vector<MachineConfig> cfgs;
    for (uint32_t param : {4u, 8u, 16u}) {
        MachineConfig cfg;
        cfg.numProcs = 4;
        cfg.dist = DistKind::Block;
        cfg.tileParam = param;
        cfg.busTexelsPerCycle = 1.0;
        cfgs.push_back(cfg);
    }

    FrameLab serial_lab(scene);
    std::vector<FrameLab::SpeedupResult> expect;
    for (const MachineConfig &cfg : cfgs)
        expect.push_back(serial_lab.runWithSpeedup(cfg));

    FrameLab batch_lab(scene);
    ThreadPool workers(3);
    std::vector<FrameLab::SpeedupResult> got =
        batch_lab.runBatch(cfgs, workers);
    std::vector<FrameResult> many = batch_lab.runMany(cfgs, workers);

    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[i].baselineTime, expect[i].baselineTime);
        EXPECT_EQ(got[i].frame.frameTime, expect[i].frame.frameTime);
        EXPECT_EQ(got[i].frame.totalTexelsFetched,
                  expect[i].frame.totalTexelsFetched);
        EXPECT_DOUBLE_EQ(got[i].speedup, expect[i].speedup);
        EXPECT_EQ(digestFrame(got[i].frame),
                  digestFrame(expect[i].frame));
        EXPECT_EQ(many[i].frameTime, expect[i].frame.frameTime);
        EXPECT_EQ(digestFrame(many[i]), digestFrame(expect[i].frame));
    }
}

TEST(TablePrinter, AlignedOutput)
{
    std::ostringstream os;
    TablePrinter table(os, {"name", "a", "b"}, 8);
    table.printHeader();
    table.cell(std::string("row1"));
    table.cell(1.5, 1);
    table.cell(uint64_t(42));
    table.endRow();
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

} // namespace
} // namespace texdist
