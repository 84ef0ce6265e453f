/** @file Unit tests for the online invariant oracle. */

#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "core/error.hh"
#include "core/machine.hh"
#include "core/metrics.hh"
#include "core/options.hh"
#include "core/sequence.hh"
#include "geom/rng.hh"
#include "oracle/oracle.hh"
#include "oracle/shadow.hh"
#include "scene/builder.hh"
#include "texture/sampler.hh"

namespace texdist
{
namespace
{

Scene
testScene()
{
    SceneBuilder b("oracle", 128, 128, 21);
    auto pool = b.makeTexturePool(2, 16, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addCluster(64, 64, 24, 60, 28.0, pool[0], 1.0);
    return b.take();
}

MachineConfig
testConfig(uint32_t procs = 4)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.tileParam = 16;
    return cfg;
}

TEST(OracleMode, ParsesAndPrints)
{
    EXPECT_EQ(oracleModeFromString("off"), OracleMode::Off);
    EXPECT_EQ(oracleModeFromString("cheap"), OracleMode::Cheap);
    EXPECT_EQ(oracleModeFromString("full"), OracleMode::Full);
    EXPECT_STREQ(to_string(OracleMode::Cheap), "cheap");

    SimOptions opts =
        SimOptions::parse({"--scene=quake", "--oracle=full"});
    EXPECT_EQ(opts.oracle, OracleMode::Full);

    try {
        oracleModeFromString("sometimes");
        FAIL() << "bad oracle mode accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Cli);
        EXPECT_NE(e.describe().find("--oracle"), std::string::npos);
    }
}

TEST(OracleMode, FrameSampling)
{
    // Cheap and full check every frame they bracket; off checks
    // none. A texel leak planted after frame 0 shows on frame 1.
    Scene scene = testScene();
    MachineConfig cfg = testConfig();
    for (OracleMode mode :
         {OracleMode::Off, OracleMode::Cheap, OracleMode::Full}) {
        SequenceMachine machine(scene, cfg);
        OracleEngine oracle(cfg, mode);
        oracle.attach(machine);
        int64_t caught_at = -1;
        for (uint32_t f = 0; f < 3 && caught_at < 0; ++f) {
            if (f == 1)
                machine.node(0).debugPlantTexelLeak();
            oracle.beginFrame(scene);
            FrameResult r = machine.runFrame(scene);
            try {
                oracle.endFrame(f, scene, &machine.distribution(), &r,
                                machine.currentTime());
            } catch (const OracleError &e) {
                caught_at = e.frame();
                EXPECT_EQ(e.node(), 0) << e.describe();
            }
        }
        EXPECT_EQ(caught_at, mode == OracleMode::Off ? -1 : 1)
            << to_string(mode);
    }
}

TEST(OracleError, CarriesFrameNodeCycleContext)
{
    OracleError e(7, 3, 12345,
                  {"first violation", "second violation"});
    EXPECT_EQ(e.exitCode(), 13);
    std::string d = e.describe();
    EXPECT_NE(d.find("frame 7"), std::string::npos) << d;
    EXPECT_NE(d.find("node 3"), std::string::npos) << d;
    EXPECT_NE(d.find("12345"), std::string::npos) << d;
    EXPECT_NE(d.find("first violation"), std::string::npos) << d;
    EXPECT_NE(d.find("second violation"), std::string::npos) << d;
}

TEST(OracleEngine, CleanFrameRaisesNothing)
{
    Scene scene = testScene();
    MachineConfig cfg = testConfig();
    ParallelMachine machine(scene, cfg);
    OracleEngine oracle(cfg, OracleMode::Full);
    oracle.attach(machine);
    oracle.beginFrame(scene);
    FrameResult r = machine.run();
    EXPECT_NO_THROW(oracle.endFrame(0, scene,
                                    &machine.distribution(), &r,
                                    r.frameTime));
    EXPECT_NE(oracle.lastCoverageDigest(), 0u);
}

TEST(OracleEngine, TimingAndResultsIdenticalWithOracleAttached)
{
    // The oracle is a host-side observer: simulated time, per-node
    // statistics and every measurement must be bit-identical with
    // the oracle on or off.
    Scene scene = testScene();
    MachineConfig cfg = testConfig();

    ParallelMachine bare(scene, cfg);
    FrameResult a = bare.run();

    ParallelMachine watched(scene, cfg);
    OracleEngine oracle(cfg, OracleMode::Full);
    oracle.attach(watched);
    oracle.beginFrame(scene);
    FrameResult b = watched.run();
    oracle.endFrame(0, scene, &watched.distribution(), &b,
                    b.frameTime);

    EXPECT_EQ(a.frameTime, b.frameTime);
    EXPECT_EQ(a.totalPixels, b.totalPixels);
    EXPECT_EQ(a.totalTexelsFetched, b.totalTexelsFetched);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (size_t i = 0; i < a.nodes.size(); ++i) {
        EXPECT_EQ(a.nodes[i].cacheAccesses, b.nodes[i].cacheAccesses);
        EXPECT_EQ(a.nodes[i].cacheMisses, b.nodes[i].cacheMisses);
        EXPECT_EQ(a.nodes[i].finishTime, b.nodes[i].finishTime);
        EXPECT_EQ(a.nodes[i].stallCycles, b.nodes[i].stallCycles);
    }
}

/**
 * Run one two-phase frame under the cheap oracle, let @p corrupt edit
 * its result, and return what endFrame reports ("" when it passes).
 * @p with_dist false checks the frame the way sort-last does.
 */
template <typename Fn>
std::string
ledgerViolations(Fn &&corrupt, bool with_dist = true)
{
    Scene scene = testScene();
    MachineConfig cfg = testConfig();
    SequenceMachine machine(scene, cfg);
    OracleEngine oracle(cfg, OracleMode::Cheap);
    oracle.attach(machine);
    oracle.beginFrame(scene);
    FrameResult r = machine.runFrame(scene);
    corrupt(r);
    try {
        oracle.endFrame(0, scene,
                        with_dist ? &machine.distribution() : nullptr,
                        &r, machine.currentTime());
    } catch (const OracleError &e) {
        EXPECT_EQ(e.exitCode(), 13);
        return e.describe();
    }
    return "";
}

Tick
latestFinish(const FrameResult &r)
{
    Tick t = 0;
    for (const NodeResult &nr : r.nodes)
        t = std::max(t, nr.finishTime);
    return t;
}

TEST(OracleLedger, RealFramePassesCorruptedFrameFails)
{
    EXPECT_EQ(ledgerViolations([](FrameResult &) {}), "");

    // Each corruption names the ledger check that must catch it.
    struct Case
    {
        const char *what;
        void (*corrupt)(FrameResult &);
    };
    const Case cases[] = {
        {"node pixel counts sum",
         [](FrameResult &r) { ++r.totalPixels; }},
        {"scene rasterizes to",
         [](FrameResult &r) { ++r.totalPixels; }},
        {"node texel counts sum",
         [](FrameResult &r) { ++r.totalTexelsFetched; }},
        {"node1 owns",
         [](FrameResult &r) {
             ++r.nodes[0].pixels;
             --r.nodes[1].pixels;
         }},
        {"misses but only",
         [](FrameResult &r) {
             r.nodes[2].cacheMisses = r.nodes[2].cacheAccesses + 1;
         }},
        {"cache accesses (expected",
         [](FrameResult &r) { --r.nodes[3].cacheAccesses; }},
        {"fifo bound",
         [](FrameResult &r) { r.fifoMaxOccupancy = 10001; }},
        {"exceeds the latest node finish",
         [](FrameResult &r) { r.frameTime = latestFinish(r) + 1; }},
    };
    for (const Case &c : cases) {
        std::string got = ledgerViolations(c.corrupt);
        EXPECT_NE(got.find(c.what), std::string::npos)
            << "wanted \"" << c.what << "\" in:\n" << got;
    }
}

TEST(OracleLedger, DegradedFramesAndSortLastSkipTheirChecks)
{
    // Rerouted work may legally move fragments between nodes and
    // overfill a survivor's FIFO.
    EXPECT_EQ(ledgerViolations([](FrameResult &r) {
                  r.degraded = true;
                  ++r.nodes[0].pixels;
                  --r.nodes[1].pixels;
                  r.nodes[0].cacheAccesses += texelsPerFragment;
                  r.nodes[1].cacheAccesses -= texelsPerFragment;
                  r.fifoMaxOccupancy = 10001;
              }),
              "");
    // Without a distribution (sort-last) there is no ledger, and a
    // frame time that includes composition is legal.
    EXPECT_EQ(ledgerViolations(
                  [](FrameResult &r) {
                      r.frameTime = latestFinish(r) + 1;
                  },
                  false),
              "");
}

TEST(OracleLedger, EveryCheckTheMetricTableNamesIsReported)
{
    // One planted corruption per check a metric names: the oracle
    // must report a violation line that starts with that name.
    struct Case
    {
        const char *check;
        void (*corrupt)(FrameResult &);
    };
    const Case cases[] = {
        {"frame time",
         [](FrameResult &r) { r.frameTime = latestFinish(r) + 1; }},
        {"fragment conservation",
         [](FrameResult &r) { ++r.totalPixels; }},
        {"texel conservation",
         [](FrameResult &r) { ++r.totalTexelsFetched; }},
        {"pixel coverage",
         [](FrameResult &r) {
             ++r.nodes[0].pixels;
             --r.nodes[1].pixels;
         }},
        {"fifo bound",
         [](FrameResult &r) { r.fifoMaxOccupancy = 10001; }},
    };
    for (const Metric &m : metricTable()) {
        if (std::string(m.check) == "none")
            continue;
        const Case *c = std::find_if(
            std::begin(cases), std::end(cases), [&](const Case &k) {
                return std::string(k.check) == m.check;
            });
        ASSERT_NE(c, std::end(cases))
            << m.name << " names \"" << m.check
            << "\", which no case here plants";
        std::string got = ledgerViolations(c->corrupt);
        EXPECT_NE(got.find(std::string("\n  ") + m.check),
                  std::string::npos)
            << m.name << ": wanted a \"" << m.check
            << "\" line in:\n" << got;
    }
}

TEST(Shadow, CleanCacheNeverDiverges)
{
    CacheGeometry geom{16 * 1024, 4, 64};
    ShadowedCache shadow(std::make_unique<SetAssocCache>(geom),
                         "node0");
    SetAssocCache twin(geom);
    Rng rng(5);
    for (int i = 0; i < 50000; ++i) {
        uint64_t addr = uint64_t(rng.uniformInt(0, 1 << 17));
        EXPECT_EQ(shadow.access(addr), twin.access(addr));
    }
    EXPECT_EQ(shadow.divergences(), 0u);
    EXPECT_EQ(shadow.accesses(), twin.accesses());
    EXPECT_EQ(shadow.misses(), twin.misses());
}

TEST(Shadow, CatchesPlantedLruSkip)
{
    // Skipping every 16th LRU touch rarely flips a hit/miss verdict
    // on a high-locality stream, but the per-set recency-order
    // comparison sees the stale stamp at the next access to the set.
    CacheGeometry geom{16 * 1024, 4, 64};
    auto planted = std::make_unique<SetAssocCache>(geom);
    planted->debugPlantLruSkip(16);
    ShadowedCache shadow(std::move(planted), "node0");
    Rng rng(6);
    for (int i = 0; i < 20000 && shadow.divergences() == 0; ++i)
        shadow.access(uint64_t(rng.uniformInt(0, 1 << 17)));
    EXPECT_GT(shadow.divergences(), 0u);
    std::vector<std::string> v = shadow.drainViolations();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("node0"), std::string::npos) << v[0];
}

TEST(Shadow, SeedsFromWarmCache)
{
    // Attaching a shadow to an already-warm cache must adopt its
    // exact contents and recency order, not assume a cold start.
    CacheGeometry geom{8 * 1024, 4, 64};
    auto cache = std::make_unique<SetAssocCache>(geom);
    Rng warmup(9);
    for (int i = 0; i < 30000; ++i)
        cache->access(uint64_t(warmup.uniformInt(0, 1 << 16)));

    ShadowedCache shadow(std::move(cache), "node0");
    Rng traffic(10);
    for (int i = 0; i < 30000; ++i)
        shadow.access(uint64_t(traffic.uniformInt(0, 1 << 16)));
    EXPECT_EQ(shadow.divergences(), 0u);
}

TEST(OracleConfig, InclusiveL2AppearsInDescribe)
{
    MachineConfig cfg = testConfig();
    cfg.hasL2 = true;
    std::string plain = cfg.describe();
    EXPECT_EQ(plain.find("incl"), std::string::npos) << plain;
    cfg.l2Inclusive = true;
    std::string strict = cfg.describe();
    EXPECT_NE(strict.find("incl"), std::string::npos) << strict;
}

} // namespace
} // namespace texdist
