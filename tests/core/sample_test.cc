/**
 * @file
 * Tests for SMARTS-style sampled fast-forward: the --sample spec
 * parser, the frame-role schedule, functional frame execution on
 * SequenceMachine (exact cache deltas, no clock advance), the
 * checkpoint taint guard and the oracle on sampled runs.
 */

#include <vector>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "core/interframe.hh"
#include "core/options.hh"
#include "core/sequence.hh"
#include "oracle/oracle.hh"
#include "scene/builder.hh"

namespace texdist
{
namespace
{

template <typename Fn>
void
expectCliError(Fn &&fn, ParseRule rule,
               std::initializer_list<const char *> needles)
{
    try {
        (void)fn();
        ADD_FAILURE() << "bad input accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Cli) << e.describe();
        EXPECT_EQ(e.rule(), rule) << e.describe();
        for (const char *needle : needles)
            EXPECT_NE(e.describe().find(needle), std::string::npos)
                << "diagnostic: " << e.describe()
                << "\n  missing: " << needle;
    }
}

SimOptions
parse(std::initializer_list<const char *> args)
{
    std::vector<char *> argv = {const_cast<char *>("texdist_sim")};
    for (const char *a : args)
        argv.push_back(const_cast<char *>(a));
    return SimOptions::parse(int(argv.size()), argv.data());
}

TEST(SampleSpec, ParsesFullForm)
{
    SampleSpec s = parseSampleSpec("warm:2,detail:3,ff:10");
    EXPECT_EQ(s.warm, 2u);
    EXPECT_EQ(s.detail, 3u);
    EXPECT_EQ(s.skip, 10u);
    EXPECT_TRUE(s.enabled());
    EXPECT_EQ(s.period(), 15u);
}

TEST(SampleSpec, FfAndWarmAreOptional)
{
    SampleSpec s = parseSampleSpec("detail:4");
    EXPECT_EQ(s.warm, 0u);
    EXPECT_EQ(s.detail, 4u);
    EXPECT_EQ(s.skip, 0u);
    EXPECT_TRUE(s.enabled());
}

TEST(SampleSpec, ParseErrorsAreTyped)
{
    expectCliError([] { return parseSampleSpec("warm2,detail:1"); },
                   ParseRule::Syntax, {"warm2"});
    expectCliError(
        [] { return parseSampleSpec("detail:1,turbo:5"); },
        ParseRule::Unknown, {"turbo"});
    expectCliError(
        [] { return parseSampleSpec("detail:1,detail:2"); },
        ParseRule::Duplicate, {"detail"});
    expectCliError([] { return parseSampleSpec("warm:5"); },
                   ParseRule::Range, {"detail"});
    expectCliError([] { return parseSampleSpec("detail:0"); },
                   ParseRule::Range, {"detail"});
    expectCliError(
        [] { return parseSampleSpec("detail:nope"); },
        ParseRule::Syntax, {"sample"});
}

TEST(SampleSpec, FrameRoleLayout)
{
    // Period = warm 1, detail 2, ff 3: one fast-forward frame leads
    // so the measurement window is centered — F W D D F F repeating.
    SampleSpec s = parseSampleSpec("warm:1,detail:2,ff:3");
    const FrameRole expected[] = {FrameRole::Skip,   FrameRole::Warm,
                                  FrameRole::Detail, FrameRole::Detail,
                                  FrameRole::Skip,   FrameRole::Skip};
    for (uint32_t f = 0; f < 18; ++f)
        EXPECT_EQ(frameRole(s, f), expected[f % 6]) << "frame " << f;
}

TEST(SampleSpec, WindowIsCentered)
{
    // warm:1,detail:1,ff:18 (period 20): nine leading fast-forwards,
    // warm at 9, the detailed frame dead-center at 10.
    SampleSpec s = parseSampleSpec("warm:1,detail:1,ff:18");
    for (uint32_t f = 0; f < 9; ++f)
        EXPECT_EQ(frameRole(s, f), FrameRole::Skip) << "frame " << f;
    EXPECT_EQ(frameRole(s, 9), FrameRole::Warm);
    EXPECT_EQ(frameRole(s, 10), FrameRole::Detail);
    for (uint32_t f = 11; f < 20; ++f)
        EXPECT_EQ(frameRole(s, f), FrameRole::Skip) << "frame " << f;
    EXPECT_EQ(frameRole(s, 30), FrameRole::Detail);
}

TEST(SampleSpec, DisabledSpecIsAllDetail)
{
    SampleSpec s;
    EXPECT_FALSE(s.enabled());
    for (uint32_t f = 0; f < 5; ++f)
        EXPECT_EQ(frameRole(s, f), FrameRole::Detail);
}

TEST(SampleCli, SampleRequiresMultiFrameRun)
{
    expectCliError(
        [] { return parse({"--sample=warm:1,detail:1"}); },
        ParseRule::Mismatch, {"--sample", "--frames"});
}

TEST(SampleCli, SampleRejectsRunShorterThanFirstWindow)
{
    // With ff:18 the centered window's first detailed frame is
    // frame 10; a 10-frame run would measure nothing.
    expectCliError(
        [] {
            return parse(
                {"--frames=10", "--sample=warm:1,detail:1,ff:18"});
        },
        ParseRule::Range, {"--sample", "detailed frame"});
}

TEST(SampleCli, SampleRejectsExactStateFlags)
{
    expectCliError(
        [] {
            return parse({"--frames=10", "--sample=detail:1,ff:4",
                          "--checkpoint-every=2",
                          "--checkpoint-file=/tmp/x.ckpt"});
        },
        ParseRule::Mismatch, {"--sample", "--checkpoint-every"});
    expectCliError(
        [] {
            return parse({"--frames=10", "--sample=detail:1,ff:4",
                          "--restore=/tmp/x.ckpt"});
        },
        ParseRule::Mismatch, {"--sample", "--restore"});
    expectCliError(
        [] {
            return parse({"--frames=10", "--sample=detail:1,ff:4",
                          "--manifest=/tmp/m.json"});
        },
        ParseRule::Mismatch, {"--sample", "--manifest"});
    expectCliError(
        [] {
            return parse({"--frames=10", "--sample=detail:1,ff:4",
                          "--replay-verify=/tmp/m.json"});
        },
        ParseRule::Mismatch, {"--sample", "--replay-verify"});
}

TEST(SampleCli, ValidSampleParses)
{
    SimOptions o =
        parse({"--frames=20", "--sample=warm:1,detail:2,ff:7"});
    EXPECT_TRUE(o.sample.enabled());
    EXPECT_EQ(o.sample.describe(), "warm:1,detail:2,ff:7");
}

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

TEST(SampleFunctional, WorkCountersMatchDetailedFrame)
{
    // The functional frame must see exactly the work a detailed
    // frame sees: same pixels, triangles and per-node cache deltas —
    // only the timing fields are zeroed.
    Scene scene = wallScene();
    MachineConfig cfg = l2Config(4);

    SequenceMachine detailed(scene, cfg);
    FrameResult full = detailed.runFrame(scene);

    SequenceMachine functional(scene, cfg);
    FrameResult fast = functional.runFrameFunctional(scene);

    EXPECT_TRUE(fast.estimated);
    EXPECT_FALSE(full.estimated);
    EXPECT_EQ(fast.totalPixels, full.totalPixels);
    EXPECT_EQ(fast.trianglesDispatched, full.trianglesDispatched);
    EXPECT_EQ(fast.totalTexelsFetched, full.totalTexelsFetched);
    ASSERT_EQ(fast.nodes.size(), full.nodes.size());
    for (size_t i = 0; i < full.nodes.size(); ++i) {
        EXPECT_EQ(fast.nodes[i].pixels, full.nodes[i].pixels);
        EXPECT_EQ(fast.nodes[i].triangles, full.nodes[i].triangles);
        EXPECT_EQ(fast.nodes[i].cacheAccesses,
                  full.nodes[i].cacheAccesses);
        EXPECT_EQ(fast.nodes[i].cacheMisses,
                  full.nodes[i].cacheMisses);
        EXPECT_EQ(fast.nodes[i].texelsFetched,
                  full.nodes[i].texelsFetched);
    }
    EXPECT_EQ(fast.frameTime, 0u);
    EXPECT_EQ(functional.currentTime(), 0u);
}

TEST(SampleFunctional, WarmFrameLeavesDetailedFrameExact)
{
    // Warming through the functional path must leave caches in the
    // same state a detailed warm-up would: the following detailed
    // frame matches in every statistic including timing.
    Scene scene = wallScene();
    MachineConfig cfg = l2Config(4);

    SequenceMachine a(scene, cfg);
    a.runFrame(scene);
    Tick base_a = a.currentTime();
    FrameResult after_detailed = a.runFrame(scene);

    SequenceMachine b(scene, cfg);
    b.runFrameFunctional(scene);
    Tick base_b = b.currentTime();
    EXPECT_EQ(base_b, 0u); // functional frame left the clock alone
    FrameResult after_functional = b.runFrame(scene);

    EXPECT_EQ(after_functional.frameTime,
              after_detailed.frameTime);
    EXPECT_EQ(after_functional.totalPixels,
              after_detailed.totalPixels);
    EXPECT_EQ(after_functional.totalTexelsFetched,
              after_detailed.totalTexelsFetched);
    ASSERT_EQ(after_functional.nodes.size(),
              after_detailed.nodes.size());
    for (size_t i = 0; i < after_detailed.nodes.size(); ++i) {
        EXPECT_EQ(after_functional.nodes[i].cacheAccesses,
                  after_detailed.nodes[i].cacheAccesses);
        EXPECT_EQ(after_functional.nodes[i].cacheMisses,
                  after_detailed.nodes[i].cacheMisses);
        // finishTime is absolute, and only the detailed machine's
        // clock advanced over frame 1 — compare frame-relative.
        EXPECT_EQ(after_functional.nodes[i].finishTime - base_b,
                  after_detailed.nodes[i].finishTime - base_a);
    }
}

TEST(SampleFunctional, JobsDoNotChangeFunctionalResults)
{
    Scene scene = wallScene();
    MachineConfig cfg = l2Config(4);

    SequenceMachine one(scene, cfg, 1);
    SequenceMachine four(scene, cfg, 4);
    FrameResult r1 = one.runFrameFunctional(scene);
    FrameResult r4 = four.runFrameFunctional(scene);
    EXPECT_EQ(r1.totalPixels, r4.totalPixels);
    EXPECT_EQ(r1.totalTexelsFetched, r4.totalTexelsFetched);
    for (size_t i = 0; i < r1.nodes.size(); ++i) {
        EXPECT_EQ(r1.nodes[i].cacheAccesses,
                  r4.nodes[i].cacheAccesses);
        EXPECT_EQ(r1.nodes[i].cacheMisses, r4.nodes[i].cacheMisses);
    }
}

TEST(SampleFunctional, SerializeRefusesTaintedMachine)
{
    Scene scene = wallScene();
    SequenceMachine machine(scene, l2Config(4));
    machine.runFrameFunctional(scene);
    CheckpointWriter w;
    try {
        machine.serialize(w);
        ADD_FAILURE() << "tainted machine serialized";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Checkpoint);
        EXPECT_EQ(e.rule(), ParseRule::Mismatch);
        EXPECT_NE(e.describe().find("sampled"), std::string::npos)
            << e.describe();
    }
}

/**
 * Drive an 8-px pan of wallScene() under @p args the way texdist_sim
 * drives a sampled run: warm frames run functionally, ff frames not
 * at all, and only detailed frames are bracketed by the oracle. With
 * @p leak, a texel leak is planted on node 0 after the first warm
 * frame. Returns the frame the oracle threw at, or -1; @p checked
 * counts the detailed frames.
 */
int64_t
sampledOracleRun(std::initializer_list<const char *> args, bool leak,
                 uint32_t &checked)
{
    SimOptions opts = parse(args);
    Scene base = wallScene();
    MachineConfig cfg = l2Config(4);
    SequenceMachine machine(base, cfg);
    OracleEngine oracle(cfg, opts.oracle);
    oracle.attach(machine);
    checked = 0;
    for (uint32_t f = 0; f < opts.frames; ++f) {
        const FrameRole role = frameRole(opts.sample, f);
        if (role == FrameRole::Skip)
            continue;
        Scene scene = translateScene(base, 8.0f * float(f), 0.0f);
        if (role == FrameRole::Warm) {
            machine.runFrameFunctional(scene);
            if (leak)
                machine.node(0).debugPlantTexelLeak();
            continue;
        }
        oracle.beginFrame(scene);
        FrameResult r = machine.runFrame(scene);
        ++checked;
        try {
            oracle.endFrame(f, scene, &machine.distribution(), &r,
                            machine.currentTime());
        } catch (const OracleError &e) {
            EXPECT_NE(e.describe().find("cache accesses"),
                      std::string::npos)
                << e.describe();
            return e.frame();
        }
    }
    return -1;
}

TEST(SampleOracle, FullOracleChecksTheDetailedFrames)
{
    uint32_t checked = 0;
    EXPECT_EQ(sampledOracleRun({"--frames=12",
                                "--sample=warm:1,detail:1,ff:4",
                                "--oracle=full"},
                               false, checked),
              -1);
    EXPECT_EQ(checked, 2u); // frames 3 and 9
}

TEST(SampleOracle, TexelLeakAfterFunctionalFramesThrows)
{
    // The leak is planted after warm frame 2; the functional scan
    // does not leak, so the detailed frame 3 is the first to show it.
    uint32_t checked = 0;
    EXPECT_EQ(sampledOracleRun({"--frames=12",
                                "--sample=warm:1,detail:1,ff:4",
                                "--oracle=cheap"},
                               true, checked),
              3);
    EXPECT_EQ(checked, 1u);
}

TEST(SampleFunctionalDeath, FaultPlansRejected)
{
    Scene scene = wallScene();
    MachineConfig cfg = l2Config(2);
    FaultSpec fault;
    fault.kind = FaultKind::SlowNode;
    fault.victim = 0;
    fault.at = 100;
    fault.factor = 4;
    cfg.faults.faults.push_back(fault);
    SequenceMachine machine(scene, cfg);
    EXPECT_EXIT((void)machine.runFrameFunctional(scene),
                ::testing::ExitedWithCode(1),
                "not supported in sampled");
}

} // namespace
} // namespace texdist
