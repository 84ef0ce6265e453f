/** @file Tests for the simulator driver's option parser. */

#include <gtest/gtest.h>

#include "core/error.hh"
#include "core/options.hh"
#include "sim/thread_pool.hh"

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

SimOptions
parse(std::initializer_list<const char *> args)
{
    std::vector<char *> argv = {const_cast<char *>("texdist_sim")};
    for (const char *a : args)
        argv.push_back(const_cast<char *>(a));
    return SimOptions::parse(int(argv.size()), argv.data());
}

TEST(SimOptions, Defaults)
{
    SimOptions o = parse({});
    EXPECT_EQ(o.scene, "32massive11255");
    EXPECT_DOUBLE_EQ(o.scale, 0.5);
    EXPECT_EQ(o.machine.numProcs, 1u);
    EXPECT_EQ(o.machine.dist, DistKind::Block);
    EXPECT_EQ(o.machine.tileParam, 16u);
    EXPECT_EQ(o.machine.cacheKind, CacheKind::SetAssoc);
    EXPECT_FALSE(o.machine.infiniteBus);
    EXPECT_FALSE(o.help);
}

TEST(SimOptions, FullMachineLine)
{
    SimOptions o = parse({"--scene=quake", "--scale=0.25",
                          "--procs=64", "--dist=sli", "--param=4",
                          "--interleave=diagonal",
                          "--cache=perfect", "--cache-kb=32",
                          "--cache-ways=8", "--bus=2", "--buffer=50",
                          "--setup=30", "--prefetch=128",
                          "--geometry=1.5", "--geom-procs=4",
                          "--geom-cycles=120",
                          "--stats-file=/tmp/s.txt"});
    EXPECT_EQ(o.scene, "quake");
    EXPECT_DOUBLE_EQ(o.scale, 0.25);
    EXPECT_EQ(o.machine.numProcs, 64u);
    EXPECT_EQ(o.machine.dist, DistKind::SLI);
    EXPECT_EQ(o.machine.tileParam, 4u);
    EXPECT_EQ(o.machine.interleave, InterleaveOrder::Diagonal);
    EXPECT_EQ(o.machine.cacheKind, CacheKind::Perfect);
    EXPECT_EQ(o.machine.cacheGeom.sizeBytes, 32u * 1024);
    EXPECT_EQ(o.machine.cacheGeom.ways, 8u);
    EXPECT_DOUBLE_EQ(o.machine.busTexelsPerCycle, 2.0);
    EXPECT_EQ(o.machine.triangleBufferSize, 50u);
    EXPECT_EQ(o.machine.setupCyclesPerTriangle, 30u);
    EXPECT_EQ(o.machine.prefetchQueueDepth, 128u);
    EXPECT_DOUBLE_EQ(o.machine.geometryTrianglesPerCycle, 1.5);
    EXPECT_EQ(o.machine.geometryProcs, 4u);
    EXPECT_EQ(o.machine.geometryCyclesPerTriangle, 120u);
    EXPECT_EQ(o.statsFile, "/tmp/s.txt");
}

TEST(SimOptions, ContiguousDistribution)
{
    SimOptions o = parse({"--dist=contiguous"});
    EXPECT_EQ(o.machine.dist, DistKind::Contiguous);
}

TEST(SimOptions, BusZeroMeansInfinite)
{
    SimOptions o = parse({"--bus=0"});
    EXPECT_TRUE(o.machine.infiniteBus);
}

TEST(SimOptions, TraceAndFlags)
{
    SimOptions o = parse({"--trace=/tmp/f.trace"});
    EXPECT_EQ(o.tracePath, "/tmp/f.trace");
    EXPECT_TRUE(parse({"--help"}).help);
    EXPECT_TRUE(parse({"--list-benchmarks"}).listBenchmarks);
}

TEST(SimOptions, UsageMentionsEveryOption)
{
    std::string u = SimOptions::usage();
    for (const char *key :
         {"--scene", "--scale", "--trace", "--procs", "--dist",
          "--param", "--interleave", "--cache", "--cache-kb",
          "--cache-ways", "--bus", "--buffer", "--setup",
          "--prefetch", "--geometry", "--geom-procs",
          "--geom-cycles", "--stats-file", "--fault",
          "--fault-seed", "--watchdog"})
        EXPECT_NE(u.find(key), std::string::npos) << key;
}

TEST(SimOptions, FaultAndWatchdogFlags)
{
    SimOptions o = parse(
        {"--fault=slow-node:3,at=10000,x=8",
         "--fault=kill-node:rand,at=500;fifo-freeze:1,at=20",
         "--fault-seed=99", "--watchdog=degrade"});
    ASSERT_EQ(o.machine.faults.faults.size(), 3u);
    EXPECT_EQ(o.machine.faults.faults[0].kind, FaultKind::SlowNode);
    EXPECT_EQ(o.machine.faults.faults[0].victim, 3u);
    EXPECT_EQ(o.machine.faults.faults[0].factor, 8u);
    EXPECT_EQ(o.machine.faults.faults[1].kind, FaultKind::KillNode);
    EXPECT_EQ(o.machine.faults.faults[1].victim, faultRandomVictim);
    EXPECT_EQ(o.machine.faults.faults[2].kind,
              FaultKind::FifoFreeze);
    EXPECT_EQ(o.machine.faults.seed, 99u);
    EXPECT_EQ(o.machine.watchdogPolicy, WatchdogPolicy::Degrade);
}

TEST(SimOptions, WatchdogDefaultsOff)
{
    SimOptions o = parse({});
    EXPECT_TRUE(o.machine.faults.empty());
    EXPECT_EQ(o.machine.watchdogPolicy, WatchdogPolicy::FailFrame);
}

TEST(SimOptionsError, UnknownOptionFatal)
{
    expectCliError([&] { return parse({"--bogus=1"}); },
                   {"unknown option"});
    // The interval watchdog is gone: deadlock detection is exact.
    expectCliError([&] { return parse({"--watchdog-ticks=500"}); },
                   {"unknown option", "--watchdog-ticks"});
}

TEST(SimOptionsError, BadValuesFatal)
{
    expectCliError([&] { return parse({"--procs=banana"}); },
                   {"integer"});
    expectCliError([&] { return parse({"--procs=0"}); },
                   {"positive"});
    expectCliError([&] { return parse({"--dist=middle"}); },
                   {"block, sli or"});
    expectCliError([&] { return parse({"--scale=-1"}); },
                   {"out of range"});
    expectCliError([&] { return parse({"--cache=l3"}); },
                   {"unknown cache kind"});
    expectCliError([&] { return parse({"--buffer=0"}); },
                   {"positive"});
}

TEST(SimOptionsError, StrictNumericParsing)
{
    // strtoul would silently wrap "-1" to a huge value and accept
    // trailing junk; both must be fatal, not a mis-measured machine.
    expectCliError([&] { return parse({"--procs=-1"}); },
                   {"integer"});
    expectCliError([&] { return parse({"--procs=16x"}); },
                   {"integer"});
    expectCliError([&] { return parse({"--procs=99999999999999999999"}); },
                   {"out of range"});
    expectCliError([&] { return parse({"--procs=8192"}); },
                   {"too large"});
    expectCliError([&] { return parse({"--buffer="}); },
                   {"integer"});
    expectCliError([&] { return parse({"--scale=nan"}); },
                   {"finite"});
    expectCliError([&] { return parse({"--scale=1e999"}); },
                   {"finite"});
    expectCliError([&] { return parse({"--scale=0.5abc"}); },
                   {"number"});
    expectCliError([&] { return parse({"--bus=-2"}); },
                   {">= 0"});
}

TEST(SimOptions, JobsDefaultsToAutoAndClampsToHardware)
{
    SimOptions o = parse({});
    EXPECT_EQ(o.jobs, 0u); // auto
    EXPECT_EQ(o.resolvedJobs(), ThreadPool::defaultThreads());

    o = parse({"--jobs=1"});
    EXPECT_EQ(o.jobs, 1u);
    EXPECT_EQ(o.resolvedJobs(), 1u);

    // Requests beyond the host width clamp instead of oversubscribing.
    o = parse({"--jobs=1048576"});
    EXPECT_EQ(o.jobs, ThreadPool::defaultThreads());
}

TEST(SimOptions, VectorParseMatchesArgvParse)
{
    std::vector<std::string> args = {"--scene=quake", "--procs=16",
                                     "--frames=4", "--jobs=1"};
    SimOptions o = SimOptions::parse(args);
    EXPECT_EQ(o.scene, "quake");
    EXPECT_EQ(o.machine.numProcs, 16u);
    EXPECT_EQ(o.frames, 4u);
    EXPECT_EQ(o.jobs, 1u);
}

TEST(ParseHostThreads, ClampsAndNamesTheFlag)
{
    EXPECT_EQ(parseHostThreads("1", "threads"), 1u);
    EXPECT_EQ(parseHostThreads("1048576", "threads"),
              ThreadPool::defaultThreads());
}

TEST(ParseHostThreadsError, RejectsBadValues)
{
    expectCliError([&] { return parseHostThreads("0", "threads"); },
                   {"--threads", "positive"});
    expectCliError([&] { return parseHostThreads("-2", "threads"); },
                   {"--threads", "integer"});
    expectCliError([&] { return parseHostThreads("8q", "jobs"); },
                   {"--jobs", "integer"});
}

TEST(SimOptionsError, BadJobsValuesFatal)
{
    expectCliError([&] { return parse({"--jobs=0"}); },
                   {"positive"});
    expectCliError([&] { return parse({"--jobs=-4"}); },
                   {"integer"});
    expectCliError([&] { return parse({"--jobs=four"}); },
                   {"integer"});
    expectCliError([&] { return parse({"--jobs=4x"}); },
                   {"integer"});
    expectCliError([&] { return parse({"--jobs="}); },
                   {"integer"});
    expectCliError([&] { return parse({"--jobs=99999999999999999999"}); },
                   {"out of range"});
}

TEST(SimOptionsError, BadFaultAndWatchdogValuesFatal)
{
    expectCliError([&] { return parse({"--fault=melt-node:1"}); },
                   {"unknown fault kind"});
    expectCliError([&] { return parse({"--fault=slow-node:1,x=banana"}); },
                   {"integer"});
    expectCliError([&] { return parse({"--fault-seed=abc"}); },
                   {"integer"});
    expectCliError([&] { return parse({"--watchdog=panic"}); },
                   {"fail or degrade"});
}

} // namespace
} // namespace texdist
