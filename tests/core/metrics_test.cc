/** @file Invariants of the metric table and the sinks that read it. */

#include <cstdio>
#include <iomanip>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/csv.hh"
#include "core/json.hh"
#include "core/machine.hh"
#include "core/metrics.hh"
#include "core/replay.hh"
#include "oracle/oracle.hh"
#include "scene/benchmarks.hh"

namespace texdist
{
namespace
{

int
scopes(const Metric &m)
{
    return int(m.frame != nullptr) + int(m.node != nullptr) +
           int(m.feeder != nullptr);
}

/** A small finished single-frame machine. */
struct RunMachine
{
    Scene scene = makeBenchmark("quake", 0.125);
    MachineConfig cfg = [] {
        MachineConfig c;
        c.numProcs = 4;
        return c;
    }();
    ParallelMachine machine{scene, cfg};
    FrameResult result = machine.run();
};

TEST(Metrics, NamesAreUniqueAndDotted)
{
    std::set<std::string> seen;
    for (const Metric &m : metricTable()) {
        const std::string name = m.name;
        EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
        const size_t dot = name.find('.');
        EXPECT_NE(dot, std::string::npos) << name;
        EXPECT_GT(dot, 0u) << name;
        EXPECT_LT(dot + 1, name.size()) << name;
        EXPECT_EQ(name.find_first_of(" :"), std::string::npos) << name;
    }
}

TEST(Metrics, UnitsAreNonEmpty)
{
    for (const Metric &m : metricTable()) {
        ASSERT_NE(m.unit, nullptr) << m.name;
        EXPECT_NE(std::string(m.unit), "") << m.name;
    }
}

TEST(Metrics, ChecksAreNoneOrOracleChecks)
{
    std::set<std::string> checks;
    for (const char *c : oracleCheckNames())
        checks.insert(c);
    for (const Metric &m : metricTable()) {
        ASSERT_NE(m.check, nullptr) << m.name;
        EXPECT_TRUE(std::string(m.check) == "none" ||
                    checks.count(m.check))
            << m.name << " names \"" << m.check
            << "\", which the oracle does not report";
    }
}

TEST(Metrics, UnitsMatchBenchmarkPerLayer)
{
    JsonValue bench =
        JsonValue::parseFile(TEXDIST_SOURCE_DIR "/BENCHMARK.json");
    std::map<std::string, std::string> units;
    for (const JsonValue &layer : bench.at("per_layer").items())
        units[layer.at("name").asString()] = layer.at("unit").asString();
    ASSERT_FALSE(units.empty());

    int shared = 0;
    for (const Metric &m : metricTable()) {
        auto it = units.find(m.name);
        if (it == units.end())
            continue;
        ++shared;
        EXPECT_EQ(it->second, m.unit) << m.name;
    }
    EXPECT_GE(shared, 4) << "the table reuses the per-layer names";
}

TEST(Metrics, EachMetricHasOneScopeAndItsSinks)
{
    for (const Metric &m : metricTable()) {
        const std::string name = m.name;
        EXPECT_EQ(scopes(m), 1) << name;
        if (m.node) {
            EXPECT_EQ(name.rfind("node.", 0), 0u) << name;
        }
        if (m.feeder) {
            EXPECT_EQ(name.rfind("feeder.", 0), 0u) << name;
        }
        if (!m.frame) {
            // Every node and feeder metric is a stats-file line.
            EXPECT_NE(m.label, nullptr) << name;
            EXPECT_EQ(m.csvIndex, 0) << name;
        } else {
            EXPECT_NE(m.frame(FrameResult()).kind, MetricKind::Histogram)
                << name << ": histograms are stats-file summaries";
        }
        EXPECT_EQ(m.csvIndex > 0, m.csvColumn != nullptr) << name;
        EXPECT_EQ(m.csvIndex > 0, m.parsed != nullptr) << name;
    }
}

TEST(Metrics, CsvColumnsAreNumberedInOrder)
{
    int expect = 1;
    std::set<std::string> columns{"frame", "digest"};
    for (const Metric *m : csvMetrics()) {
        EXPECT_EQ(m->csvIndex, expect++) << m->name;
        EXPECT_TRUE(columns.insert(m->csvColumn).second)
            << "duplicate column " << m->csvColumn;
    }
    int numbered = 0;
    for (const Metric &m : metricTable())
        numbered += m.csvIndex > 0 ? 1 : 0;
    EXPECT_EQ(numbered, int(csvMetrics().size()));
}

TEST(Metrics, ResultCsvRoundTripsThroughTheTable)
{
    RunMachine run;
    const FrameResult &r = run.result;
    const std::string path = testing::TempDir() + "metrics_rt.csv";
    {
        CsvWriter csv(path);
        frameCsvHeader(csv);
        frameCsvRow(csv, 7, r, 0x0123456789abcdefull);
        csv.close();
    }
    std::vector<FrameCsvRow> rows = parseFrameCsvFile(path);
    std::remove(path.c_str());
    ASSERT_EQ(rows.size(), 1u);
    const FrameCsvRow &row = rows[0];
    EXPECT_EQ(row.frame, 7u);
    EXPECT_EQ(row.cycles, r.frameTime);
    EXPECT_EQ(row.pixels, r.totalPixels);
    EXPECT_EQ(row.texelsFetched, r.totalTexelsFetched);
    EXPECT_EQ(row.triangles, r.trianglesDispatched);
    EXPECT_NEAR(row.texelFragmentRatio, r.texelToFragmentRatio, 1e-4);
    EXPECT_NEAR(row.imbalancePct, r.pixelImbalancePercent, 1e-3);
    EXPECT_NEAR(row.busUtil, r.meanBusUtilization, 1e-5);
    EXPECT_EQ(row.faultsInjected, r.faultStats.injected);
    EXPECT_EQ(row.degraded, r.degraded);
    EXPECT_EQ(row.failed, r.failed);
    EXPECT_EQ(row.digest, 0x0123456789abcdefull);
}

TEST(Metrics, PrintWritesEveryLabeledFrameMetric)
{
    RunMachine run;
    std::ostringstream os;
    run.result.print(os);
    const std::string out = os.str();
    for (const Metric &m : metricTable()) {
        if (!m.frame || !m.label)
            continue;
        std::string label = std::string(m.label) + ":";
        label.resize(19, ' ');
        EXPECT_NE(out.find(label), std::string::npos) << m.name;
    }
}

TEST(Metrics, StatsFileFormatsTableLines)
{
    RunMachine run;
    std::ostringstream os;
    writeMachineStats(os, run.machine);
    std::istringstream in(os.str());
    std::string line;
    std::getline(in, line);
    char want[128];
    std::snprintf(want, sizeof(want), "%-40s %-16llu # %s",
                  "feeder.dispatched",
                  static_cast<unsigned long long>(
                      run.result.trianglesDispatched),
                  "triangles dispatched");
    EXPECT_EQ(line, want);

    // One line per count and four per histogram, for the feeder and
    // for every node.
    auto linesOf = [](auto value) {
        size_t n = 0;
        for (const Metric &m : metricTable())
            if (std::optional<MetricValue> v = value(m))
                n += v->kind == MetricKind::Histogram ? 4 : 1;
        return n;
    };
    size_t lines = 1;
    while (std::getline(in, line))
        ++lines;
    const ParallelMachine &mach = run.machine;
    auto feeder = [&](const Metric &m) -> std::optional<MetricValue> {
        if (!m.feeder)
            return std::nullopt;
        return m.feeder(mach.feeder());
    };
    auto node = [&](const Metric &m) -> std::optional<MetricValue> {
        if (!m.node)
            return std::nullopt;
        return m.node(mach.node(0));
    };
    EXPECT_EQ(lines, linesOf(feeder) + run.cfg.numProcs * linesOf(node));
}

TEST(Metrics, StatsFileExpandsHistograms)
{
    RunMachine run;
    std::ostringstream os;
    writeMachineStats(os, run.machine);
    const std::string out = os.str();
    for (const char *suffix : {"::count", "::mean", "::p95", "::max"}) {
        EXPECT_NE(out.find(std::string("node0.triangle_pixels") + suffix),
                  std::string::npos)
            << suffix;
        EXPECT_NE(out.find(std::string("feeder.fifo_occupancy") + suffix),
                  std::string::npos)
            << suffix;
    }
    std::ostringstream count;
    count << std::left << std::setw(40) << "node1.triangle_pixels::count"
          << " " << std::setw(16) << run.result.nodes[1].triangles;
    EXPECT_NE(out.find(count.str()), std::string::npos) << out;
}

TEST(Metrics, StatsFileReadsTheFinishedMachine)
{
    // The single-frame machine starts from zero, so its node lines
    // equal the frame's per-node results.
    RunMachine run;
    std::ostringstream os;
    writeMachineStats(os, run.machine);
    const std::string out = os.str();
    for (uint32_t i = 0; i < run.cfg.numProcs; ++i) {
        const NodeResult &nr = run.result.nodes[i];
        const std::string node = "node" + std::to_string(i);
        for (auto [stat, value] :
             {std::pair<const char *, uint64_t>{".pixels", nr.pixels},
              {".triangles", nr.triangles},
              {".setup_bound", nr.setupBoundTriangles},
              {".stall_cycles", nr.stallCycles},
              {".idle_cycles", nr.idleCycles}}) {
            std::ostringstream want;
            want << std::left << std::setw(40) << node + stat << " "
                 << std::setw(16) << value << " #";
            EXPECT_NE(out.find(want.str()), std::string::npos)
                << want.str();
        }
    }
}

} // namespace
} // namespace texdist
