#include "core/metrics.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <iomanip>
#include <string>
#include <type_traits>
#include <vector>

#include "core/replay.hh"

namespace texdist
{

namespace
{

/** Read member @p M (a field or a getter) of a result or component. */
template <auto M, typename C>
MetricValue
read(const C &c)
{
    const auto &v = std::invoke(M, c);
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, double>)
        return {.kind = MetricKind::Real, .real = v};
    else if constexpr (std::is_same_v<T, Histogram>)
        return {.kind = MetricKind::Histogram, .histogram = &v};
    else if constexpr (std::is_same_v<T, bool>)
        return {.kind = MetricKind::Flag, .count = v};
    else
        return {.count = uint64_t(v)};
}

/** Store a parsed result-CSV cell into row field @p F. */
template <auto F>
void
store(FrameCsvRow &row, const MetricValue &v)
{
    using T = std::remove_reference_t<decltype(row.*F)>;
    if constexpr (std::is_same_v<T, double>)
        row.*F = v.real;
    else
        row.*F = T(v.count);
}

using R = FrameResult;
using Row = FrameCsvRow;
using Node = TextureNode;
using Feeder = GeometryFeeder;

// Table order is FrameResult::print's and the stats file's order;
// csvIndex gives the result-CSV order. The fault counters have no
// label: FrameResult::print writes them in its fault block.
const Metric table[] = {
    {.name = "core.sim_cycles_per_frame", .unit = "cycles",
     .check = "frame time", .frame = read<&R::frameTime>,
     .label = "frame time", .suffix = " cycles", .csvIndex = 1,
     .csvColumn = "cycles", .parsed = store<&Row::cycles>},
    {.name = "core.fragments", .unit = "count",
     .check = "fragment conservation", .frame = read<&R::totalPixels>,
     .label = "fragments drawn", .csvIndex = 2, .csvColumn = "pixels",
     .parsed = store<&Row::pixels>},
    {.name = "core.triangles", .unit = "count", .check = "none",
     .frame = read<&R::trianglesDispatched>, .label = "triangles",
     .csvIndex = 4, .csvColumn = "triangles",
     .parsed = store<&Row::triangles>},
    {.name = "mem.texels_fetched", .unit = "count",
     .check = "texel conservation", .frame = read<&R::totalTexelsFetched>,
     .label = "texels fetched", .csvIndex = 3,
     .csvColumn = "texels_fetched", .parsed = store<&Row::texelsFetched>},
    {.name = "mem.texels_per_frag", .unit = "count", .check = "none",
     .frame = read<&R::texelToFragmentRatio>, .label = "texel/fragment",
     .precision = 3, .csvIndex = 5, .csvColumn = "texel_fragment_ratio",
     .parsed = store<&Row::texelFragmentRatio>},
    {.name = "core.pixel_imbalance_pct", .unit = "%", .check = "none",
     .frame = read<&R::pixelImbalancePercent>, .label = "pixel imbalance",
     .precision = 1, .suffix = " %", .csvIndex = 6,
     .csvColumn = "imbalance_pct", .parsed = store<&Row::imbalancePct>},
    {.name = "core.time_imbalance_pct", .unit = "%", .check = "none",
     .frame = read<&R::timeImbalancePercent>, .label = "time imbalance",
     .precision = 1, .suffix = " %"},
    {.name = "mem.bus_util", .unit = "ratio", .check = "none",
     .frame = read<&R::meanBusUtilization>, .label = "mean bus util",
     .precision = 2, .csvIndex = 7, .csvColumn = "bus_util",
     .parsed = store<&Row::busUtil>},
    {.name = "core.fifo_high_water", .unit = "entries",
     .check = "fifo bound", .frame = read<&R::fifoMaxOccupancy>,
     .label = "fifo high water"},
    {.name = "fault.injected", .unit = "count", .check = "none",
     .frame = [](const R &r) {
         return MetricValue{.count = r.faultStats.injected};
     },
     .csvIndex = 8, .csvColumn = "faults_injected",
     .parsed = store<&Row::faultsInjected>},
    {.name = "fault.degraded", .unit = "flag", .check = "none",
     .frame = read<&R::degraded>, .csvIndex = 9, .csvColumn = "degraded",
     .parsed = store<&Row::degraded>},
    {.name = "fault.failed", .unit = "flag", .check = "none",
     .frame = read<&R::failed>, .csvIndex = 10, .csvColumn = "failed",
     .parsed = store<&Row::failed>},

    {.name = "feeder.dispatched", .unit = "count", .check = "none",
     .feeder = read<&Feeder::trianglesDispatched>,
     .label = "triangles dispatched"},
    {.name = "feeder.rerouted_frags", .unit = "count", .check = "none",
     .feeder = read<&Feeder::fragmentsRerouted>,
     .label = "fragments rerouted off dead nodes"},
    {.name = "feeder.degenerate", .unit = "count", .check = "none",
     .feeder = read<&Feeder::degenerateTriangles>,
     .label = "zero-area triangles skipped"},
    {.name = "feeder.culled", .unit = "count", .check = "none",
     .feeder = read<&Feeder::culledTriangles>,
     .label = "off-screen triangles skipped"},
    {.name = "feeder.blocked_cycles", .unit = "cycles", .check = "none",
     .feeder = read<&Feeder::blockedCycles>,
     .label = "cycles blocked on full FIFOs"},
    {.name = "feeder.fifo_occupancy", .unit = "entries", .check = "none",
     .feeder = read<&Feeder::fifoOccupancyHistogram>,
     .label = "destination FIFO occupancy at dispatch"},

    {.name = "node.pixels", .unit = "count", .check = "pixel coverage",
     .node = read<&Node::pixelsDrawn>, .label = "fragments drawn"},
    {.name = "node.triangles", .unit = "count", .check = "none",
     .node = read<&Node::trianglesReceived>, .label = "triangles received"},
    {.name = "node.setup_bound", .unit = "count", .check = "none",
     .node = read<&Node::setupBoundTriangles>,
     .label = "setup-engine-bound triangles"},
    {.name = "node.stall_cycles", .unit = "cycles", .check = "none",
     .node = read<&Node::stallCycles>,
     .label = "prefetch-queue stall cycles"},
    {.name = "node.idle_cycles", .unit = "cycles", .check = "none",
     .node = read<&Node::idleCycles>,
     .label = "cycles starved for triangles"},
    {.name = "node.triangle_pixels", .unit = "count", .check = "none",
     .node = read<&Node::trianglePixelsHistogram>,
     .label = "pixels per received triangle"},
};

/** Metric @p m's stats lines for component @p instance. */
void
statLines(std::ostream &os, const std::string &instance,
          const Metric &m, const MetricValue &v)
{
    const std::string stat = instance + std::strchr(m.name, '.');
    auto line = [&](const std::string &name, auto value) {
        os << std::left << std::setw(40) << name << " "
           << std::setw(16) << value << " # " << m.label << "\n";
    };
    if (v.kind == MetricKind::Histogram) {
        line(stat + "::count", v.histogram->count());
        line(stat + "::mean", v.histogram->mean());
        line(stat + "::p95", v.histogram->quantile(0.95));
        line(stat + "::max", v.histogram->maxValue());
    } else if (v.kind == MetricKind::Real) {
        line(stat, v.real);
    } else {
        line(stat, v.count);
    }
}

} // namespace

std::span<const Metric>
metricTable()
{
    return table;
}

std::vector<const Metric *>
csvMetrics()
{
    std::vector<const Metric *> out;
    for (const Metric &m : table)
        if (m.csvIndex > 0)
            out.push_back(&m);
    std::ranges::sort(out, {}, [](const Metric *m) { return m->csvIndex; });
    return out;
}

void
writeMachineStats(std::ostream &os, const ParallelMachine &machine)
{
    for (const Metric &m : table)
        if (m.feeder)
            statLines(os, "feeder", m, m.feeder(machine.feeder()));
    for (uint32_t i = 0; i < machine.numNodes(); ++i)
        for (const Metric &m : table)
            if (m.node)
                statLines(os, machine.node(i).name(), m,
                          m.node(machine.node(i)));
}

} // namespace texdist
