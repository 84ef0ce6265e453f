/**
 * @file
 * The one table of the simulator's named metrics: for every number a
 * run reports about a frame, a node or the geometry feeder, a stable
 * dotted name, a unit, its accessor, its sinks and the oracle check
 * that guards it. FrameResult::print, the result CSV (frameCsvRow,
 * parseFrameCsvText) and `--stats-file` (writeMachineStats) all loop
 * over it. Names reuse BENCHMARK.json's per-layer names, with the
 * same unit, where one exists.
 */

#ifndef TEXDIST_CORE_METRICS_HH
#define TEXDIST_CORE_METRICS_HH

#include <span>
#include <vector>

#include "core/machine.hh"

namespace texdist
{

struct FrameCsvRow;

/**
 * How a value is printed, written and parsed: an unsigned integer, a
 * double, 0 or 1, or a histogram (its ::count, ::mean, ::p95 and
 * ::max stats lines). It follows from the accessor's type alone.
 */
enum class MetricKind : uint8_t { Count, Real, Flag, Histogram };

/** One value read through the table; its kind says which field. */
struct MetricValue
{
    MetricKind kind = MetricKind::Count;
    uint64_t count = 0; ///< Count and Flag
    double real = 0.0;
    const Histogram *histogram = nullptr;
};

/**
 * One metric. Exactly one of frame/node/feeder is set: its scope. A
 * frame metric is printed by FrameResult::print if it has a label
 * and is a result-CSV column if it has a csvIndex. Node and feeder
 * metrics are the stats-file lines "node<i>.<stat>" and
 * "feeder.<stat>" (stat: the name after its first dot), commented
 * with their label.
 */
struct Metric
{
    const char *name;
    const char *unit;
    const char *check; ///< oracleCheckNames() entry, or "none"
    MetricValue (*frame)(const FrameResult &) = nullptr;
    MetricValue (*node)(const TextureNode &) = nullptr;
    MetricValue (*feeder)(const GeometryFeeder &) = nullptr;
    const char *label = nullptr;
    int precision = 0; ///< fixed-point digits of a printed Real
    const char *suffix = "";
    int csvIndex = 0; ///< 1-based column after "frame"; 0: none
    const char *csvColumn = nullptr;
    void (*parsed)(FrameCsvRow &, const MetricValue &) = nullptr;
};

std::span<const Metric> metricTable();

/** The result-CSV metrics in column order. */
std::vector<const Metric *> csvMetrics();

/** The `--stats-file` lines of a finished single-frame machine. */
void writeMachineStats(std::ostream &os, const ParallelMachine &machine);

} // namespace texdist

#endif // TEXDIST_CORE_METRICS_HH
