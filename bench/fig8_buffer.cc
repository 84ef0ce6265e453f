/**
 * @file
 * Experiment F8 — reproduces Figure 8, "Speedup vs. block size and
 * triangle buffer size" for truc640 on 64 processors with the block
 * distribution; left graph with a perfect cache, right graph with
 * the 16 KB cache and a 2 texels/pixel bus.
 *
 * Paper findings to check: ~500 buffer entries reach the ideal
 * buffer's performance; with small buffers the best block width
 * shifts downward (load balance dominates the setup/cache effects);
 * the buffer matters more once the real cache's bursty stalls are
 * modelled (e.g. a 16-entry buffer keeps ~90% of peak with a
 * perfect cache but only ~73% with the real one).
 */

#include <iostream>

#include "bench_common.hh"
#include "core/csv.hh"

using namespace texdist;

namespace
{

const std::vector<uint32_t> bufferSizes = {1,  5,   10,  20,
                                           50, 100, 500, 10000};

void
bufferGraph(FrameLab &lab, bool perfect, const BenchOptions &opts)
{
    CsvWriter csv(opts.csvDir, perfect ? "fig8_perfect"
                                       : "fig8_16kb_2x");
    std::cout << "\n== Fig 8 ("
              << (perfect ? "perfect cache"
                          : "16KB cache, 2 texels/pixel bus")
              << "): speedup vs block width per buffer size, "
                 "truc640, 64 processors, block distribution ==\n";
    std::vector<std::string> headers = {"width"};
    for (uint32_t b : bufferSizes)
        headers.push_back(std::string("b").append(std::to_string(b)));
    TablePrinter table(std::cout, headers, 9);
    table.printHeader();
    csv.header(headers);

    std::vector<std::vector<double>> grid;
    for (uint32_t width : blockWidthsLb) {
        table.cell(uint64_t(width));
        csv.beginRow(double(width));
        grid.emplace_back();
        for (uint32_t buffer : bufferSizes) {
            MachineConfig cfg = paperConfig();
            cfg.numProcs = 64;
            cfg.dist = DistKind::Block;
            cfg.tileParam = width;
            cfg.triangleBufferSize = buffer;
            if (perfect) {
                cfg.cacheKind = CacheKind::Perfect;
                cfg.infiniteBus = true;
            } else {
                cfg.busTexelsPerCycle = 2.0;
            }
            double s = lab.runWithSpeedup(cfg).speedup;
            grid.back().push_back(s);
            table.cell(s, 2);
            csv.value(s);
        }
        table.endRow();
        csv.endRow();
    }

    // Best width per buffer size (the paper's "best size shrinks
    // with the buffer" observation).
    table.cell(std::string("best w"));
    for (size_t bi = 0; bi < bufferSizes.size(); ++bi) {
        double best = -1.0;
        uint32_t best_w = 0;
        for (size_t wi = 0; wi < blockWidthsLb.size(); ++wi) {
            if (grid[wi][bi] > best) {
                best = grid[wi][bi];
                best_w = blockWidthsLb[wi];
            }
        }
        table.cell(uint64_t(best_w));
    }
    table.endRow();

    // Percent of peak reached by each buffer size at the overall
    // best width.
    double peak = 0.0;
    size_t peak_wi = 0;
    for (size_t wi = 0; wi < grid.size(); ++wi) {
        if (grid[wi].back() > peak) {
            peak = grid[wi].back();
            peak_wi = wi;
        }
    }
    table.cell(std::string("% of peak"));
    for (size_t bi = 0; bi < bufferSizes.size(); ++bi)
        table.cell(100.0 * grid[peak_wi][bi] / peak, 1);
    table.endRow();
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Figure 8: triangle buffer size (scale "
              << opts.scale << ")\n";

    Scene scene = loadScene("truc640", opts.scale);
    FrameLab lab(scene);
    bufferGraph(lab, /*perfect=*/true, opts);
    bufferGraph(lab, /*perfect=*/false, opts);
    return 0;
}
