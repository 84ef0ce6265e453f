/**
 * @file
 * Shared driver for the Figure 7 family: speedups of the full
 * machine (16 KB caches, bandwidth-limited buses) for 4 / 16 / 64
 * processors, block and SLI distributions, every tile size, every
 * benchmark. The released figure uses a 1 texel/pixel bus; the
 * technical-report variant [15] uses 2 texels/pixel.
 */

#ifndef TEXDIST_BENCH_FIG7_COMMON_HH
#define TEXDIST_BENCH_FIG7_COMMON_HH

#include <iostream>

#include <sstream>

#include "bench_common.hh"
#include "core/csv.hh"

namespace texdist
{

inline void
runFig7(double bus_ratio, const BenchOptions &opts)
{
    std::cout << "Figure 7: speedups with a " << bus_ratio
              << " texel/pixel bus (scale " << opts.scale
              << ", threads " << opts.threads << ")\n";
    ThreadPool pool(opts.threads);

    for (uint32_t procs : {4u, 16u, 64u}) {
        for (DistKind kind : {DistKind::Block, DistKind::SLI}) {
            const auto &params =
                kind == DistKind::Block ? blockWidths : sliLines;
            std::cout << "\n== " << procs << " processors / "
                      << to_string(kind) << " ==\n";
            std::vector<std::string> headers = {"scene"};
            for (uint32_t p : params)
                headers.push_back(paramLabel(kind, p));
            headers.push_back("best");
            TablePrinter table(std::cout, headers, 8);
            table.printHeader();
            std::ostringstream csv_name;
            csv_name << "fig7_bus" << bus_ratio << "_" << procs
                     << "p_" << to_string(kind);
            CsvWriter csv(opts.csvDir, csv_name.str());
            csv.header(headers);

            for (const std::string &name : benchmarkNames()) {
                Scene scene = makeBenchmark(name, opts.scale);
                FrameLab lab(scene);
                table.cell(name);
                csv.beginRow(name);
                double best = 0.0;
                uint32_t best_param = 0;
                std::vector<MachineConfig> cfgs;
                for (uint32_t param : params) {
                    MachineConfig cfg = paperConfig();
                    cfg.busTexelsPerCycle = bus_ratio;
                    cfg.numProcs = procs;
                    cfg.dist = kind;
                    cfg.tileParam = param;
                    cfgs.push_back(cfg);
                }
                auto results = lab.runBatch(cfgs, pool);
                for (size_t i = 0; i < params.size(); ++i) {
                    double s = results[i].speedup;
                    if (s > best) {
                        best = s;
                        best_param = params[i];
                    }
                    table.cell(s, 2);
                    csv.value(s);
                }
                table.cell(paramLabel(kind, best_param));
                csv.value(paramLabel(kind, best_param));
                table.endRow();
                csv.endRow();
            }
        }
    }

    std::cout << "\npaper findings to check: best block width ~16 at "
                 "every processor count;\nbest SLI height shrinks "
                 "as processors grow (16 @ 4P, 8 @ 16P, 4 @ 64P);\n"
                 "block and SLI comparable at 4-16 processors, block "
                 "ahead at 64.\n";
}

} // namespace texdist

#endif // TEXDIST_BENCH_FIG7_COMMON_HH
