/**
 * @file
 * Ablation A8: fault tolerance of the two distribution families.
 *
 * The paper ranks distributions by load balance and texture locality
 * on a healthy machine. This ablation asks how much *slack* each
 * distribution has against the failures that dominate real parallel
 * renderers:
 *
 *  1. Straggler sweep — one node of 16 runs x times slower
 *     (x in {1, 2, 4, 8}). Because the in-order feeder blocks on any
 *     full FIFO, a local straggler throttles the whole machine; a
 *     distribution whose tiles give the victim less contiguous work
 *     per triangle (block vs SLI) recovers more of the lost speedup.
 *
 *  2. Kill-node degradation — one node of 16 dies mid-frame and the
 *     machine completes degraded on 15 survivors. The overhead over
 *     the ideal 16/15 work ratio is the cost of redistribution:
 *     re-paid setup plus the cold caches the migrated fragments see.
 *
 * Both experiments run the identical seeded fault plan on every
 * configuration, so rows differ only in the machine under test.
 */

#include <iostream>

#include "bench_common.hh"

using namespace texdist;

namespace
{

MachineConfig
faultConfig(DistKind kind, uint32_t param)
{
    MachineConfig cfg = paperConfig();
    cfg.numProcs = 16;
    cfg.dist = kind;
    cfg.tileParam = param;
    // A finite buffer keeps the feeder coupled to the nodes, which
    // is what lets one victim back-pressure the machine.
    cfg.triangleBufferSize = 64;
    cfg.watchdogPolicy = WatchdogPolicy::Degrade;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Ablation A8: fault tolerance, 16 processors, 16KB "
                 "caches, 1x bus (scale "
              << opts.scale << ")\n";

    const struct
    {
        const char *label;
        DistKind kind;
        uint32_t param;
    } machines[] = {
        {"block16", DistKind::Block, 16},
        {"block32", DistKind::Block, 32},
        {"sli2", DistKind::SLI, 2},
        {"sli4", DistKind::SLI, 4},
    };

    for (const std::string &name :
         {std::string("32massive11255"), std::string("room3")}) {
        Scene scene = loadScene(name, opts.scale);
        FrameLab lab(scene);

        std::cout << "\n== " << name
                  << ": straggler sweep (slow-node on node 3) ==\n";
        TablePrinter straggler(
            std::cout, {"machine", "x=1", "x=2", "x=4", "x=8"}, 10);
        straggler.printHeader();
        for (const auto &m : machines) {
            straggler.cell(std::string(m.label));
            for (uint32_t factor : {1u, 2u, 4u, 8u}) {
                MachineConfig cfg = faultConfig(m.kind, m.param);
                if (factor > 1)
                    cfg.faults.add(
                        "slow-node:3,at=0,x=" +
                        std::to_string(factor));
                auto r = lab.runWithSpeedup(cfg);
                if (r.frame.failed)
                    straggler.cell(std::string("FAIL"));
                else
                    straggler.cell(r.speedup, 2);
            }
            straggler.endRow();
        }

        std::cout
            << "\n== " << name
            << ": kill one node mid-frame, complete on 15 ==\n";
        TablePrinter kill(std::cout,
                          {"machine", "spdup ok", "spdup deg",
                           "overhead%", "redist", "rerouted"},
                          11);
        kill.printHeader();
        for (const auto &m : machines) {
            MachineConfig healthy = faultConfig(m.kind, m.param);
            auto ok = lab.runWithSpeedup(healthy);

            MachineConfig cfg = faultConfig(m.kind, m.param);
            cfg.faults.add("kill-node:3,at=2000");
            auto deg = lab.runWithSpeedup(cfg);

            kill.cell(std::string(m.label));
            kill.cell(ok.speedup, 2);
            kill.cell(deg.speedup, 2);
            // Overhead beyond the unavoidable 16/15 work inflation.
            double ideal = ok.speedup * 15.0 / 16.0;
            kill.cell(deg.speedup > 0.0
                          ? (ideal / deg.speedup - 1.0) * 100.0
                          : 0.0,
                      1);
            kill.cell(deg.frame.faultStats.trianglesRedistributed);
            kill.cell(deg.frame.faultStats.fragmentsRerouted);
            kill.endRow();
        }
    }

    std::cout << "\n(reading: the straggler columns show how much of "
                 "the machine's speedup one slow\nnode destroys — "
                 "smaller tiles spread the victim's region and decay "
                 "slower. The\nkill table's overhead column is the "
                 "pure cost of degradation: setup re-paid and\ncold "
                 "caches, beyond the ideal 15/16 capacity loss.)\n";
    return 0;
}
