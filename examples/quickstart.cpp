/**
 * @file
 * Quickstart: build a 64-tile IRONHIDE machine, run one interactive
 * application (the AES query-encryption service fed by a YCSB-style
 * query generator), and read the results back.
 *
 *   $ ./build/examples/quickstart
 */

#include <cstdio>

#include "core/ironhide.hh"
#include "workloads/interactive_app.hh"

using namespace ih;

int
main()
{
    // 1. Configure the machine: an 8x8 mesh of tiles, four edge memory
    //    controllers, eight DRAM regions. Every knob has a documented
    //    default; override any field by assigning it.
    SysConfig cfg;
    cfg.seed = 42;
    cfg.validate();

    // 2. Build the system and the security architecture. createModel()
    //    also offers INSECURE / SGX_LIKE / MI6 for comparison.
    System sys(cfg);
    Ironhide model(sys);

    // 3. Pick a benchmark application: the insecure QUERY producer and
    //    the secure AES-256 encryption service, exchanging batches
    //    through the shared IPC buffer. (standardApps(1.0) lists all
    //    nine applications from the paper's evaluation.)
    const AppSpec spec = findApp("<AES, QUERY>", 0.5);
    InteractiveApp app(sys, model, spec);

    // 4. Run: warm up, then rebalance the clusters once (dynamic
    //    hardware isolation) and measure.
    RunOptions opts;
    opts.warmup = 8;
    opts.reconfigTarget = 20; // give the secure cluster 20 of 64 tiles
    const RunResult r = app.run(opts);

    // 5. Inspect the results.
    std::printf("application          : %s\n", spec.name.c_str());
    std::printf("architecture         : %s\n", model.name().c_str());
    std::printf("completion time      : %.3f ms (simulated)\n",
                r.completionMs());
    std::printf("interactivity        : %.0f enclave entry/exit per s\n",
                r.interactivityPerSec);
    std::printf("secure cluster       : %u cores\n", r.secureCores);
    std::printf("one-time reconfig    : %.3f ms\n",
                cyclesToMs(r.reconfigCycles));
    std::printf("L1 / L2 miss rates   : %.1f%% / %.1f%%\n",
                r.l1MissRate * 100.0, r.l2MissRate * 100.0);
    std::printf("isolation violations : %llu (must be 0)\n",
                (unsigned long long)r.isolationViolations);
    std::printf("blocked accesses     : %llu\n",
                (unsigned long long)r.blockedAccesses);
    std::printf("\nsecurity audit trail:\n%s",
                sys.audit().toString().c_str());
    return r.isolationViolations == 0 ? 0 : 1;
}
