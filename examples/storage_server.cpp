/**
 * @file
 * Storage-server scenario: the paper's 13-disk array serving a
 * closed-loop client population through a whole failure lifecycle --
 * healthy operation, a disk crash (reconstruction mode), and
 * operation after the lost contents have been rebuilt into the
 * distributed spare space.
 *
 * Usage: storage_server [clients] [access_kb]
 */

#include <cstdio>
#include <cstdlib>

#include "core/pddl_layout.hh"
#include "layout/raid5.hh"
#include "workload/closed_loop.hh"

using namespace pddl;

namespace {

SimResult
measure(const Layout &layout, ArrayMode mode, int clients, int units,
        AccessType type)
{
    ClosedLoopConfig config;
    config.clients = clients;
    config.access_units = units;
    config.type = type;
    config.relative_tolerance = 0.05;
    config.min_samples = 300;
    config.max_samples = 6000;
    config.warmup = 150;
    ArrayConfig array;
    array.mode = mode;
    array.failed_disk = 0;
    ClosedLoopClient client(config);
    return runOnArray(layout, device::hp2247(), array, client);
}

void
report(const char *phase, const SimResult &reads,
       const SimResult &writes)
{
    std::printf("%-28s reads: %6.1f ms @ %5.0f/s    writes: %6.1f ms "
                "@ %5.0f/s\n",
                phase, reads.mean_response_ms, reads.throughput_per_s,
                writes.mean_response_ms, writes.throughput_per_s);
}

} // namespace

int
main(int argc, char **argv)
{
    const int clients = argc > 1 ? std::atoi(argv[1]) : 10;
    const int access_kb = argc > 2 ? std::atoi(argv[2]) : 48;
    const int units = access_kb / 8;
    if (clients < 1 || units < 1) {
        std::fprintf(stderr,
                     "usage: %s [clients >= 1] [access_kb multiple "
                     "of 8]\n",
                     argv[0]);
        return 1;
    }

    PddlLayout pddl = PddlLayout::make(13, 4);
    Raid5Layout raid5(13);

    std::printf("Storage server lifecycle: 13 HP 2247 disks, %d "
                "clients, %d KB accesses\n\n",
                clients, access_kb);

    std::printf("== PDDL (3 stripes of width 4 + distributed spare) "
                "==\n");
    report("healthy",
           measure(pddl, ArrayMode::FaultFree, clients, units,
                   AccessType::Read),
           measure(pddl, ArrayMode::FaultFree, clients, units,
                   AccessType::Write));
    report("disk 0 failed (rebuilding)",
           measure(pddl, ArrayMode::Degraded, clients, units,
                   AccessType::Read),
           measure(pddl, ArrayMode::Degraded, clients, units,
                   AccessType::Write));
    report("rebuilt into spare space",
           measure(pddl, ArrayMode::PostReconstruction, clients,
                   units, AccessType::Read),
           measure(pddl, ArrayMode::PostReconstruction, clients,
                   units, AccessType::Write));

    std::printf("\n== RAID-5 baseline (no declustering, no spare) "
                "==\n");
    report("healthy",
           measure(raid5, ArrayMode::FaultFree, clients, units,
                   AccessType::Read),
           measure(raid5, ArrayMode::FaultFree, clients, units,
                   AccessType::Write));
    report("disk 0 failed (forever)",
           measure(raid5, ArrayMode::Degraded, clients, units,
                   AccessType::Read),
           measure(raid5, ArrayMode::Degraded, clients, units,
                   AccessType::Write));

    std::printf("\nDeclustering spreads the failure's extra load "
                "over all survivors, and PDDL's\ndistributed spare "
                "returns the array to near-healthy response times "
                "after rebuild.\n");
    return 0;
}
