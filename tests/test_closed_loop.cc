/**
 * @file
 * End-to-end tests of the closed-loop workload driver: convergence,
 * determinism, and the qualitative response-time behaviours the
 * paper's evaluation rests on.
 */

#include <gtest/gtest.h>

#include "core/pddl_layout.hh"
#include "layout/raid5.hh"
#include "workload/closed_loop.hh"

namespace pddl {
namespace {

ClosedLoopConfig
fastConfig()
{
    ClosedLoopConfig config;
    config.relative_tolerance = 0.05;
    config.min_samples = 200;
    config.max_samples = 4000;
    config.warmup = 100;
    return config;
}

/** Drain one closed loop on a fresh array of the paper's drives. */
SimResult
runClosed(const Layout &layout, const ClosedLoopConfig &config,
          const ArrayConfig &array = {})
{
    ClosedLoopClient client(config);
    return runOnArray(layout, device::hp2247(), array, client);
}

TEST(ClosedLoop, ProducesConvergedEstimate)
{
    Raid5Layout raid5(13);
    ClosedLoopConfig config = fastConfig();
    config.clients = 4;
    config.access_units = 1;
    SimResult result = runClosed(raid5, config);
    EXPECT_GE(result.samples, config.min_samples);
    EXPECT_GT(result.mean_response_ms, 5.0);  // at least positioning
    EXPECT_LT(result.mean_response_ms, 200.0);
    EXPECT_GT(result.throughput_per_s, 10.0);
}

TEST(ClosedLoop, DeterministicPerSeed)
{
    Raid5Layout raid5(13);
    ClosedLoopConfig config = fastConfig();
    config.clients = 2;
    SimResult a = runClosed(raid5, config);
    SimResult b = runClosed(raid5, config);
    EXPECT_DOUBLE_EQ(a.mean_response_ms, b.mean_response_ms);
    EXPECT_EQ(a.samples, b.samples);
    config.seed += 1;
    SimResult c = runClosed(raid5, config);
    EXPECT_NE(a.mean_response_ms, c.mean_response_ms);
}

TEST(ClosedLoop, ResponseTimeGrowsWithLoad)
{
    Raid5Layout raid5(13);
    ClosedLoopConfig config = fastConfig();
    config.access_units = 6;
    config.clients = 1;
    SimResult light = runClosed(raid5, config);
    config.clients = 20;
    SimResult heavy = runClosed(raid5, config);
    EXPECT_GT(heavy.mean_response_ms, light.mean_response_ms * 1.5);
    EXPECT_GT(heavy.throughput_per_s, light.throughput_per_s);
}

TEST(ClosedLoop, ThroughputIdentityHolds)
{
    // Closed loop: throughput ~= clients / mean response time.
    Raid5Layout raid5(13);
    ClosedLoopConfig config = fastConfig();
    config.clients = 8;
    config.access_units = 3;
    SimResult result = runClosed(raid5, config);
    double predicted =
        config.clients / (result.mean_response_ms / 1000.0);
    EXPECT_NEAR(result.throughput_per_s, predicted,
                predicted * 0.15);
}

TEST(ClosedLoop, NonLocalSeeksApproximateWorkingSet)
{
    // Section 4: "The non-local seeks counts obtained in our
    // experiments and the working set sizes from Figure 3 are equal."
    Raid5Layout raid5(13);
    ClosedLoopConfig config = fastConfig();
    config.clients = 4;
    config.access_units = 12; // one full RAID-5 stripe of data
    SimResult result = runClosed(raid5, config);
    EXPECT_NEAR(result.non_local_seeks, 12.0, 0.6);
}

TEST(ClosedLoop, DegradedRaid5SlowerThanFaultFree)
{
    // "Within RAID-5, the workload on the surviving disks doubles
    // during degraded read accesses" -> responses degrade.
    Raid5Layout raid5(13);
    ClosedLoopConfig config = fastConfig();
    config.clients = 10;
    config.access_units = 6;
    SimResult ff = runClosed(raid5, config);
    ArrayConfig array;
    array.mode = ArrayMode::Degraded;
    array.failed_disk = 0;
    SimResult f1 = runClosed(raid5, config, array);
    EXPECT_GT(f1.mean_response_ms, ff.mean_response_ms * 1.15);
}

TEST(ClosedLoop, PddlPostReconstructionBeatsReconstructionForSmallReads)
{
    // Figure 18: for stripe-unit sized accesses post-reconstruction
    // response time is much better than reconstruction mode.
    PddlLayout pddl(boseConstruction(13, 4));
    ClosedLoopConfig config = fastConfig();
    config.clients = 8;
    config.access_units = 1;
    ArrayConfig array;
    array.mode = ArrayMode::Degraded;
    array.failed_disk = 0;
    SimResult reconstruction = runClosed(pddl, config, array);
    array.mode = ArrayMode::PostReconstruction;
    SimResult post = runClosed(pddl, config, array);
    EXPECT_LT(post.mean_response_ms,
              reconstruction.mean_response_ms);
}

} // namespace
} // namespace pddl
