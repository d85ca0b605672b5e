/**
 * @file
 * Tests for the open-loop (Poisson, mixed-profile) workload driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "array/controller.hh"
#include "core/pddl_layout.hh"
#include "layout/raid5.hh"
#include "workload/open_loop.hh"

namespace pddl {
namespace {

OpenLoopConfig
fastConfig()
{
    OpenLoopConfig config;
    config.samples = 800;
    config.warmup = 100;
    return config;
}

/** Drain one open loop on a fresh array of the paper's drives. */
OpenLoopResult
runOpen(const Layout &layout, const OpenLoopConfig &config,
        const ArrayConfig &array = {})
{
    OpenLoopClient client(config);
    return runOnArray(layout, device::hp2247(), array, client);
}

TEST(OpenLoop, CompletesAllSamples)
{
    Raid5Layout raid5(13);
    OpenLoopConfig config = fastConfig();
    config.arrivals_per_s = 50.0;
    OpenLoopResult r = runOpen(raid5, config);
    EXPECT_EQ(r.samples, config.samples);
    EXPECT_GT(r.mean_response_ms, 5.0);
    EXPECT_GE(r.p95_response_ms, r.mean_response_ms);
    EXPECT_GE(r.max_response_ms, r.p95_response_ms);
}

TEST(OpenLoop, DeterministicPerSeed)
{
    Raid5Layout raid5(13);
    OpenLoopConfig config = fastConfig();
    OpenLoopResult a = runOpen(raid5, config);
    OpenLoopResult b = runOpen(raid5, config);
    EXPECT_DOUBLE_EQ(a.mean_response_ms, b.mean_response_ms);
    config.seed += 1;
    OpenLoopResult c = runOpen(raid5, config);
    EXPECT_NE(a.mean_response_ms, c.mean_response_ms);
}

TEST(OpenLoop, LatencyExplodesNearSaturation)
{
    // Unlike the closed loop, offered load is independent of service
    // rate: queues (and response times) grow sharply near capacity.
    Raid5Layout raid5(13);
    OpenLoopConfig config = fastConfig();
    config.arrivals_per_s = 50.0;
    OpenLoopResult light = runOpen(raid5, config);
    // beyond ~13 disks' service rate
    config.arrivals_per_s = 900.0;
    OpenLoopResult heavy = runOpen(raid5, config);
    EXPECT_GT(heavy.mean_response_ms, 2.0 * light.mean_response_ms);
    EXPECT_GT(heavy.max_outstanding, light.max_outstanding);
}

TEST(OpenLoop, ThroughputTracksOfferedLoadBelowSaturation)
{
    Raid5Layout raid5(13);
    OpenLoopConfig config = fastConfig();
    config.arrivals_per_s = 100.0;
    OpenLoopResult r = runOpen(raid5, config);
    EXPECT_NEAR(r.completed_per_s, 100.0, 15.0);
}

TEST(OpenLoop, MixedProfileRuns)
{
    PddlLayout pddl = PddlLayout::make(13, 4);
    OpenLoopConfig config = fastConfig();
    config.arrivals_per_s = 60.0;
    // 70% 8 KB reads, 20% 24 KB writes, 10% 96 KB reads.
    config.mix = {
        AccessMixEntry{1, AccessType::Read, 0.7},
        AccessMixEntry{3, AccessType::Write, 0.2},
        AccessMixEntry{12, AccessType::Read, 0.1},
    };
    OpenLoopResult r = runOpen(pddl, config);
    EXPECT_EQ(r.samples, config.samples);
    EXPECT_GT(r.mean_response_ms, 0.0);
}

TEST(OpenLoop, DegradedModeSlower)
{
    PddlLayout pddl = PddlLayout::make(13, 4);
    OpenLoopConfig config = fastConfig();
    config.arrivals_per_s = 150.0;
    OpenLoopResult ff = runOpen(pddl, config);
    ArrayConfig array;
    array.mode = ArrayMode::Degraded;
    array.failed_disk = 0;
    OpenLoopResult f1 = runOpen(pddl, config, array);
    EXPECT_GT(f1.mean_response_ms, ff.mean_response_ms);
}

TEST(OpenLoop, RunOnArrayFeedsTheArrayProbe)
{
    if (!obs::kObsEnabled)
        GTEST_SKIP() << "hooks compiled out (PDDL_OBS=OFF)";
    // The one probe reaches the client, the event queue, the array
    // and every disk: ArrayConfig::probe is what runOnArray threads.
    PddlLayout pddl = PddlLayout::make(13, 4);
    obs::MetricsRegistry registry;
    const obs::Probe probe(&registry, nullptr);
    OpenLoopConfig config = fastConfig();
    config.probe = probe;
    ArrayConfig array;
    array.probe = probe;
    OpenLoopResult r = runOpen(pddl, config, array);

    const obs::MetricsSnapshot snapshot = registry.snapshot();
    const obs::HistogramData *client =
        snapshot.histogram("client.latency_ms");
    ASSERT_NE(client, nullptr);
    EXPECT_EQ(client->count, r.samples);
    const obs::HistogramData *accesses =
        snapshot.histogram("array.access_ms");
    ASSERT_NE(accesses, nullptr);
    EXPECT_EQ(accesses->count, config.warmup + config.samples);
    const obs::HistogramData *service =
        snapshot.histogram("disk.service_ms");
    ASSERT_NE(service, nullptr);
    EXPECT_GE(service->count, accesses->count);
    EXPECT_EQ(snapshot.counter("array.reads"),
              static_cast<double>(config.warmup + config.samples));
    EXPECT_GT(snapshot.counter("sim.events"), 0.0);
}

/**
 * Forwards to an inner target and logs (issue index, response ms) in
 * completion order: the client's own sample stream, observed from
 * outside.
 */
class ResponseLog : public Target
{
  public:
    ResponseLog(EventQueue &events, Target &inner)
        : events_(events), inner_(inner)
    {
    }

    int64_t dataUnits() const override { return inner_.dataUnits(); }

    void
    access(int64_t start_unit, int count, AccessType type,
           InlineCallback done) override
    {
        const int64_t index = issued_++;
        const double issued = events_.now();
        inner_.access(start_unit, count, type,
                      [this, index, issued,
                       finish = std::move(done)]() mutable {
                          log.push_back({index, events_.now() - issued});
                          finish();
                      });
    }

    SeekTally aggregateTally() const override
    {
        return inner_.aggregateTally();
    }

    uint64_t accessesIssued() const override
    {
        return static_cast<uint64_t>(issued_);
    }

    std::vector<std::pair<int64_t, double>> log;

  private:
    EventQueue &events_;
    Target &inner_;
    int64_t issued_ = 0;
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(OpenLoop, ResultIsIdempotentAndMatchesASortedCopy)
{
    PddlLayout pddl = PddlLayout::make(13, 4);
    EventQueue events;
    ArrayController array(events, pddl, device::hp2247(), ArrayConfig{});
    ResponseLog logged(events, array);

    OpenLoopConfig config;
    config.arrivals_per_s = 120.0;
    config.samples = 1500;
    config.warmup = 100;
    config.mix = {AccessMixEntry{1, AccessType::Read, 0.6},
                  AccessMixEntry{4, AccessType::Write, 0.4}};
    OpenLoopClient client(config);
    client.start(events, logged);
    events.runUntilEmpty();

    // Reference: the measured samples in completion order, summed in
    // that order, and a sorted copy for the order statistics.
    std::vector<double> measured;
    double sum = 0.0;
    for (const auto &[index, response] : logged.log) {
        if (index >= config.warmup) {
            measured.push_back(response);
            sum += response;
        }
    }
    ASSERT_EQ(measured.size(), static_cast<size_t>(config.samples));
    std::vector<double> sorted = measured;
    std::sort(sorted.begin(), sorted.end());

    const OpenLoopResult first = client.result();
    const OpenLoopResult second = client.result();
    EXPECT_EQ(first.samples, config.samples);
    EXPECT_TRUE(sameBits(first.mean_response_ms,
                         sum / static_cast<double>(measured.size())));
    EXPECT_TRUE(sameBits(
        first.p95_response_ms,
        sorted[static_cast<size_t>(0.95 * (sorted.size() - 1))]));
    EXPECT_TRUE(sameBits(first.max_response_ms, sorted.back()));
    EXPECT_LT(first.p95_response_ms, first.max_response_ms);

    // A second call reads the same bits from the reordered samples.
    EXPECT_TRUE(sameBits(second.mean_response_ms, first.mean_response_ms));
    EXPECT_TRUE(sameBits(second.p95_response_ms, first.p95_response_ms));
    EXPECT_TRUE(sameBits(second.max_response_ms, first.max_response_ms));
    EXPECT_TRUE(sameBits(second.completed_per_s, first.completed_per_s));
    EXPECT_EQ(second.samples, first.samples);
    EXPECT_EQ(second.max_outstanding, first.max_outstanding);
}

} // namespace
} // namespace pddl
