/**
 * @file
 * Tests for the simulated drive: service times, SSTF scheduling, and
 * the paper's local/non-local seek classification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "disk/disk.hh"
#include "sim/event_queue.hh"

namespace pddl {
namespace {

struct DiskFixture : ::testing::Test
{
    EventQueue events;
    const HddDeviceModel &model = device::hp2247();

    DiskRequest
    request(int64_t lba, int sectors, uint64_t access_id,
            InlineCallback done = {})
    {
        DiskRequest r;
        r.lba = lba;
        r.sectors = sectors;
        r.write = false;
        r.access_id = access_id;
        r.done = std::move(done);
        return r;
    }
};

TEST_F(DiskFixture, SingleRequestCompletesWithinMechanicalBounds)
{
    Disk disk(events, model);
    SimTime completion = -1.0;
    disk.submit(request(5000, 16, 1,
                        [&] { completion = events.now(); }));
    events.runUntilEmpty();
    ASSERT_GE(completion, 0.0);
    // Lower bound: pure transfer of 16 sectors. Upper bound: max seek
    // + full rotation + transfer + slack.
    double rev = model.revolutionMs();
    EXPECT_GT(completion, 16.0 / 89.0 * rev * 0.9);
    EXPECT_LT(completion, 18.0 + rev + 5.0);
}

TEST_F(DiskFixture, RotationalLatencyBelowOneRevolution)
{
    // Re-reading the sector just served must wait almost a whole
    // revolution; reading the next sector should be nearly free.
    Disk disk(events, model);
    SimTime first_done = 0.0, again_done = 0.0;
    disk.submit(request(0, 1, 1, [&] { first_done = events.now(); }));
    events.runUntilEmpty();
    disk.submit(request(0, 1, 2, [&] { again_done = events.now(); }));
    events.runUntilEmpty();
    double rev = model.revolutionMs();
    double wait = again_done - first_done;
    EXPECT_GT(wait, 0.8 * rev);
    EXPECT_LT(wait, 1.1 * rev);
}

TEST_F(DiskFixture, SequentialSectorsStreamAtMediaRate)
{
    Disk disk(events, model);
    SimTime done1 = 0.0, done2 = 0.0;
    disk.submit(request(0, 1, 1, [&] { done1 = events.now(); }));
    events.runUntilEmpty();
    disk.submit(request(1, 1, 2, [&] { done2 = events.now(); }));
    events.runUntilEmpty();
    // Next sector under the head: no seek, (almost) no rotation.
    double sector_time = model.revolutionMs() / 89.0;
    EXPECT_NEAR(done2 - done1, sector_time, sector_time * 0.5);
}

TEST_F(DiskFixture, SstfPicksNearestCylinder)
{
    // Queue: far cylinder first, near cylinder second. SSTF must
    // serve the near one first once the disk is busy with a third.
    Disk disk(events, model, 20);
    std::vector<int> completion_order;
    const DiskGeometry &geo = model.geometry();
    int64_t near_lba = geo.chsToLba({10, 0, 0});
    int64_t far_lba = geo.chsToLba({1900, 0, 0});
    // First request makes the disk busy at cylinder 0.
    disk.submit(request(0, 1, 1, [&] { completion_order.push_back(0); }));
    disk.submit(
        request(far_lba, 1, 2, [&] { completion_order.push_back(2); }));
    disk.submit(
        request(near_lba, 1, 3, [&] { completion_order.push_back(3); }));
    events.runUntilEmpty();
    ASSERT_EQ(completion_order.size(), 3u);
    EXPECT_EQ(completion_order[0], 0);
    EXPECT_EQ(completion_order[1], 3); // near before far
    EXPECT_EQ(completion_order[2], 2);
}

TEST_F(DiskFixture, FcfsWindowOneIgnoresDistance)
{
    Disk disk(events, model, 1); // degenerate SSTF = FCFS
    std::vector<int> completion_order;
    const DiskGeometry &geo = model.geometry();
    int64_t near_lba = geo.chsToLba({10, 0, 0});
    int64_t far_lba = geo.chsToLba({1900, 0, 0});
    disk.submit(request(0, 1, 1, [&] { completion_order.push_back(0); }));
    disk.submit(
        request(far_lba, 1, 2, [&] { completion_order.push_back(2); }));
    disk.submit(
        request(near_lba, 1, 3, [&] { completion_order.push_back(3); }));
    events.runUntilEmpty();
    ASSERT_EQ(completion_order.size(), 3u);
    EXPECT_EQ(completion_order[1], 2); // arrival order preserved
    EXPECT_EQ(completion_order[2], 3);
}

TEST_F(DiskFixture, SeekClassificationFollowsAccessIdentity)
{
    Disk disk(events, model);
    const DiskGeometry &geo = model.geometry();
    // Same access, same track -> no-switch; same access new cylinder
    // -> cylinder switch; new access -> non-local.
    disk.submit(request(0, 1, 7));
    disk.submit(request(4, 1, 7));                      // no-switch
    disk.submit(request(geo.chsToLba({0, 1, 0}), 1, 7)); // track switch
    disk.submit(request(geo.chsToLba({5, 0, 0}), 1, 7)); // cyl switch
    disk.submit(request(geo.chsToLba({5, 0, 8}), 1, 8)); // non-local
    events.runUntilEmpty();
    const SeekTally &tally = disk.tally();
    EXPECT_EQ(tally.non_local, 2); // first op is non-local too
    EXPECT_EQ(tally.no_switch, 1);
    EXPECT_EQ(tally.track_switch, 1);
    EXPECT_EQ(tally.cylinder_switch, 1);
    EXPECT_EQ(tally.total(), 5);
}

TEST_F(DiskFixture, MultiTrackTransferCrossesBoundaries)
{
    // 200 sectors from sector 0 spans 3 tracks in zone 0 (89/track).
    Disk disk(events, model);
    SimTime done = -1.0;
    disk.submit(request(0, 200, 1, [&] { done = events.now(); }));
    events.runUntilEmpty();
    double rev = model.revolutionMs();
    double transfer = 200.0 / 89.0 * rev;
    EXPECT_GT(done, transfer); // at least the media time
    EXPECT_LT(done, transfer + 2 * rev + 5.0);
}

TEST_F(DiskFixture, BusyTimeAccumulates)
{
    Disk disk(events, model);
    disk.submit(request(0, 16, 1));
    disk.submit(request(100000, 16, 2));
    events.runUntilEmpty();
    EXPECT_GT(disk.busyMs(), 0.0);
    EXPECT_LE(disk.busyMs(), events.now() + 1e-9);
}

TEST_F(DiskFixture, SstfTiesKeepArrivalOrderAfterMiddleRemoval)
{
    // The arm is busy at cylinder 0 while five requests queue. SSTF
    // takes B (cylinder 5) and then E (20) out of the middle of the
    // queue; A, C and D then tie at cylinder 50 and must leave in
    // arrival order.
    Disk disk(events, model, 20);
    const DiskGeometry &geo = model.geometry();
    std::vector<char> order;
    auto submit = [&](char name, int cylinder, int sector) {
        disk.submit(request(geo.chsToLba({cylinder, 0, sector}), 1,
                            static_cast<uint64_t>(name),
                            [&order, name] { order.push_back(name); }));
    };
    submit('0', 0, 0);
    submit('A', 50, 0);
    submit('B', 5, 0);
    submit('C', 50, 10);
    submit('E', 20, 0);
    submit('D', 50, 20);
    events.runUntilEmpty();
    EXPECT_EQ(std::string(order.begin(), order.end()), "0BEACD");
}

TEST_F(DiskFixture, DeepQueueServesInReferenceSstfOrder)
{
    // 300 one-sector requests queue behind a busy arm. The service
    // order must equal a plain SSTF over an arrival-ordered list
    // (window 20, nearest cylinder, earliest arrival on ties).
    const DiskGeometry &geo = model.geometry();
    const int window = 20;
    Disk disk(events, model, window);
    std::vector<int> cylinders;
    uint64_t state = 12345;
    for (int i = 0; i < 300; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        cylinders.push_back(static_cast<int>((state >> 33) % 60) * 30);
    }
    std::vector<int> served;
    disk.submit(request(0, 1, 1000));
    for (int i = 0; i < 300; ++i) {
        disk.submit(request(geo.chsToLba({cylinders[i], 0, 0}), 1,
                            static_cast<uint64_t>(i),
                            [&served, i] { served.push_back(i); }));
    }
    EXPECT_EQ(disk.queueDepth(), 300u);
    events.runUntilEmpty();
    EXPECT_EQ(disk.queueDepth(), 0u);

    std::vector<int> pending(300);
    for (int i = 0; i < 300; ++i)
        pending[i] = i;
    std::vector<int> expected;
    int arm = 0;
    while (!pending.empty()) {
        const size_t scan = std::min<size_t>(window, pending.size());
        size_t best = 0;
        for (size_t j = 1; j < scan; ++j) {
            if (std::abs(cylinders[pending[j]] - arm) <
                std::abs(cylinders[pending[best]] - arm))
                best = j;
        }
        expected.push_back(pending[best]);
        arm = cylinders[pending[best]];
        pending.erase(pending.begin() + static_cast<long>(best));
    }
    EXPECT_EQ(served, expected);
}

TEST_F(DiskFixture, DeterministicReplay)
{
    auto run = [&]() {
        EventQueue q;
        Disk disk(q, model);
        SimTime last = 0.0;
        for (int i = 0; i < 50; ++i) {
            disk.submit(request((i * 104729) % 1000000, 16,
                                static_cast<uint64_t>(i),
                                [&] { last = q.now(); }));
        }
        q.runUntilEmpty();
        return last;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

} // namespace
} // namespace pddl
