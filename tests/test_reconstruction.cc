/**
 * @file
 * Tests for the background reconstruction engine: completeness,
 * accounting, interference with foreground load, determinism, and
 * the FailedUnitIndex that lets the sweep skip untouched stripes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "array/reconstruction.hh"
#include "core/layout_spec.hh"
#include "core/pddl_layout.hh"
#include "core/wrapped_layout.hh"
#include "layout_test_util.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

struct ReconstructionFixture : ::testing::Test
{
    EventQueue events;
    PddlLayout layout{boseConstruction(13, 4)};
    const DeviceModel &model = device::hp2247();

    ArrayConfig
    degradedConfig()
    {
        ArrayConfig config;
        config.mode = ArrayMode::Degraded;
        config.failed_disk = 0;
        return config;
    }
};

TEST_F(ReconstructionFixture, RebuildsEveryLostUnitExactlyOnce)
{
    ArrayController array(events, layout, model, degradedConfig());
    const int64_t stripes = 390; // 10 patterns
    ReconstructionEngine engine(events, array, 0, stripes);

    // Expected lost units: disk 0 holds one unit per row except its
    // spare rows -> per 13-row pattern: 12 of 13 rows.
    int64_t expected = 0;
    for (int64_t s = 0; s < stripes; ++s) {
        for (int pos = 0; pos < 4; ++pos) {
            if (layout.map({s, pos}).disk == 0)
                ++expected;
        }
    }
    EXPECT_EQ(expected, 10 * 12); // 12 lost units per pattern

    bool finished = false;
    engine.start([&] { finished = true; });
    events.runUntilEmpty();
    EXPECT_TRUE(finished);
    EXPECT_TRUE(engine.complete());
    EXPECT_EQ(engine.unitsRebuilt(), expected);
    EXPECT_EQ(engine.readsIssued(), expected * 3); // k-1 reads each
    EXPECT_GT(engine.durationMs(), 0.0);
}

TEST_F(ReconstructionFixture, FailedDiskNeverTouched)
{
    ArrayController array(events, layout, model, degradedConfig());
    ReconstructionEngine engine(events, array, 0, 130);
    engine.start({});
    events.runUntilEmpty();
    EXPECT_EQ(array.disk(0).tally().total(), 0);
}

TEST_F(ReconstructionFixture, MoreParallelismRebuildsFaster)
{
    auto rebuild_time = [&](int parallel) {
        EventQueue queue;
        ArrayController array(queue, layout, model, degradedConfig());
        ReconstructionEngine engine(queue, array, 0, 390, parallel);
        engine.start({});
        queue.runUntilEmpty();
        return engine.durationMs();
    };
    double serial = rebuild_time(1);
    double wide = rebuild_time(8);
    EXPECT_LT(wide, serial);
}

TEST_F(ReconstructionFixture, ForegroundLoadSlowsRebuild)
{
    auto rebuild_time = [&](int clients) {
        EventQueue queue;
        ArrayController array(queue, layout, model, degradedConfig());
        Rng rng(7);
        // Closed-loop foreground clients that stop when rebuild ends.
        ReconstructionEngine engine(queue, array, 0, 390, 2);
        std::function<void(int)> client = [&](int id) {
            if (engine.complete())
                return;
            int64_t start = static_cast<int64_t>(
                rng.below(array.dataUnits() - 3));
            array.access(start, 3, AccessType::Read,
                         [&, id] { client(id); });
        };
        engine.start({});
        for (int c = 0; c < clients; ++c)
            client(c);
        queue.runUntilEmpty();
        return engine.durationMs();
    };
    double idle = rebuild_time(0);
    double busy = rebuild_time(8);
    EXPECT_GT(busy, idle * 1.2);
}

TEST_F(ReconstructionFixture, DeterministicReplay)
{
    auto run = [&] {
        EventQueue queue;
        ArrayController array(queue, layout, model, degradedConfig());
        ReconstructionEngine engine(queue, array, 0, 130);
        engine.start({});
        queue.runUntilEmpty();
        return engine.durationMs();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST_F(ReconstructionFixture, WorksForWrappedLayouts)
{
    WrappedLayout wrapped = WrappedLayout::make(8, 3);
    ArrayConfig config;
    config.mode = ArrayMode::Degraded;
    config.failed_disk = 3;
    ArrayController array(events, wrapped, model, config);
    ReconstructionEngine engine(events, array, 3,
                                wrapped.stripesPerPeriod());
    engine.start({});
    events.runUntilEmpty();
    EXPECT_TRUE(engine.complete());
    EXPECT_GT(engine.unitsRebuilt(), 0);
}

/** The position scan the sweep ran before FailedUnitIndex. */
int
scanForDisk(const Layout &layout, int64_t stripe, int disk)
{
    for (int pos = 0; pos < layout.stripeWidth(); ++pos) {
        if (layout.map({stripe, pos}).disk == disk)
            return pos;
    }
    return -1;
}

/** One layout of every family, periodic or not, spared or not. */
std::vector<std::unique_ptr<Layout>>
everyFamily()
{
    std::vector<std::unique_ptr<Layout>> all;
    for (const char *kind :
         {"raid5", "pd", "prime", "datum", "pseudo", "pddl"})
        all.push_back(makeLayout(LayoutSpec{kind, 13, 4}));
    all.push_back(makeLayout(LayoutSpec{"wrapped", 8, 3}));
    all.push_back(layouts::makeLayout("draid:width=4,spares=1", 13));
    all.push_back(layouts::makeLayout("mirror:copies=2", 12));
    all.push_back(layouts::makeLayout("tdesign", 16));
    return all;
}

TEST(FailedUnitIndex, MatchesStripeScanForEveryFamily)
{
    for (const auto &layout : everyFamily()) {
        const int64_t period = layout->stripesPerPeriod();
        // Two and a half periods: the count ends inside a period.
        const int64_t stripes = 2 * period + period / 2 + 1;
        for (int disk : {0, layout->numDisks() / 2 + 1,
                         layout->numDisks() - 1}) {
            SCOPED_TRACE(layout->name() + " disk " +
                         std::to_string(disk));
            const FailedUnitIndex index(*layout, disk, stripes);
            int mismatches = 0;
            for (int64_t stripe = 0; stripe < stripes; ++stripe) {
                if (index.positionIn(stripe) !=
                    scanForDisk(*layout, stripe, disk))
                    ++mismatches;
            }
            EXPECT_EQ(mismatches, 0);
            // A sweep shorter than one period tabulates only that
            // prefix and still answers every swept stripe.
            const FailedUnitIndex prefix(*layout, disk, period / 2 + 1);
            for (int64_t stripe = 0; stripe <= period / 2; ++stripe) {
                EXPECT_EQ(prefix.positionIn(stripe),
                          scanForDisk(*layout, stripe, disk));
            }
        }
    }
}

/**
 * The rebuild sweep as it ran before FailedUnitIndex: scan each
 * stripe for the failed disk, then issue the same reads and spare
 * write in the same order the engine does.
 */
struct ScanRebuild
{
    ArrayController &array;
    int failed_disk;
    int64_t stripes;
    int max_parallel;
    int64_t next_stripe = 0;
    int in_flight = 0;
    int64_t reads = 0;
    int64_t units = 0;

    void
    pump()
    {
        while (in_flight < max_parallel && next_stripe < stripes)
            rebuildStripe(next_stripe++);
    }

    void
    rebuildStripe(int64_t stripe)
    {
        const Layout &layout = array.layout();
        const int failed_pos = scanForDisk(layout, stripe, failed_disk);
        if (failed_pos < 0)
            return;
        const PhysAddr lost = layout.map({stripe, failed_pos});
        const PhysAddr home =
            layout.relocatedAddress(failed_disk, lost.unit);
        ++in_flight;
        auto outstanding =
            std::make_shared<int>(layout.stripeWidth() - 1);
        for (int pos = 0; pos < layout.stripeWidth(); ++pos) {
            if (pos == failed_pos)
                continue;
            const PhysAddr addr = layout.map({stripe, pos});
            ++reads;
            array.submitUnit(addr.disk, addr.unit, false,
                             [this, outstanding, home] {
                                 if (--*outstanding > 0)
                                     return;
                                 array.submitUnit(home.disk, home.unit,
                                                  true, [this] {
                                                      ++units;
                                                      --in_flight;
                                                      pump();
                                                  });
                             });
        }
    }
};

/** What one sweep left behind: counts, clock, dispatch history. */
struct SweepOutcome
{
    int64_t reads = 0;
    int64_t units = 0;
    SimTime end_ms = 0.0;
    uint64_t digest = 0;
    std::vector<int64_t> ops_per_disk;
};

SweepOutcome
runSweep(const Layout &layout, int failed_disk, int64_t stripes,
         bool indexed)
{
    EventQueue events;
    events.enableHistoryDigest();
    ArrayConfig config;
    config.mode = ArrayMode::Degraded;
    config.failed_disk = failed_disk;
    ArrayController array(events, layout, device::hp2247(), config);
    SweepOutcome out;
    if (indexed) {
        ReconstructionEngine engine(events, array, failed_disk, stripes,
                                    3);
        engine.start({});
        events.runUntilEmpty();
        EXPECT_TRUE(engine.complete());
        out.reads = engine.readsIssued();
        out.units = engine.unitsRebuilt();
    } else {
        ScanRebuild scan{array, failed_disk, stripes, 3};
        scan.pump();
        events.runUntilEmpty();
        out.reads = scan.reads;
        out.units = scan.units;
    }
    out.end_ms = events.now();
    out.digest = events.historyDigest();
    for (int d = 0; d < layout.numDisks(); ++d)
        out.ops_per_disk.push_back(array.disk(d).tally().total());
    return out;
}

TEST(FailedUnitIndex, IndexedSweepMatchesStripeScanSweep)
{
    std::vector<std::string> swept;
    for (const auto &layout : everyFamily()) {
        if (!layout->hasSparing())
            continue; // nothing to rebuild into
        swept.push_back(layout->family());
        const int64_t period = layout->stripesPerPeriod();
        const int64_t stripes = 2 * period + period / 2 + 1;
        const int failed_disk = layout->numDisks() / 2 + 1;
        SCOPED_TRACE(layout->name());
        const SweepOutcome want =
            runSweep(*layout, failed_disk, stripes, false);
        const SweepOutcome got =
            runSweep(*layout, failed_disk, stripes, true);
        EXPECT_GT(want.units, 0);
        EXPECT_EQ(got.reads, want.reads);
        EXPECT_EQ(got.units, want.units);
        EXPECT_EQ(got.end_ms, want.end_ms);
        EXPECT_EQ(got.digest, want.digest);
        EXPECT_EQ(got.ops_per_disk, want.ops_per_disk);
    }
    EXPECT_EQ(swept,
              (std::vector<std::string>{"pddl", "pddl_wrapped", "draid"}));
}

} // namespace
} // namespace pddl
