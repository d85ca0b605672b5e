/**
 * @file
 * Tests for the write-back cache tier: hit/miss service, write
 * absorption, watermark-driven destage with run coalescing, write
 * stalling at the high watermark, LRU eviction (clean and dirty
 * victims), re-dirty during a destage flight, determinism of a
 * cached volume workload across parallel-engine thread counts, and
 * the dirty index against a std::set reference: directly, and as
 * the destage order of a whole tier.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "cache/cache_tier.hh"
#include "cache/dirty_index.hh"
#include "core/pddl_layout.hh"
#include "sim/event_queue.hh"
#include "sim/parallel_engine.hh"
#include "util/rng.hh"
#include "volume/volume_manager.hh"
#include "workload/closed_loop.hh"

namespace pddl {
namespace {

using cache::CacheConfig;
using cache::CacheStats;
using cache::CacheTier;

/**
 * Scripted backend: logs every access with its issue time and
 * completes it a fixed latency later. Slow enough relative to the
 * cache's hit_ms that the tests can park writes behind a saturated
 * destage path on purpose.
 */
class ScriptedBackend : public Target
{
  public:
    struct Op
    {
        double when_ms;
        int64_t start;
        int count;
        AccessType type;
    };

    ScriptedBackend(EventQueue &events, int64_t data_units,
                    double latency_ms)
        : events_(events), data_units_(data_units),
          latency_ms_(latency_ms)
    {
    }

    int64_t dataUnits() const override { return data_units_; }

    void
    access(int64_t start_unit, int count, AccessType type,
           InlineCallback done) override
    {
        ops_.push_back({events_.now(), start_unit, count, type});
        ++issued_;
        events_.scheduleAfter(
            latency_ms_,
            [finish = std::move(done)]() mutable { finish(); });
    }

    SeekTally aggregateTally() const override { return SeekTally{}; }

    uint64_t accessesIssued() const override { return issued_; }

    const std::vector<Op> &ops() const { return ops_; }

    /** Backend writes covering `unit`. */
    int
    writesCovering(int64_t unit) const
    {
        int n = 0;
        for (const Op &op : ops_) {
            if (op.type == AccessType::Write && op.start <= unit &&
                unit < op.start + op.count)
                ++n;
        }
        return n;
    }

  private:
    EventQueue &events_;
    int64_t data_units_;
    double latency_ms_;
    std::vector<Op> ops_;
    uint64_t issued_ = 0;
};

struct CacheFixture : ::testing::Test
{
    EventQueue events;
    ScriptedBackend backend{events, 1 << 20, 10.0};

    /** A small cache whose watermarks the tests can cross easily. */
    CacheConfig
    smallConfig()
    {
        CacheConfig config;
        config.capacity_units = 64;
        config.ways = 4;
        config.hit_ms = 0.05;
        config.high_water = 0.5;  // 32 dirty units
        config.low_water = 0.25;  // drain to 16
        config.max_run_units = 16;
        config.destage_width = 2;
        return config;
    }

    double
    completeOne(CacheTier &tier, int64_t start, int count,
                AccessType type)
    {
        double done_at = -1.0;
        tier.access(start, count, type,
                    [&] { done_at = events.now(); });
        events.runUntilEmpty();
        EXPECT_GE(done_at, 0.0);
        return done_at;
    }
};

TEST_F(CacheFixture, ReadMissFetchesOnceThenHits)
{
    CacheTier tier(events, backend, smallConfig());
    const double start = events.now();
    const double miss_done = completeOne(tier, 100, 4,
                                         AccessType::Read);
    EXPECT_EQ(tier.stats().read_misses, 1);
    EXPECT_EQ(backend.accessesIssued(), 1u);
    EXPECT_GE(miss_done - start, 10.0); // paid the backend

    const double hit_issue = events.now();
    const double hit_done = completeOne(tier, 100, 4,
                                        AccessType::Read);
    EXPECT_EQ(tier.stats().read_hits, 1);
    EXPECT_EQ(backend.accessesIssued(), 1u); // no second fetch
    EXPECT_NEAR(hit_done - hit_issue, 0.05, 1e-9);
    EXPECT_DOUBLE_EQ(tier.hitRate(), 0.5);
    // Client-visible accounting counts logical accesses, not backend
    // operations.
    EXPECT_EQ(tier.accessesIssued(), 2u);
}

TEST_F(CacheFixture, WriteIsAbsorbedWithoutTouchingTheBackend)
{
    CacheTier tier(events, backend, smallConfig());
    const double done = completeOne(tier, 7, 1, AccessType::Write);
    EXPECT_DOUBLE_EQ(done, 0.05);
    EXPECT_EQ(tier.stats().writes_absorbed, 1);
    EXPECT_EQ(backend.accessesIssued(), 0u); // below the watermark
    EXPECT_EQ(tier.dirtyUnits(), 1);

    // The dirty line serves reads from cache.
    completeOne(tier, 7, 1, AccessType::Read);
    EXPECT_EQ(tier.stats().read_hits, 1);
    EXPECT_EQ(backend.accessesIssued(), 0u);
}

TEST_F(CacheFixture, DestagePumpCoalescesContiguousRuns)
{
    CacheTier tier(events, backend, smallConfig());
    // 40 contiguous dirty units cross the high watermark (32).
    int completions = 0;
    for (int64_t unit = 0; unit < 40; ++unit)
        tier.access(unit, 1, AccessType::Write,
                    [&] { ++completions; });
    events.runUntilEmpty();

    EXPECT_EQ(completions, 40);
    // Crossing the high watermark (32) triggered exactly one run:
    // the coalescer folded a full max_run_units of consecutive dirty
    // units into a single backend write, which took dirty back to
    // the low watermark (16); the trailing writes stay comfortably
    // dirty below the high watermark -- that's write-back.
    const CacheStats &stats = tier.stats();
    EXPECT_EQ(stats.destage_runs, 1);
    EXPECT_EQ(stats.destage_units, 16);
    ASSERT_EQ(backend.ops().size(), 1u);
    EXPECT_EQ(backend.ops()[0].type, AccessType::Write);
    EXPECT_EQ(backend.ops()[0].start, 0);
    EXPECT_EQ(backend.ops()[0].count, 16); // one coalesced run
    EXPECT_EQ(tier.dirtyUnits(), 40 - 16);
    EXPECT_EQ(tier.stalledWrites(), 0);
}

TEST_F(CacheFixture, WritesStallAtTheHighWatermarkAndDrain)
{
    CacheConfig config = smallConfig();
    config.destage_width = 1; // saturate the destage path
    CacheTier tier(events, backend, config);
    // Non-contiguous units: every destage run covers one unit, so
    // draining 10-ms backend writes cannot keep up with 0.05-ms
    // absorbed writes and the dirty budget pins at the watermark.
    int completions = 0;
    for (int64_t i = 0; i < 60; ++i)
        tier.access(i * 2, 1, AccessType::Write,
                    [&] { ++completions; });
    EXPECT_GT(tier.stalledWrites(), 0); // parked synchronously
    events.runUntilEmpty();

    EXPECT_EQ(completions, 60);
    EXPECT_GT(tier.stats().write_stalls, 0);
    EXPECT_EQ(tier.stalledWrites(), 0); // every stall released
    for (const ScriptedBackend::Op &op : backend.ops())
        EXPECT_EQ(op.count, 1); // nothing contiguous to coalesce
}

TEST_F(CacheFixture, LruEvictsTheColdestCleanLine)
{
    CacheConfig config = smallConfig();
    config.ways = 2;
    config.capacity_units = 8; // 4 sets x 2 ways
    CacheTier tier(events, backend, config);
    // Three units in the same set (unit % 4 == 1): the third read
    // evicts the least recently used of the first two.
    completeOne(tier, 1, 1, AccessType::Read);  // miss, installs 1
    completeOne(tier, 5, 1, AccessType::Read);  // miss, installs 5
    completeOne(tier, 1, 1, AccessType::Read);  // hit, refreshes 1
    completeOne(tier, 9, 1, AccessType::Read);  // miss, evicts 5
    EXPECT_EQ(tier.stats().evictions_clean, 1);

    completeOne(tier, 1, 1, AccessType::Read); // still resident
    EXPECT_EQ(tier.stats().read_hits, 2);
    completeOne(tier, 5, 1, AccessType::Read); // was evicted
    EXPECT_EQ(tier.stats().read_misses, 4);
}

TEST_F(CacheFixture, DirtyVictimGetsItsOwnWriteback)
{
    CacheConfig config = smallConfig();
    config.ways = 2;
    config.capacity_units = 8;
    config.high_water = 1.0; // the pump never starts
    config.low_water = 0.5;
    CacheTier tier(events, backend, config);
    // Fill both ways of set 1 dirty, then force a third allocation
    // in that set: every way is dirty, so the victim needs its own
    // fire-and-forget writeback.
    completeOne(tier, 1, 1, AccessType::Write);
    completeOne(tier, 5, 1, AccessType::Write);
    EXPECT_EQ(tier.dirtyUnits(), 2);
    completeOne(tier, 9, 1, AccessType::Write);
    EXPECT_EQ(tier.stats().evictions_dirty, 1);
    EXPECT_EQ(tier.dirtyUnits(), 2); // victim left, newcomer joined
    EXPECT_EQ(backend.writesCovering(1), 1); // LRU victim written
    EXPECT_EQ(backend.writesCovering(5), 0);
}

TEST_F(CacheFixture, WriteDuringDestageFlightRedirtiesTheLine)
{
    CacheConfig config = smallConfig();
    config.capacity_units = 8;
    config.ways = 4;
    config.high_water = 0.25; // pump starts at 2 dirty units
    config.low_water = 0.0;
    CacheTier tier(events, backend, config);
    int completions = 0;
    tier.access(0, 2, AccessType::Write, [&] { ++completions; });
    // The pump issued the run (clean-at-issue); the 10-ms backend
    // write is now in flight.
    EXPECT_EQ(tier.stats().destage_runs, 1);
    EXPECT_EQ(tier.dirtyUnits(), 0);
    // Re-dirty both units during the flight: crossing the watermark
    // again issues a second run for the same units even though the
    // first is still on the wire.
    tier.access(0, 2, AccessType::Write, [&] { ++completions; });
    EXPECT_EQ(tier.stats().destage_runs, 2);
    events.runUntilEmpty();

    EXPECT_EQ(completions, 2);
    // The older data rode the first run; the newer version needed
    // its own backend write.
    EXPECT_EQ(backend.writesCovering(0), 2);
    EXPECT_EQ(backend.writesCovering(1), 2);
    EXPECT_EQ(tier.dirtyUnits(), 0);
}

/** Dirty index and std::set agree on every query. */
void
expectSameSet(const cache::DirtyIndex &index,
              const std::set<int64_t> &reference, int64_t domain)
{
    ASSERT_EQ(index.size(), static_cast<int64_t>(reference.size()));
    EXPECT_EQ(index.empty(), reference.empty());
    for (int64_t from = 0; from <= domain; ++from) {
        auto it = reference.lower_bound(from);
        const int64_t expected = it == reference.end() ? -1 : *it;
        ASSERT_EQ(index.next(from), expected) << "from " << from;
    }
}

TEST(DirtyIndex, MatchesStdSetUnderSeededRandomOps)
{
    // A domain that is not a multiple of 64 and needs three tree
    // levels (64 * 64 < 5000): partial last words and multi-level
    // climbs both get exercised.
    for (int64_t domain : {1, 63, 64, 65, 4096, 5000}) {
        cache::DirtyIndex index(domain);
        std::set<int64_t> reference;
        Rng rng(0xd1a7ULL + static_cast<uint64_t>(domain));
        for (int op = 0; op < 20000; ++op) {
            // Cluster half the traffic near word edges and the
            // domain end, where off-by-ones live.
            int64_t unit = rng.below(domain);
            if (rng.below(2) == 0) {
                const int64_t edge = (unit / 64) * 64;
                unit = edge + static_cast<int64_t>(rng.below(3)) - 1;
                if (rng.below(8) == 0)
                    unit = domain - 1 - static_cast<int64_t>(rng.below(2));
                unit = std::max<int64_t>(0, std::min(unit, domain - 1));
            }
            switch (rng.below(4)) {
            case 0:
            case 1:
                ASSERT_EQ(index.insert(unit),
                          reference.insert(unit).second);
                break;
            case 2:
                ASSERT_EQ(index.erase(unit),
                          reference.erase(unit) == 1);
                break;
            default: {
                // The coalescer's walk: next with wrap, then take the
                // consecutive run that follows.
                int64_t at = index.next(unit);
                auto it = reference.lower_bound(unit);
                if (it == reference.end())
                    it = reference.begin();
                if (at < 0)
                    at = index.next(0);
                if (it == reference.end()) {
                    ASSERT_EQ(at, -1);
                    break;
                }
                ASSERT_EQ(at, *it);
                for (int len = 0; len < 70 && index.erase(at);
                     ++len, ++at) {
                    ASSERT_TRUE(it != reference.end() && *it == at);
                    it = reference.erase(it);
                }
                ASSERT_TRUE(it == reference.end() || *it != at);
                break;
            }
            }
            ASSERT_EQ(index.contains(unit), reference.count(unit) == 1);
        }
        expectSameSet(index, reference, domain);
    }
}

TEST(DirtyIndex, RunsAcrossWordsAndTheLastUnit)
{
    const int64_t domain = 64 * 64 * 3 + 5; // three levels, ragged end
    cache::DirtyIndex index(domain);
    std::set<int64_t> reference;
    // A run straddling a leaf word, one straddling a level-1 word
    // (4096 units), and the very last unit of the domain.
    for (int64_t unit = 60; unit < 200; ++unit) {
        index.insert(unit);
        reference.insert(unit);
    }
    for (int64_t unit = 4090; unit < 4100; ++unit) {
        index.insert(unit);
        reference.insert(unit);
    }
    index.insert(domain - 1);
    reference.insert(domain - 1);
    expectSameSet(index, reference, domain);
    EXPECT_EQ(index.next(4100), domain - 1);
    EXPECT_EQ(index.next(domain - 1), domain - 1);
    EXPECT_EQ(index.next(domain), -1);
    EXPECT_FALSE(index.erase(domain)); // past the end: never a member

    // Empty the run inside a word: the word leaves the tree and the
    // walk skips straight to the next run.
    for (int64_t unit = 60; unit < 200; ++unit)
        ASSERT_TRUE(index.erase(unit));
    EXPECT_EQ(index.next(0), 4090);
    EXPECT_EQ(index.next(4095), 4095);
    EXPECT_EQ(index.next(4096), 4096);
}

TEST(DirtyIndex, AllocatesOnDemandAndGrowsWithTheSet)
{
    const int64_t domain = int64_t{1} << 40; // far beyond any bitmap
    cache::DirtyIndex index(domain);
    EXPECT_EQ(index.capacity(), 0u); // construction allocates nothing
    EXPECT_EQ(index.next(0), -1);
    std::set<int64_t> reference;
    Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        const int64_t unit = static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(domain)));
        EXPECT_EQ(index.insert(unit), reference.insert(unit).second);
    }
    const size_t grown = index.capacity();
    EXPECT_GE(grown, 2 * reference.size()); // load stays <= 1/2
    // Memory follows the set, not the 2^40-unit domain: a few nodes
    // per member at 16 bytes each.
    EXPECT_LT(grown * 16, reference.size() * 1024);
    int64_t walked = 0;
    for (int64_t at = index.next(0); at >= 0; at = index.next(at + 1)) {
        ASSERT_TRUE(reference.count(at) == 1);
        ++walked;
    }
    EXPECT_EQ(walked, static_cast<int64_t>(reference.size()));
    for (int64_t unit : reference)
        ASSERT_TRUE(index.erase(unit));
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.next(0), -1);
}

/**
 * The write-back tier exactly as it was built on std::set: the
 * reference for CacheTier's destage order. Same lines, LRU, eviction,
 * watermark pump and stall queue; only the dirty set differs.
 */
class ReferenceTier
{
  public:
    ReferenceTier(EventQueue &events, Target &backend, CacheConfig config)
        : events_(events), backend_(backend), config_(config)
    {
        sets_ = config_.capacity_units / config_.ways;
        high_ = static_cast<int64_t>(
            config_.high_water *
            static_cast<double>(config_.capacity_units));
        if (high_ < 1)
            high_ = 1;
        low_ = static_cast<int64_t>(
            config_.low_water *
            static_cast<double>(config_.capacity_units));
        if (low_ >= high_)
            low_ = high_ - 1;
        lines_.resize(static_cast<size_t>(config_.capacity_units));
    }

    void
    access(int64_t start, int count, AccessType type,
           InlineCallback done)
    {
        if (type == AccessType::Write &&
            (!stalled_.empty() ||
             static_cast<int64_t>(dirty_.size()) >= high_)) {
            stalled_.push_back({start, count, std::move(done)});
            maybePump();
            return;
        }
        if (type == AccessType::Read)
            serveRead(start, count, std::move(done));
        else
            serveWrite(start, count, std::move(done));
    }

  private:
    struct Line
    {
        int64_t unit = -1;
        uint64_t last_use = 0;
        bool valid = false;
        bool dirty = false;
        bool in_flight = false;
    };

    struct Stalled
    {
        int64_t start;
        int count;
        InlineCallback done;
    };

    Line *
    find(int64_t unit)
    {
        Line *set = &lines_[static_cast<size_t>((unit % sets_) *
                                                config_.ways)];
        for (int w = 0; w < config_.ways; ++w) {
            if (set[w].valid && set[w].unit == unit)
                return &set[w];
        }
        return nullptr;
    }

    Line &
    allocate(int64_t unit)
    {
        Line *set = &lines_[static_cast<size_t>((unit % sets_) *
                                                config_.ways)];
        Line *victim = nullptr;
        for (int w = 0; w < config_.ways && victim == nullptr; ++w) {
            if (!set[w].valid)
                victim = &set[w];
        }
        if (victim == nullptr) {
            for (int w = 0; w < config_.ways; ++w) {
                if (!set[w].dirty &&
                    (victim == nullptr ||
                     set[w].last_use < victim->last_use))
                    victim = &set[w];
            }
            if (victim == nullptr) {
                for (int w = 0; w < config_.ways; ++w) {
                    if (victim == nullptr ||
                        set[w].last_use < victim->last_use)
                        victim = &set[w];
                }
                dirty_.erase(victim->unit);
                backend_.access(victim->unit, 1, AccessType::Write,
                                [] {});
            }
        }
        *victim = Line{unit, ++tick_, true, false, false};
        return *victim;
    }

    void
    serveRead(int64_t start, int count, InlineCallback done)
    {
        bool miss = false;
        for (int64_t unit = start; unit < start + count; ++unit) {
            Line *line = find(unit);
            if (line != nullptr)
                line->last_use = ++tick_;
            else
                miss = true;
        }
        if (!miss) {
            events_.scheduleAfter(config_.hit_ms, std::move(done));
            return;
        }
        backend_.access(
            start, count, AccessType::Read,
            [this, start, count, finish = std::move(done)]() mutable {
                for (int64_t unit = start; unit < start + count;
                     ++unit) {
                    Line *line = find(unit);
                    if (line != nullptr)
                        line->last_use = ++tick_;
                    else
                        allocate(unit);
                }
                finish();
            });
    }

    void
    serveWrite(int64_t start, int count, InlineCallback done)
    {
        for (int64_t unit = start; unit < start + count; ++unit) {
            Line *line = find(unit);
            if (line == nullptr)
                line = &allocate(unit);
            else
                line->last_use = ++tick_;
            if (!line->dirty) {
                line->dirty = true;
                dirty_.insert(unit);
            }
        }
        events_.scheduleAfter(config_.hit_ms, std::move(done));
        maybePump();
    }

    void
    maybePump()
    {
        if (!pump_active_ &&
            static_cast<int64_t>(dirty_.size()) >= high_)
            pump_active_ = true;
        pump();
    }

    void
    pump()
    {
        if (pump_active_) {
            while (in_flight_ < config_.destage_width &&
                   static_cast<int64_t>(dirty_.size()) > low_ &&
                   !dirty_.empty())
                issueRun();
            if (static_cast<int64_t>(dirty_.size()) <= low_)
                pump_active_ = false;
        }
        if (releasing_)
            return;
        releasing_ = true;
        while (!stalled_.empty() &&
               static_cast<int64_t>(dirty_.size()) < high_) {
            Stalled write = std::move(stalled_.front());
            stalled_.pop_front();
            serveWrite(write.start, write.count, std::move(write.done));
        }
        releasing_ = false;
    }

    void
    issueRun()
    {
        auto it = dirty_.lower_bound(cursor_);
        if (it == dirty_.end())
            it = dirty_.begin();
        const int64_t run_start = *it;
        int64_t expect = run_start;
        int run_len = 0;
        while (it != dirty_.end() && *it == expect &&
               run_len < config_.max_run_units) {
            it = dirty_.erase(it);
            Line *line = find(expect);
            line->dirty = false;
            line->in_flight = true;
            ++run_len;
            ++expect;
        }
        cursor_ = expect;
        ++in_flight_;
        backend_.access(run_start, run_len, AccessType::Write,
                        [this, run_start, run_len] {
                            for (int64_t unit = run_start;
                                 unit < run_start + run_len; ++unit) {
                                Line *line = find(unit);
                                if (line != nullptr)
                                    line->in_flight = false;
                            }
                            --in_flight_;
                            pump();
                        });
    }

    EventQueue &events_;
    Target &backend_;
    CacheConfig config_;
    int64_t sets_;
    int64_t high_;
    int64_t low_;
    std::vector<Line> lines_;
    std::set<int64_t> dirty_;
    int64_t cursor_ = 0;
    int in_flight_ = 0;
    bool pump_active_ = false;
    bool releasing_ = false;
    std::deque<Stalled> stalled_;
    uint64_t tick_ = 0;
};

TEST(CacheTier, DestageSequenceMatchesStdSetReferenceTier)
{
    // Small sets and short runs: dirty evictions, coalesced runs that
    // cross 64-unit words, cursor wrap-around and write stalls all
    // happen many times over; the domain ends mid-word.
    const int64_t domain = 1000;
    CacheConfig config;
    config.capacity_units = 96;
    config.ways = 3;
    config.high_water = 0.5;
    config.low_water = 0.2;
    config.max_run_units = 6;
    config.destage_width = 2;

    EventQueue tier_events;
    EventQueue ref_events;
    ScriptedBackend tier_backend(tier_events, domain, 3.0);
    ScriptedBackend ref_backend(ref_events, domain, 3.0);
    CacheTier tier(tier_events, tier_backend, config);
    ReferenceTier reference(ref_events, ref_backend, config);

    std::vector<double> tier_done;
    std::vector<double> ref_done;
    Rng rng(0xcace);
    double when = 0.0;
    for (int i = 0; i < 4000; ++i) {
        when += 0.02 * static_cast<double>(rng.below(40));
        const int count = 1 + static_cast<int>(rng.below(8));
        // Hot neighbourhoods around word edges and the domain end.
        int64_t start = static_cast<int64_t>(rng.below(domain));
        if (rng.below(3) == 0)
            start = 64 * static_cast<int64_t>(rng.below(16)) - 4 +
                    static_cast<int64_t>(rng.below(8));
        start = std::max<int64_t>(0, std::min(start, domain - count));
        const AccessType type = rng.below(4) == 0 ? AccessType::Read
                                                  : AccessType::Write;
        const size_t slot = tier_done.size();
        tier_done.push_back(-1.0);
        ref_done.push_back(-1.0);
        tier_events.schedule(when, [&, start, count, type, slot] {
            tier.access(start, count, type, [&, slot] {
                tier_done[slot] = tier_events.now();
            });
        });
        ref_events.schedule(when, [&, start, count, type, slot] {
            reference.access(start, count, type, [&, slot] {
                ref_done[slot] = ref_events.now();
            });
        });
    }
    tier_events.runUntilEmpty();
    ref_events.runUntilEmpty();

    const auto &got = tier_backend.ops();
    const auto &want = ref_backend.ops();
    ASSERT_EQ(got.size(), want.size());
    int64_t destage_writes = 0;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].when_ms, want[i].when_ms) << "op " << i;
        ASSERT_EQ(got[i].start, want[i].start) << "op " << i;
        ASSERT_EQ(got[i].count, want[i].count) << "op " << i;
        ASSERT_EQ(got[i].type, want[i].type) << "op " << i;
        if (got[i].type == AccessType::Write)
            ++destage_writes;
    }
    EXPECT_EQ(tier_done, ref_done);
    // The scenario really exercised the paths it is about.
    EXPECT_GT(tier.stats().destage_runs, 100);
    EXPECT_GT(tier.stats().evictions_dirty, 0);
    EXPECT_GT(tier.stats().write_stalls, 0);
    EXPECT_GT(destage_writes, tier.stats().destage_runs);
    EXPECT_GT(tier.stats().destage_units, tier.stats().destage_runs);
}

/** A cached volume workload is thread-count invariant. */
struct CachedRun
{
    uint64_t volume_accesses = 0;
    uint64_t frontend_accesses = 0;
    int64_t samples = 0;
    double mean_response_ms = 0.0;
    CacheStats stats;
};

CachedRun
runCachedVolume(int threads)
{
    const int shards = 2;
    const double dispatch_ms = 2.0;
    PddlLayout layout = PddlLayout::make(13, 4);
    const DeviceModel &model = device::hp2247();
    std::vector<ShardSpec> specs(shards);
    for (ShardSpec &spec : specs) {
        spec.layout = &layout;
        spec.device = &model;
    }
    VolumeConfig vconfig;
    vconfig.chunk_units = 16;
    vconfig.dispatch_ms = dispatch_ms;
    ParallelEngine::Config engine_config;
    engine_config.threads = threads;
    engine_config.lookahead = dispatch_ms;
    ParallelEngine engine(shards, engine_config);
    VolumeManager volume(engine, std::move(specs), vconfig);

    CacheConfig cache_config;
    cache_config.capacity_units = 512;
    cache_config.ways = 8;
    cache_config.high_water = 0.2;
    cache_config.low_water = 0.1;
    CacheTier tier(engine.hubQueue(), volume, cache_config);

    ClosedLoopConfig config;
    config.clients = 6;
    config.access_units = 1;
    config.type = AccessType::Write;
    config.relative_tolerance = 0.0;
    config.min_samples = 400;
    config.max_samples = 400;
    config.warmup = 50;
    config.offsets.kind = traffic::OffsetSpec::Kind::HotSpot;
    config.offsets.hot_fraction = 0.001;
    config.offsets.hot_weight = 0.9;
    ClosedLoopClient client(config);
    startOnHub(client, engine, tier);
    engine.run();

    CachedRun run;
    run.volume_accesses = volume.volumeAccessesIssued();
    run.frontend_accesses = tier.accessesIssued();
    SimResult result = client.result();
    run.samples = result.samples;
    run.mean_response_ms = result.mean_response_ms;
    run.stats = tier.stats();
    return run;
}

TEST(CachedVolume, ThreadCountInvariant)
{
    CachedRun one = runCachedVolume(1);
    CachedRun four = runCachedVolume(4);
    EXPECT_EQ(one.samples, four.samples);
    EXPECT_GE(one.samples, 400); // stopping rule + in-flight tail
    EXPECT_EQ(one.mean_response_ms, four.mean_response_ms);
    EXPECT_EQ(one.volume_accesses, four.volume_accesses);
    EXPECT_EQ(one.frontend_accesses, four.frontend_accesses);
    EXPECT_EQ(one.stats.read_hits, four.stats.read_hits);
    EXPECT_EQ(one.stats.read_misses, four.stats.read_misses);
    EXPECT_EQ(one.stats.writes_absorbed, four.stats.writes_absorbed);
    EXPECT_EQ(one.stats.write_stalls, four.stats.write_stalls);
    EXPECT_EQ(one.stats.destage_runs, four.stats.destage_runs);
    EXPECT_EQ(one.stats.destage_units, four.stats.destage_units);
    // The cache actually did something in this scenario.
    EXPECT_GT(one.stats.writes_absorbed, 0);
    EXPECT_GT(one.stats.destage_runs, 0);
}

} // namespace
} // namespace pddl
