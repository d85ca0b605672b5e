/**
 * @file
 * Tests for the device-model registry: spec round-trips
 * (parse(describe(m)) rebuilds an identical model), bit-exact
 * equivalence of the hp2247 instance with the legacy construction
 * points, hdd seek-curve calibration, the flat ssd service-time
 * model, histogram-bound selection, spec-string error reporting,
 * and the bit-exactness of the located HDD service path against the
 * original per-call translation with std::fmod.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "disk/device_model.hh"
#include "obs/metrics.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

/** One representative spec per family, defaulted and fully keyed. */
const char *const kSpecs[] = {
    "hp2247",
    "hdd",
    "hdd:rpm=5400,cylinders=2000,heads=10,spt=96,min_seek_ms=2,"
    "avg_seek_ms=9,head_switch_ms=1,cost=0.8",
    "ssd",
    "ssd:read_us=100,write_us=300,sector_us=0.4,sectors=1048576,"
    "cost=5",
};

/** Identical observable behaviour over a deterministic op sample. */
void
expectSameModel(const DeviceModel &a, const DeviceModel &b)
{
    ASSERT_STREQ(a.kind(), b.kind());
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.totalSectors(), b.totalSectors());
    EXPECT_EQ(a.sectorBytes(), b.sectorBytes());
    EXPECT_EQ(a.costUnits(), b.costUnits());
    EXPECT_EQ(&a.latencyBoundsMs(), &b.latencyBoundsMs());

    MechState ma, mb;
    double now = 0.0;
    for (int i = 0; i < 200; ++i) {
        const int64_t lba =
            (i * 7919) % a.totalSectors() & ~int64_t{15};
        const bool write = (i % 3) == 0;
        EXPECT_EQ(a.seekPosition(lba), b.seekPosition(lba));
        EXPECT_EQ(a.classify(ma, lba, i % 2 == 0),
                  b.classify(mb, lba, i % 2 == 0));
        const double ta = a.serviceTime(now, lba, 16, write, ma);
        const double tb = b.serviceTime(now, lba, 16, write, mb);
        EXPECT_EQ(ta, tb) << "op " << i;
        EXPECT_EQ(ma.cylinder, mb.cylinder);
        EXPECT_EQ(ma.head, mb.head);
        now += ta;
    }
}

TEST(DeviceSpec, ParseDescribeRoundTripsEveryFamily)
{
    for (const char *text : kSpecs) {
        std::shared_ptr<const DeviceModel> first =
            device::makeDevice(text);
        std::shared_ptr<const DeviceModel> second =
            device::makeDevice(first->describe());
        SCOPED_TRACE(text);
        expectSameModel(*first, *second);
        // describe() is a fixed point: canonical in, canonical out.
        EXPECT_EQ(first->describe(), second->describe());
    }
}

TEST(DeviceSpec, Hp2247MatchesLegacyConstructionPoints)
{
    const HddDeviceModel &model = device::hp2247();
    EXPECT_STREQ(model.kind(), "hp2247");
    EXPECT_EQ(model.describe(), "hp2247");
    EXPECT_EQ(model.costUnits(), 1.0);

    const DiskGeometry geometry = device::hp2247Geometry();
    EXPECT_EQ(model.totalSectors(), geometry.totalSectors());
    EXPECT_EQ(model.geometry().cylinders(), geometry.cylinders());
    EXPECT_EQ(model.geometry().heads(), geometry.heads());

    // The paper's drive: 2.9 ms single-cylinder seek, ~10 ms random
    // average, 4000 rpm -> 15 ms revolution.
    const SeekModel seek = device::hp2247SeekModel();
    EXPECT_EQ(model.seek().seekTime(1), seek.seekTime(1));
    EXPECT_EQ(model.seek().averageSeek(geometry.cylinders()),
              seek.averageSeek(geometry.cylinders()));

    // The registry's "hp2247" is the same singleton object, so every
    // default-device code path shares one model.
    EXPECT_EQ(device::makeDevice("hp2247").get(),
              static_cast<const DeviceModel *>(&model));
}

TEST(DeviceSpec, HddCalibrationHitsRequestedAverageSeek)
{
    for (double target : {6.0, 8.0, 12.0}) {
        std::shared_ptr<const DeviceModel> model = device::makeDevice(
            "hdd:avg_seek_ms=" + std::to_string(target));
        const auto *hdd =
            dynamic_cast<const HddDeviceModel *>(model.get());
        ASSERT_NE(hdd, nullptr);
        EXPECT_NEAR(
            hdd->seek().averageSeek(hdd->geometry().cylinders()),
            target, 1e-6)
            << "target " << target;
    }
    // And the single-cylinder constraint holds.
    std::shared_ptr<const DeviceModel> model =
        device::makeDevice("hdd:min_seek_ms=2,avg_seek_ms=9");
    const auto *hdd =
        dynamic_cast<const HddDeviceModel *>(model.get());
    ASSERT_NE(hdd, nullptr);
    EXPECT_NEAR(hdd->seek().seekTime(1), 2.0, 1e-9);
}

TEST(DeviceSpec, SsdServiceTimeIsFlatAndPositionFree)
{
    std::shared_ptr<const DeviceModel> model = device::makeDevice(
        "ssd:read_us=100,write_us=300,sector_us=0.5");
    MechState state;
    // Position-independent: the same op costs the same at any LBA
    // and any time, and never moves the (vestigial) mech state.
    const double read16 =
        model->serviceTime(0.0, 0, 16, false, state);
    EXPECT_EQ(model->serviceTime(123.0, model->totalSectors() - 16,
                                 16, false, state),
              read16);
    EXPECT_EQ(state.cylinder, 0);
    EXPECT_EQ(state.head, 0);
    // read_us + 16 sectors * sector_us = 100us + 8us = 0.108 ms.
    EXPECT_NEAR(read16, 0.108, 1e-12);
    EXPECT_NEAR(model->serviceTime(0.0, 0, 16, true, state), 0.308,
                1e-12);
    // SSTF degenerates to arrival order.
    EXPECT_EQ(model->seekPosition(0),
              model->seekPosition(model->totalSectors() - 1));
    EXPECT_EQ(model->classify(state, 0, true), SeekClass::NoSwitch);
    EXPECT_EQ(model->classify(state, 0, false),
              SeekClass::NonLocal);
}

/**
 * HddDeviceModel's service path as first written: translate the LBA
 * by walking the zones and dividing, look up sectors per track by a
 * linear zone scan, derive the revolution from rpm on every call and
 * take the rotational phase with std::fmod. The model's located path
 * must reproduce it bit for bit.
 */
struct ReferenceHdd
{
    const HddDeviceModel &model;

    int
    zoneOf(int cylinder) const
    {
        const auto &zones = model.geometry().zones();
        for (size_t i = 0; i < zones.size(); ++i) {
            if (cylinder < zones[i].first_cylinder + zones[i].cylinders)
                return static_cast<int>(i);
        }
        ADD_FAILURE() << "cylinder " << cylinder << " beyond the disk";
        return 0;
    }

    int
    sectorsPerTrack(int cylinder) const
    {
        return model.geometry().zones()[zoneOf(cylinder)]
            .sectors_per_track;
    }

    Chs
    lbaToChs(int64_t lba) const
    {
        const DiskGeometry &geo = model.geometry();
        int64_t first = 0;
        for (const DiskGeometry::Zone &z : geo.zones()) {
            const int64_t per_cyl =
                static_cast<int64_t>(geo.heads()) * z.sectors_per_track;
            if (lba < first + per_cyl * z.cylinders) {
                const int64_t in_zone = lba - first;
                const int64_t in_cyl = in_zone % per_cyl;
                return Chs{
                    z.first_cylinder + static_cast<int>(in_zone / per_cyl),
                    static_cast<int>(in_cyl / z.sectors_per_track),
                    static_cast<int>(in_cyl % z.sectors_per_track)};
            }
            first += per_cyl * z.cylinders;
        }
        ADD_FAILURE() << "lba " << lba << " beyond the disk";
        return Chs{0, 0, 0};
    }

    SeekClass
    classify(const MechState &state, int64_t lba, bool same_access) const
    {
        Chs start = lbaToChs(lba);
        if (!same_access)
            return SeekClass::NonLocal;
        if (start.cylinder != state.cylinder)
            return SeekClass::CylinderSwitch;
        if (start.head != state.head)
            return SeekClass::TrackSwitch;
        return SeekClass::NoSwitch;
    }

    double
    serviceTime(double now, int64_t lba, int sectors,
                MechState &state) const
    {
        const SeekModel &seek = model.seek();
        const double rev = 60000.0 / model.rpm();
        Chs start = lbaToChs(lba);
        double t = 0.0;
        if (start.cylinder != state.cylinder) {
            t += seek.seekTime(std::abs(start.cylinder - state.cylinder));
        } else if (start.head != state.head) {
            t += seek.headSwitchMs();
        }
        int spt = sectorsPerTrack(start.cylinder);
        double settle_time = now + t;
        double angle_now = std::fmod(settle_time, rev) / rev;
        double angle_target = double(start.sector) / spt;
        double wait = angle_target - angle_now;
        if (wait < 0)
            wait += 1.0;
        t += wait * rev;
        int remaining = sectors;
        int cylinder = start.cylinder;
        int head = start.head;
        int sector = start.sector;
        while (remaining > 0) {
            spt = sectorsPerTrack(cylinder);
            int chunk = std::min(remaining, spt - sector);
            t += double(chunk) / spt * rev;
            remaining -= chunk;
            sector += chunk;
            if (remaining > 0) {
                sector = 0;
                ++head;
                if (head == model.geometry().heads()) {
                    head = 0;
                    ++cylinder;
                    t += seek.seekTime(1);
                } else {
                    t += seek.headSwitchMs();
                }
            }
        }
        state.cylinder = cylinder;
        state.head = head;
        return t;
    }
};

/**
 * `draws` seeded (now, lba, sectors, MechState) tuples through both
 * the LBA and the located entry points, compared bitwise with the
 * reference. A third of the draws start the arm on the request's own
 * track, so no seek is added and `now` itself is the rotational
 * phase input: those draws put `now` at 0, at multiples of the
 * revolution and one ulp either side of them.
 */
void
expectMatchesReference(const HddDeviceModel &model, int draws,
                       uint64_t seed)
{
    const ReferenceHdd reference{model};
    const DiskGeometry &geo = model.geometry();
    const double rev = 60000.0 / model.rpm();
    Rng rng(seed);
    int mismatches = 0;
    for (int i = 0; i < draws && mismatches < 5; ++i) {
        const int sectors = 1 + static_cast<int>(rng.below(
                                    i % 16 == 0 ? 1200 : 64));
        const int64_t lba = static_cast<int64_t>(rng.below(
            static_cast<uint64_t>(geo.totalSectors() - sectors + 1)));
        const Chs at = reference.lbaToChs(lba);
        MechState state;
        double now = 0.0;
        switch (i % 6) {
          case 0: // on track, phase exactly at a revolution boundary
          case 1: // ... and one ulp either side of it
          case 2:
            state.cylinder = at.cylinder;
            state.head = at.head;
            now = static_cast<double>(rng.below(90000000)) * rev;
            if (i % 6 == 1)
                now = std::nextafter(now, 0.0);
            if (i % 6 == 2)
                now = std::nextafter(now, INFINITY);
            if (i % 600 == 0)
                now = 0.0;
            break;
          default: // anywhere, any time up to 1e9 ms
            state.cylinder =
                static_cast<int>(rng.below(geo.cylinders()));
            state.head = static_cast<int>(rng.below(geo.heads()));
            now = rng.uniform() * (i % 6 == 3 ? 1e9 : 1e4);
            break;
        }
        const bool same_access = rng.below(2) == 0;
        const bool write = rng.below(2) == 0;

        MechState want_state = state;
        const SeekClass want_class =
            reference.classify(want_state, lba, same_access);
        const double want =
            reference.serviceTime(now, lba, sectors, want_state);

        MechState by_lba = state;
        const SeekClass class_by_lba =
            model.classify(by_lba, lba, same_access);
        const double got_by_lba =
            model.serviceTime(now, lba, sectors, write, by_lba);

        MechState located = state;
        const Chs position = model.locate(lba);
        const SeekClass class_located =
            model.classifyAt(located, lba, position, same_access);
        const double got_located = model.serviceTimeAt(
            now, lba, position, sectors, write, located);

        const uint64_t want_bits = std::bit_cast<uint64_t>(want);
        const bool same =
            position == at && class_by_lba == want_class &&
            class_located == want_class &&
            std::bit_cast<uint64_t>(got_by_lba) == want_bits &&
            std::bit_cast<uint64_t>(got_located) == want_bits &&
            by_lba.cylinder == want_state.cylinder &&
            by_lba.head == want_state.head &&
            located.cylinder == want_state.cylinder &&
            located.head == want_state.head;
        if (!same) {
            ++mismatches;
            ADD_FAILURE() << "draw " << i << ": now " << now << " lba "
                          << lba << " sectors " << sectors << ": "
                          << got_located << " vs reference " << want;
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(HddDeviceModel, ServiceTimeMatchesReferenceBitForBit)
{
    expectMatchesReference(device::hp2247(), 1000000, 0x5e7f1ce);
    std::shared_ptr<const DeviceModel> hdd = device::makeDevice(
        "hdd:rpm=7200,cylinders=997,heads=5,spt=211");
    expectMatchesReference(
        dynamic_cast<const HddDeviceModel &>(*hdd), 200000, 0x7200);
}

TEST(DeviceModel, DefaultLocatedEntryPointsForwardToLbaOnes)
{
    // A model that overrides only the LBA entry points (a forwarding
    // or timing wrapper) still sees every located call.
    struct Counting : DeviceModel
    {
        const DeviceModel &inner = device::hp2247();
        mutable int classified = 0;
        mutable int served = 0;

        const char *kind() const override { return inner.kind(); }
        std::string describe() const override
        {
            return inner.describe();
        }
        int64_t totalSectors() const override
        {
            return inner.totalSectors();
        }
        int sectorBytes() const override { return inner.sectorBytes(); }
        int seekPosition(int64_t lba) const override
        {
            return inner.seekPosition(lba);
        }
        SeekClass classify(const MechState &state, int64_t lba,
                           bool same_access) const override
        {
            ++classified;
            return inner.classify(state, lba, same_access);
        }
        double serviceTime(double now, int64_t lba, int sectors,
                           bool write, MechState &state) const override
        {
            ++served;
            return inner.serviceTime(now, lba, sectors, write, state);
        }
        double costUnits() const override { return inner.costUnits(); }
    } counting;

    const int64_t lba = 123457;
    const Chs at = counting.locate(lba);
    EXPECT_EQ(at, (Chs{counting.seekPosition(lba), 0, 0}));
    MechState a, b;
    EXPECT_EQ(counting.classifyAt(a, lba, at, true),
              device::hp2247().classify(b, lba, true));
    EXPECT_EQ(counting.serviceTimeAt(5.0, lba, at, 16, false, a),
              device::hp2247().serviceTime(5.0, lba, 16, false, b));
    EXPECT_EQ(counting.classified, 1);
    EXPECT_EQ(counting.served, 1);
    EXPECT_EQ(a.cylinder, b.cylinder);
    EXPECT_EQ(a.head, b.head);
}

TEST(DeviceSpec, ErrorsNameTheProblem)
{
    std::shared_ptr<const DeviceModel> model;
    std::string error;
    EXPECT_FALSE(device::parseDeviceSpec("floppy", model, error));
    EXPECT_NE(error.find("unknown device family"), std::string::npos);
    EXPECT_FALSE(device::parseDeviceSpec("ssd:bogus=1", model, error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
    EXPECT_FALSE(
        device::parseDeviceSpec("hdd:rpm=fast", model, error));
    EXPECT_FALSE(device::parseDeviceSpec("ssd:read_us=-5", model,
                                         error));
    EXPECT_FALSE(device::parseDeviceSpec(
        "hdd:min_seek_ms=9,avg_seek_ms=8", model, error));
    EXPECT_THROW(device::makeDevice("floppy"), std::runtime_error);
    EXPECT_GE(device::deviceSpecNames().size(), 3u);
}

TEST(DeviceSpec, LatencyBoundsPickTheFinestDeviceClass)
{
    const HddDeviceModel &hdd = device::hp2247();
    std::shared_ptr<const DeviceModel> ssd =
        device::makeDevice("ssd");

    // Mechanical drives keep the registry default.
    EXPECT_EQ(&device::latencyBoundsForDevices({&hdd}),
              &obs::defaultLatencyBoundsMs());

    // Any flash member switches the volume to the finer bounds.
    const std::vector<double> &mixed =
        device::latencyBoundsForDevices({&hdd, ssd.get()});
    EXPECT_EQ(&mixed, &ssd->latencyBoundsMs());
    ASSERT_FALSE(mixed.empty());
    EXPECT_LT(mixed.front(), obs::defaultLatencyBoundsMs().front());
    // ...while still covering the mechanical tail.
    EXPECT_GE(mixed.back(), obs::defaultLatencyBoundsMs().back());
}

} // namespace
} // namespace pddl
