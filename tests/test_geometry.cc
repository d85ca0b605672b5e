/**
 * @file
 * Tests for zoned disk geometry and the HP 2247 instance (Table 2).
 */

#include <gtest/gtest.h>

#include <memory>

#include "disk/device_model.hh"
#include "disk/geometry.hh"

namespace pddl {
namespace {

TEST(Hp2247Geometry, MatchesTable2)
{
    DiskGeometry geo = device::hp2247Geometry();
    EXPECT_EQ(geo.cylinders(), 1981);
    EXPECT_EQ(geo.heads(), 13);
    EXPECT_EQ(geo.zones().size(), 8u);
    EXPECT_EQ(geo.sectorBytes(), 512);
    // "Capacity 1.03 GB": within 1% of 1.03e9 bytes.
    EXPECT_NEAR(static_cast<double>(geo.capacityBytes()), 1.03e9,
                0.01e9);
}

TEST(Hp2247Geometry, ZonesDescendInDensity)
{
    DiskGeometry geo = device::hp2247Geometry();
    const auto &zones = geo.zones();
    for (size_t i = 1; i < zones.size(); ++i) {
        EXPECT_LT(zones[i].sectors_per_track,
                  zones[i - 1].sectors_per_track);
    }
}

TEST(Geometry, LbaChsRoundTripExhaustiveSmallDisk)
{
    DiskGeometry geo(2,
                     {{0, 3, 4}, {3, 2, 3}}, // 2 zones
                     512);
    EXPECT_EQ(geo.cylinders(), 5);
    EXPECT_EQ(geo.totalSectors(), 3 * 2 * 4 + 2 * 2 * 3);
    for (int64_t lba = 0; lba < geo.totalSectors(); ++lba) {
        Chs chs = geo.lbaToChs(lba);
        EXPECT_EQ(geo.chsToLba(chs), lba);
        EXPECT_LT(chs.sector, geo.sectorsPerTrack(chs.cylinder));
        EXPECT_LT(chs.head, geo.heads());
    }
}

/**
 * The translation as first written: walk the zones, then divide the
 * zone offset by sectors per cylinder and per track. The table-driven
 * lbaToChs() must reproduce it for every LBA.
 */
Chs
divisionFormulaChs(const DiskGeometry &geo, int64_t lba)
{
    int64_t first = 0;
    for (const DiskGeometry::Zone &z : geo.zones()) {
        const int64_t per_cyl =
            static_cast<int64_t>(geo.heads()) * z.sectors_per_track;
        const int64_t size = per_cyl * z.cylinders;
        if (lba < first + size) {
            const int64_t in_zone = lba - first;
            const int64_t in_cyl = in_zone % per_cyl;
            return Chs{z.first_cylinder +
                           static_cast<int>(in_zone / per_cyl),
                       static_cast<int>(in_cyl / z.sectors_per_track),
                       static_cast<int>(in_cyl % z.sectors_per_track)};
        }
        first += size;
    }
    ADD_FAILURE() << "lba " << lba << " beyond the last zone";
    return Chs{-1, -1, -1};
}

/** Every LBA: lbaToChs() equals the division formula and round-trips. */
void
expectExhaustiveTranslation(const DiskGeometry &geo)
{
    int64_t mismatches = 0;
    for (int64_t lba = 0; lba < geo.totalSectors(); ++lba) {
        const Chs chs = geo.lbaToChs(lba);
        const Chs expected = divisionFormulaChs(geo, lba);
        const bool same =
            chs == expected && geo.chsToLba(chs) == lba &&
            geo.sectorsPerTrack(chs.cylinder) ==
                geo.zones()[geo.zoneOf(chs.cylinder)].sectors_per_track;
        if (!same && mismatches++ < 5) {
            ADD_FAILURE() << "lba " << lba << ": got (" << chs.cylinder
                          << "," << chs.head << "," << chs.sector
                          << "), want (" << expected.cylinder << ","
                          << expected.head << "," << expected.sector
                          << ")";
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Geometry, LbaChsMatchesDivisionFormulaExhaustiveHp2247)
{
    expectExhaustiveTranslation(device::hp2247Geometry());
}

TEST(Geometry, LbaChsMatchesDivisionFormulaExhaustiveHddSpec)
{
    std::shared_ptr<const DeviceModel> model = device::makeDevice(
        "hdd:rpm=7200,cylinders=997,heads=5,spt=211");
    const auto *hdd = dynamic_cast<const HddDeviceModel *>(model.get());
    ASSERT_NE(hdd, nullptr);
    EXPECT_EQ(hdd->geometry().totalSectors(), 997 * 5 * 211);
    expectExhaustiveTranslation(hdd->geometry());
}

TEST(Geometry, LbaChsMatchesDivisionFormulaIrregularZones)
{
    // Every zone boundary falls inside a 32-sector lookup bucket, and
    // neighbouring zones differ in density (1 vs 16 vs 3 vs 11 sectors
    // per track), so resolving a straddling bucket to the wrong zone
    // would give a wrong head or sector.
    expectExhaustiveTranslation(DiskGeometry(
        2, {{0, 20, 1}, {20, 3, 16}, {23, 30, 3}, {53, 2, 11}}, 512));
}

TEST(Geometry, ConsecutiveLbasAdvanceAlongTrackThenHeadThenCylinder)
{
    DiskGeometry geo = device::hp2247Geometry();
    Chs prev = geo.lbaToChs(0);
    for (int64_t lba = 1; lba < 5000; ++lba) {
        Chs cur = geo.lbaToChs(lba);
        if (cur.cylinder == prev.cylinder && cur.head == prev.head) {
            EXPECT_EQ(cur.sector, prev.sector + 1);
        } else if (cur.cylinder == prev.cylinder) {
            EXPECT_EQ(cur.head, prev.head + 1);
            EXPECT_EQ(cur.sector, 0);
        } else {
            EXPECT_EQ(cur.cylinder, prev.cylinder + 1);
            EXPECT_EQ(cur.head, 0);
            EXPECT_EQ(cur.sector, 0);
        }
        prev = cur;
    }
}

TEST(Geometry, ZoneOfFindsCorrectZone)
{
    DiskGeometry geo = device::hp2247Geometry();
    EXPECT_EQ(geo.zoneOf(0), 0);
    EXPECT_EQ(geo.zoneOf(geo.cylinders() - 1), 7);
    int prev_zone = 0;
    for (int cyl = 0; cyl < geo.cylinders(); ++cyl) {
        int zone = geo.zoneOf(cyl);
        EXPECT_GE(zone, prev_zone); // zones ascend with cylinders
        prev_zone = zone;
    }
}

} // namespace
} // namespace pddl
