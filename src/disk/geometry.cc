#include "disk/geometry.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace pddl {

DiskGeometry::DiskGeometry(int heads, std::vector<Zone> zones,
                           int sector_bytes)
    : heads_(heads), zones_(std::move(zones)), sector_bytes_(sector_bytes)
{
    assert(heads_ >= 1 && sector_bytes_ >= 1 && !zones_.empty());
    cylinders_ = 0;
    total_sectors_ = 0;
    zone_first_lba_.reserve(zones_.size() + 1);
    for (const Zone &z : zones_) {
        assert(z.first_cylinder == cylinders_ &&
               "zones must be contiguous and ascending");
        assert(z.cylinders >= 1 && z.sectors_per_track >= 1);
        zone_first_lba_.push_back(total_sectors_);
        const int64_t per_cylinder =
            static_cast<int64_t>(heads_) * z.sectors_per_track;
        zone_divisors_.push_back(
            {FixedDivisor(static_cast<uint64_t>(per_cylinder)),
             FixedDivisor(static_cast<uint64_t>(z.sectors_per_track)),
             z.first_cylinder});
        cylinder_spt_.insert(cylinder_spt_.end(),
                             static_cast<size_t>(z.cylinders),
                             z.sectors_per_track);
        cylinders_ += z.cylinders;
        total_sectors_ += static_cast<int64_t>(z.cylinders) * per_cylinder;
    }
    zone_first_lba_.push_back(total_sectors_);

    // Buckets of 2^shift LBAs, the largest power of two no longer
    // than the shortest zone: a bucket then meets at most two zones,
    // and lbaToChs() settles which with one comparison.
    int64_t shortest = total_sectors_;
    for (size_t i = 0; i < zones_.size(); ++i)
        shortest = std::min(shortest,
                            zone_first_lba_[i + 1] - zone_first_lba_[i]);
    bucket_shift_ = 0;
    while ((shortest >> (bucket_shift_ + 1)) > 0)
        ++bucket_shift_;
    size_t zi = 0;
    for (int64_t first = 0; first < total_sectors_;
         first += int64_t{1} << bucket_shift_) {
        while (first >= zone_first_lba_[zi + 1])
            ++zi;
        bucket_zone_.push_back(static_cast<int>(zi));
    }
}

int
DiskGeometry::zoneOf(int cylinder) const
{
    assert(cylinder >= 0 && cylinder < cylinders_);
    // Few zones (8 for the HP 2247): linear scan beats binary search.
    for (size_t i = 0; i < zones_.size(); ++i) {
        if (cylinder < zones_[i].first_cylinder + zones_[i].cylinders)
            return static_cast<int>(i);
    }
    assert(false);
    return -1;
}

int64_t
DiskGeometry::chsToLba(const Chs &chs) const
{
    int zi = zoneOf(chs.cylinder);
    const Zone &z = zones_[zi];
    assert(chs.head >= 0 && chs.head < heads_);
    assert(chs.sector >= 0 && chs.sector < z.sectors_per_track);
    int64_t per_cyl = static_cast<int64_t>(heads_) * z.sectors_per_track;
    return zone_first_lba_[zi] +
           static_cast<int64_t>(chs.cylinder - z.first_cylinder) * per_cyl +
           static_cast<int64_t>(chs.head) * z.sectors_per_track +
           chs.sector;
}

} // namespace pddl
