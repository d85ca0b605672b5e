#include "layout/datum.hh"

#include <algorithm>
#include <cstddef>

namespace pddl {

DatumLayout::DatumLayout(int disks, int width, int check_units)
    : Layout("DATUM", disks, width, check_units),
      choose_(disks, width)
{
    stripes_ = choose_(disks, width);
    rows_ = choose_(disks - 1, width - 1);
}

PhysAddr
DatumLayout::mapUnit(int64_t stripe, int pos) const
{
    assert(pos >= 0 && pos < stripeWidth());
    const int n = numDisks();
    const int k = stripeWidth();
    const int q = checkUnitsPerStripe();

    int64_t period = stripe / stripes_;
    int64_t rank = stripe % stripes_;
    std::vector<int> subset = colexUnrank(rank, n, k, choose_);

    // Check placement via the canonical orbit representative: every
    // translate S = R + t of a canonical set R (the lexicographically
    // smallest zero-anchored translate) stores its checks on
    // R[0..q-1] + t. Translates partition the complete design into
    // orbits of size n (exactly, whenever no nonzero translation
    // stabilizes S), so every disk carries the check role q times per
    // orbit -- exact distributed parity, computed on demand.
    std::vector<int> view(k), best;
    int anchor = -1;
    for (int s : subset) {
        for (int i = 0; i < k; ++i)
            view[i] = (subset[i] - s + n) % n;
        std::sort(view.begin(), view.end());
        if (anchor < 0 || view < best) {
            best = view;
            anchor = s;
        }
    }

    std::vector<int> checks(q);
    for (int c = 0; c < q; ++c)
        checks[c] = (best[c] + anchor) % n;

    int disk;
    if (pos >= dataUnitsPerStripe()) {
        disk = checks[pos - dataUnitsPerStripe()];
    } else {
        // Data positions take the non-check elements ascending.
        int skipped = 0;
        int index = 0;
        disk = -1;
        for (int element : subset) {
            if (std::find(checks.begin(), checks.end(), element) !=
                checks.end()) {
                ++skipped;
                continue;
            }
            if (index == pos) {
                disk = element;
                break;
            }
            ++index;
        }
        assert(disk >= 0);
        (void)skipped;
    }

    int64_t unit = period * rows_ +
                   colexCountContaining(subset, disk, choose_);
    return PhysAddr{disk, unit};
}

} // namespace pddl
