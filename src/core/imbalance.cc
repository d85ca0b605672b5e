#include "core/imbalance.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pddl {

ImbalanceEvaluator::ImbalanceEvaluator(DevelopedRows map)
    : map_(std::move(map))
{
    validateDevelopedRows(map_);
    const int g = map_.groupsPerRow();
    groups_.reserve(map_.rows.size() * static_cast<size_t>(g) * map_.k);
    for (const auto &row : map_.rows)
        groups_.insert(groups_.end(), row.begin() + map_.spares,
                       row.end());
    rebuildFromGroups();
}

ImbalanceEvaluator
ImbalanceEvaluator::forLayout(const Layout &layout)
{
    ImbalanceEvaluator eval;
    eval.map_.n = layout.numDisks();
    eval.map_.k = layout.stripeWidth();
    eval.map_.spares = 0;
    const int64_t stripes = layout.stripesPerPeriod();
    const int k = layout.stripeWidth();
    eval.groups_.reserve(static_cast<size_t>(stripes) * k);
    for (int64_t s = 0; s < stripes; ++s)
        for (int pos = 0; pos < k; ++pos)
            eval.groups_.push_back(layout.map({s, pos}).disk);
    eval.rebuildFromGroups();
    return eval;
}

void
ImbalanceEvaluator::rebuildFromGroups()
{
    const size_t n = static_cast<size_t>(map_.n);
    pair_.assign(n * n, 0);
    group_count_.assign(n, 0);
    pair_sq_ = 0;
    group_sq_ = 0;
    const size_t count = groups_.size() / map_.k;
    for (size_t g = 0; g < count; ++g) {
        const int *member = groupDisks(g);
        for (int i = 0; i < map_.k; ++i) {
            int64_t &gc = group_count_[member[i]];
            group_sq_ += 2 * gc + 1;
            ++gc;
            for (int j = i + 1; j < map_.k; ++j) {
                bumpPair(member[i], member[j], +1);
                bumpPair(member[j], member[i], +1);
            }
        }
    }
}

void
ImbalanceEvaluator::bumpPair(int f, int d, int sign)
{
    int32_t &entry = pair_[static_cast<size_t>(f) * map_.n + d];
    // new^2 - old^2 for a +/-1 bump.
    pair_sq_ += sign * (2 * static_cast<int64_t>(entry) + sign);
    entry += sign;
}

void
ImbalanceEvaluator::accountAgainstGroup(int disk, const int *member,
                                        int sign)
{
    for (int i = 0; i < map_.k; ++i) {
        if (member[i] == disk)
            continue;
        bumpPair(disk, member[i], sign);
        bumpPair(member[i], disk, sign);
    }
}

int64_t
ImbalanceEvaluator::swapDelta(int row, int a, int b) const
{
    assert(!map_.rows.empty() &&
           "swapDelta needs row structure (not forLayout)");
    assert(row >= 0 &&
           row < static_cast<int>(map_.rows.size()));
    assert(a != b && a >= 0 && b >= 0 && a < map_.n && b < map_.n);
    const int ga = groupOfSlot(a);
    const int gb = groupOfSlot(b);
    if (ga == gb)
        return 0; // spare<->spare or intra-group: no tally moves
    const std::vector<int> &slots = map_.rows[row];
    const int x = slots[a];
    const int y = slots[b];
    const size_t n = static_cast<size_t>(map_.n);
    const int32_t *const row_x = pair_.data() + x * n;
    const int32_t *const row_y = pair_.data() + y * n;
    // `leaver` leaves group g and `joiner` takes its slot: for every
    // other member m, A[leaver][m] drops by one and A[joiner][m]
    // rises by one. A +/-1 bump of entry e changes e^2 by 2*s*e + 1,
    // and the mirrored entries A[m][.] change identically, so the
    // pair term is twice this sum.
    int64_t pair_delta = 0;
    auto exchange = [&](int g, int leaver, const int32_t *leaving,
                        const int32_t *joining) {
        const int *member = groupDisks(groupIndex(row, g));
        for (int i = 0; i < map_.k; ++i) {
            const int m = member[i];
            if (m == leaver)
                continue;
            pair_delta += 2 * (static_cast<int64_t>(joining[m]) -
                               leaving[m]) +
                          2;
        }
    };
    if (ga >= 0)
        exchange(ga, x, row_x, row_y);
    if (gb >= 0)
        exchange(gb, y, row_y, row_x);
    int64_t delta = 2 * pair_delta;
    // A spare slot trades group duty: the spare disk gains one
    // appearance, the disk it replaces loses one.
    if (ga < 0)
        delta += 2 * (group_count_[x] - group_count_[y]) + 2;
    else if (gb < 0)
        delta += 2 * (group_count_[y] - group_count_[x]) + 2;
    return delta;
}

void
ImbalanceEvaluator::applySwap(int row, int a, int b)
{
    assert(!map_.rows.empty() &&
           "applySwap needs row structure (not forLayout)");
    assert(row >= 0 &&
           row < static_cast<int>(map_.rows.size()));
    assert(a != b && a >= 0 && b >= 0 && a < map_.n && b < map_.n);
    const int ga = groupOfSlot(a);
    const int gb = groupOfSlot(b);
    std::vector<int> &slots = map_.rows[row];
    if (ga == gb) {
        // Spare<->spare or an intra-group transposition: the group's
        // disk set -- and every tally -- is unchanged.
        std::swap(slots[a], slots[b]);
        return;
    }
    const int x = slots[a];
    const int y = slots[b];
    int *const slice_a =
        ga < 0 ? nullptr : &groups_[groupIndex(row, ga) * map_.k];
    int *const slice_b =
        gb < 0 ? nullptr : &groups_[groupIndex(row, gb) * map_.k];
    // x leaves group a (if any), y leaves group b: retire their
    // pairings first, then re-account after the exchange. The groups
    // are distinct, so no pairing is touched twice.
    if (slice_a != nullptr) {
        accountAgainstGroup(x, slice_a, -1);
        group_sq_ -= 2 * group_count_[x] - 1;
        --group_count_[x];
    }
    if (slice_b != nullptr) {
        accountAgainstGroup(y, slice_b, -1);
        group_sq_ -= 2 * group_count_[y] - 1;
        --group_count_[y];
    }
    std::swap(slots[a], slots[b]);
    if (slice_a != nullptr)
        *std::find(slice_a, slice_a + map_.k, x) = y;
    if (slice_b != nullptr)
        *std::find(slice_b, slice_b + map_.k, y) = x;
    if (slice_a != nullptr) {
        accountAgainstGroup(y, slice_a, +1);
        group_sq_ += 2 * group_count_[y] + 1;
        ++group_count_[y];
    }
    if (slice_b != nullptr) {
        accountAgainstGroup(x, slice_b, +1);
        group_sq_ += 2 * group_count_[x] + 1;
        ++group_count_[x];
    }
}

int64_t
ImbalanceEvaluator::recomputeCost() const
{
    const size_t n = static_cast<size_t>(map_.n);
    std::vector<int32_t> pair(n * n, 0);
    std::vector<int64_t> count(n, 0);
    const size_t groups = groups_.size() / map_.k;
    for (size_t g = 0; g < groups; ++g) {
        const int *member = groupDisks(g);
        for (int i = 0; i < map_.k; ++i) {
            ++count[member[i]];
            for (int j = 0; j < map_.k; ++j) {
                if (j != i)
                    ++pair[static_cast<size_t>(member[i]) * n +
                           member[j]];
            }
        }
    }
    int64_t cost = 0;
    for (int32_t entry : pair)
        cost += static_cast<int64_t>(entry) * entry;
    for (int64_t c : count)
        cost += c * c;
    return cost;
}

std::vector<int64_t>
ImbalanceEvaluator::singleFaultTally(int failed) const
{
    assert(failed >= 0 && failed < map_.n);
    std::vector<int64_t> reads(map_.n, 0);
    const int32_t *row = pair_.data() +
                         static_cast<size_t>(failed) * map_.n;
    for (int d = 0; d < map_.n; ++d)
        reads[d] = row[d];
    return reads;
}

std::vector<int64_t>
ImbalanceEvaluator::doubleFaultTally(int f1, int f2) const
{
    assert(f1 != f2);
    std::vector<int64_t> reads(map_.n, 0);
    const size_t count = groups_.size() / map_.k;
    for (size_t g = 0; g < count; ++g) {
        const int *member = groupDisks(g);
        bool hit = false;
        for (int i = 0; i < map_.k; ++i)
            hit = hit || member[i] == f1 || member[i] == f2;
        if (!hit)
            continue;
        for (int i = 0; i < map_.k; ++i)
            if (member[i] != f1 && member[i] != f2)
                ++reads[member[i]];
    }
    return reads;
}

ImbalanceMetrics
ImbalanceEvaluator::metrics(int faults) const
{
    assert(faults == 1 || faults == 2);
    ImbalanceMetrics out;
    double sum_ratio = 0.0;
    double sum_sq = 0.0;
    const int n = map_.n;
    auto foldCase = [&](int64_t max_reads, int64_t total,
                        int survivors) {
        // A fault case with no rebuild reads at all is perfectly
        // flat by definition (tiny maps only).
        const double ratio =
            total == 0 ? 1.0
                       : static_cast<double>(max_reads) * survivors /
                             static_cast<double>(total);
        out.worst = std::max(out.worst, ratio);
        sum_ratio += ratio;
        sum_sq += ratio * ratio;
        ++out.cases;
    };
    if (faults == 1) {
        for (int f = 0; f < n; ++f) {
            const int32_t *row = pair_.data() +
                                 static_cast<size_t>(f) * n;
            int64_t max_reads = 0;
            int64_t total = 0;
            for (int d = 0; d < n; ++d) {
                max_reads = std::max<int64_t>(max_reads, row[d]);
                total += row[d];
            }
            foldCase(max_reads, total, n - 1);
        }
    } else {
        // reads(f1, f2, d) = A[f1][d] + A[f2][d] - triples(f1,f2,d).
        // The triple term is resolved per f1 by scanning only the
        // groups containing f1 into a scratch (f2, d) plane.
        const size_t count = groups_.size() / map_.k;
        std::vector<std::vector<int32_t>> by_disk(n);
        for (size_t g = 0; g < count; ++g) {
            const int *member = groupDisks(g);
            for (int i = 0; i < map_.k; ++i)
                by_disk[member[i]].push_back(
                    static_cast<int32_t>(g));
        }
        std::vector<int32_t> triple(static_cast<size_t>(n) * n, 0);
        for (int f1 = 0; f1 < n; ++f1) {
            for (int32_t g : by_disk[f1]) {
                const int *member = groupDisks(g);
                for (int i = 0; i < map_.k; ++i) {
                    if (member[i] == f1)
                        continue;
                    for (int j = 0; j < map_.k; ++j) {
                        if (j != i && member[j] != f1)
                            ++triple[static_cast<size_t>(member[i]) *
                                         n +
                                     member[j]];
                    }
                }
            }
            const int32_t *a1 = pair_.data() +
                                static_cast<size_t>(f1) * n;
            for (int f2 = f1 + 1; f2 < n; ++f2) {
                const int32_t *a2 = pair_.data() +
                                    static_cast<size_t>(f2) * n;
                const int32_t *t = triple.data() +
                                   static_cast<size_t>(f2) * n;
                int64_t max_reads = 0;
                int64_t total = 0;
                for (int d = 0; d < n; ++d) {
                    if (d == f1 || d == f2)
                        continue;
                    const int64_t reads =
                        static_cast<int64_t>(a1[d]) + a2[d] - t[d];
                    max_reads = std::max(max_reads, reads);
                    total += reads;
                }
                foldCase(max_reads, total, n - 2);
            }
            for (int32_t g : by_disk[f1]) {
                const int *member = groupDisks(g);
                for (int i = 0; i < map_.k; ++i) {
                    if (member[i] == f1)
                        continue;
                    for (int j = 0; j < map_.k; ++j) {
                        if (j != i && member[j] != f1)
                            --triple[static_cast<size_t>(member[i]) *
                                         n +
                                     member[j]];
                    }
                }
            }
        }
    }
    if (out.cases > 0) {
        out.mean = sum_ratio / static_cast<double>(out.cases);
        out.rms = std::sqrt(sum_sq / static_cast<double>(out.cases));
    }
    return out;
}

} // namespace pddl
