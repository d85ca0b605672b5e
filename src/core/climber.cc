#include "core/climber.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <tuple>
#include <utility>

namespace pddl {

namespace {

/**
 * Development distance `to - from` mod n for values in [0, n),
 * without `%` or a branch: the sign mask adds n to a negative
 * difference (arithmetic shift, well-defined since C++20).
 */
int
distance(int from, int to, int n)
{
    const int d = to - from;
    return d + (n & (d >> 31));
}

} // namespace

GroupClimber::GroupClimber(int n, int k, int p, Rng &rng, int spares)
    : n_(n), k_(k), g_((n - spares) / k), p_(p), spares_(spares),
      bumped_(4 * static_cast<size_t>(k - 1)), net_(n / 2 + 1, 0),
      rng_(rng)
{
    assert(n == g_ * k + spares_);
    int64_t total = static_cast<int64_t>(p_) * g_ * k_ * (k_ - 1);
    assert(total % (n_ - 1) == 0 &&
           "flat tally target must be integral");
    target_ = total / (n_ - 1);
}

void
GroupClimber::randomize()
{
    perms_.clear();
    for (int q = 0; q < p_; ++q)
        perms_.push_back(rng_.permutation(n_));
    rebuildTally();
}

bool
GroupClimber::climb(int64_t max_steps)
{
    // Enumerate all candidate swaps once; reshuffle per sweep.
    std::vector<std::tuple<int, int, int>> moves;
    moves.reserve(static_cast<size_t>(p_) * n_ * (n_ - 1) / 2);
    for (int q = 0; q < p_; ++q)
        for (int a = 0; a < n_; ++a)
            for (int b = a + 1; b < n_; ++b)
                moves.emplace_back(q, a, b);

    // One shuffled circular order, scanned with first
    // improvement; sideways (equal-cost) moves are allowed with a
    // budget so the climber can walk the landscape's large
    // plateaus. A full scan with no acceptance is a (plateau-
    // exhausted) local optimum.
    rng_.shuffle(moves);
    const int max_sideways = 3 * n_;
    int sideways = 0;
    int64_t steps = 0;
    size_t index = 0;
    size_t rejected_in_a_row = 0;
    while (cost_ > 0 && steps < max_steps) {
        if (rejected_in_a_row == moves.size())
            return false; // local optimum, plateau spent
        const auto &[q, a, b] = moves[index];
        index = (index + 1) % moves.size();
        // Score read-only; only an accepted move touches the tally.
        const int64_t delta = swapDelta(q, a, b);
        if (delta < 0) {
            applySwap(q, a, b);
            sideways = 0;
            rejected_in_a_row = 0;
            ++steps;
        } else if (delta == 0 && sideways < max_sideways) {
            applySwap(q, a, b);
            ++sideways;
            rejected_in_a_row = 0;
            ++steps;
        } else {
            ++rejected_in_a_row;
        }
    }
    return cost_ == 0;
}

std::vector<int64_t>
GroupClimber::deviations() const
{
    std::vector<int64_t> dev(n_, 0);
    for (int delta = 1; delta < n_; ++delta)
        dev[delta] = tally_[delta] - target_;
    return dev;
}

void
GroupClimber::perturb(int count)
{
    for (int i = 0; i < count; ++i) {
        int q = static_cast<int>(rng_.below(p_));
        int a = static_cast<int>(rng_.below(n_));
        int b = static_cast<int>(rng_.below(n_));
        if (a != b)
            applySwap(q, a, b);
    }
}

PermutationGroup
GroupClimber::group() const
{
    PermutationGroup result;
    result.n = n_;
    result.k = k_;
    result.g = g_;
    result.spares = spares_;
    result.xor_development = false;
    result.perms = perms_;
    return result;
}

void
GroupClimber::accountColumn(int q, int column, int block, int sign)
{
    const int base = spares_ + block * k_;
    const auto &perm = perms_[q];
    const int value = perm[column];
    for (int c2 = base; c2 < base + k_; ++c2) {
        if (c2 == column)
            continue;
        bumpTally(distance(value, perm[c2], n_), sign);
        bumpTally(distance(perm[c2], value, n_), sign);
    }
}

void
GroupClimber::accountBlock(int q, int block, int sign)
{
    const int base = spares_ + block * k_;
    const auto &perm = perms_[q];
    for (int c = base; c < base + k_; ++c) {
        for (int c2 = base; c2 < base + k_; ++c2) {
            if (c2 == c)
                continue;
            bumpTally(distance(perm[c], perm[c2], n_), sign);
        }
    }
}

void
GroupClimber::bumpTally(int delta, int sign)
{
    int64_t old_dev = tally_[delta] - target_;
    tally_[delta] += sign;
    int64_t new_dev = tally_[delta] - target_;
    cost_ += new_dev * new_dev - old_dev * old_dev;
}

int64_t
GroupClimber::swapDelta(int q, int a, int b)
{
    assert(a != b);
    const int block_a = blockOfColumn(a);
    const int block_b = blockOfColumn(b);
    if (block_a == block_b)
        return 0; // spare<->spare or intra-block: no difference moves
    // A distance whose tally moves by a net c changes its squared
    // deviation by 2*dev*c + c^2. Every pair of columns adds both d
    // and n - d, so the tally is symmetric and each pair's two bumps
    // fold onto one bin e = min(d, n - d): with H the net bumps of e,
    // the two bins d, n - d change the cost by 4*dev*H + 2*H^2 (one
    // bin n/2 when n is even: 4*dev*H + 4*H^2). A swap removes as
    // many pairs as it adds, so target_ cancels from the linear part,
    // which sums pair by pair. The square part needs each bin's net,
    // because bins can collide within one swap, so pairs are netted
    // in net_.
    const int n = n_;
    const int k = k_;
    const int *const perm = perms_[q].data();
    const int64_t *const tally = tally_.data();
    int32_t *const net = net_.data();
    int *bumped = bumped_.data();
    auto fold = [n](int from, int to) {
        const int d = distance(from, to, n);
        return std::min(d, n - d);
    };
    int64_t linear = 0;
    for (const auto &[block, column, other] :
         {std::tuple{block_a, a, b}, std::tuple{block_b, b, a}}) {
        if (block < 0)
            continue;
        // `column` trades value `out` for `in`: the pairs joining it
        // to the rest of its block change.
        const int out = perm[column];
        const int in = perm[other];
        const int base = spares_ + block * k;
        for (int c2 = base; c2 < base + k; ++c2) {
            if (c2 == column)
                continue;
            const int gone = fold(out, perm[c2]);
            const int added = fold(in, perm[c2]);
            linear += tally[added] - tally[gone];
            --net[gone];
            ++net[added];
            *bumped++ = gone;
            *bumped++ = added;
        }
    }
    assert(bumped <= bumped_.data() + bumped_.size());
    // Square each bin's net once: the first visit reads and clears
    // it, so repeat visits add nothing and net_ ends all zero.
    int64_t square = 0;
    for (const int *it = bumped_.data(); it != bumped; ++it) {
        const int64_t c = net[*it];
        square += (2 * *it == n ? 4 : 2) * c * c;
        net[*it] = 0;
    }
    return 4 * linear + square;
}

void
GroupClimber::applySwap(int q, int a, int b)
{
    assert(a != b);
    const int block_a = blockOfColumn(a);
    const int block_b = blockOfColumn(b);
    auto &perm = perms_[q];
    if (block_a == block_b) {
        // Spare<->spare, or two columns of the same block: the value
        // multiset per block is unchanged, so every difference -- and
        // the cost -- is unchanged too.
        std::swap(perm[a], perm[b]);
        return;
    }
    // Only differences pairing a swapped column with the rest of its
    // block change; the blocks differ, so no pair is touched twice.
    if (block_a >= 0)
        accountColumn(q, a, block_a, -1);
    if (block_b >= 0)
        accountColumn(q, b, block_b, -1);
    std::swap(perm[a], perm[b]);
    if (block_a >= 0)
        accountColumn(q, a, block_a, +1);
    if (block_b >= 0)
        accountColumn(q, b, block_b, +1);
}

void
GroupClimber::rebuildTally()
{
    tally_.assign(n_, 0);
    cost_ = 0;
    // Start from a zero tally so bumpTally accumulates the cost.
    for (int delta = 1; delta < n_; ++delta)
        cost_ += target_ * target_;
    for (int q = 0; q < p_; ++q)
        for (int block = 0; block < g_; ++block)
            accountBlock(q, block, +1);
}

int64_t
GroupClimber::recomputeCost() const
{
    std::vector<int64_t> tally(n_, 0);
    for (int q = 0; q < p_; ++q) {
        for (int block = 0; block < g_; ++block) {
            const int base = spares_ + block * k_;
            const auto &perm = perms_[q];
            for (int c = base; c < base + k_; ++c) {
                for (int c2 = base; c2 < base + k_; ++c2) {
                    if (c2 == c)
                        continue;
                    ++tally[(perm[c2] - perm[c] + n_) % n_];
                }
            }
        }
    }
    int64_t cost = 0;
    for (int delta = 1; delta < n_; ++delta) {
        int64_t dev = tally[delta] - target_;
        cost += dev * dev;
    }
    return cost;
}

} // namespace pddl
