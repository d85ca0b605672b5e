#include "util/binomial.hh"

#include <cassert>
#include <cstddef>
#include <limits>

namespace pddl {

namespace {

const int64_t kSaturated = std::numeric_limits<int64_t>::max();

/** a * b with saturation at INT64_MAX (a, b >= 0). */
int64_t
satMul(int64_t a, int64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    if (a > kSaturated / b)
        return kSaturated;
    return a * b;
}

} // namespace

int64_t
binomial(int n, int k)
{
    if (k < 0 || k > n)
        return 0;
    if (k > n - k)
        k = n - k;
    int64_t result = 1;
    for (int i = 1; i <= k; ++i) {
        // result = result * (n - k + i) / i; exact at each step.
        int64_t num = satMul(result, n - k + i);
        if (num == kSaturated)
            return kSaturated;
        result = num / i;
    }
    return result;
}

namespace {

/** The binomial number system walk, over any coefficient source. */
template <typename Choose>
std::vector<int>
unrankWith(int64_t rank, int n, int k, const Choose &choose)
{
    assert(k >= 0 && k <= n);
    assert(rank >= 0 && rank < choose(n, k));
    std::vector<int> subset(k);
    int c = n - 1;
    for (int i = k - 1; i >= 0; --i) {
        // Largest c with C(c, i+1) <= rank; elements stay distinct
        // because the next position searches strictly below c.
        while (choose(c, i + 1) > rank)
            --c;
        subset[i] = c;
        rank -= choose(c, i + 1);
        --c;
    }
    assert(rank == 0);
    return subset;
}

template <typename Choose>
int64_t
countContainingWith(const std::vector<int> &s, int d,
                    const Choose &choose)
{
    const int k = static_cast<int>(s.size());
    // Partition the predecessors T <_colex S by the topmost position j
    // where T differs from S: T matches S above j and t_j < s_j.
    bool d_in_upper = false; // d is among s_{j+1} .. s_{k-1}
    int64_t total = 0;
    for (int j = k - 1; j >= 0; --j) {
        if (d_in_upper) {
            // d is pinned by the shared upper part; the lower part is
            // any (j+1)-subset below s_j: C(s_j, j+1) choices.
            total += choose(s[j], j + 1);
        } else if (d < s[j]) {
            // d must appear at or below position j. Summing the
            // t_j = d and d < t_j < s_j cases telescopes to
            // C(s_j - 1, j) for j >= 1 and 1 for j == 0.
            total += (j == 0) ? 1 : choose(s[j] - 1, j);
        }
        if (s[j] == d)
            d_in_upper = true;
    }
    return total;
}

} // namespace

BinomialTable::BinomialTable(int n, int k) : n_(n), k_(k)
{
    assert(n >= 0 && k >= 0);
    table_.reserve(static_cast<size_t>(n + 1) *
                   static_cast<size_t>(k + 1));
    for (int c = 0; c <= n; ++c) {
        for (int j = 0; j <= k; ++j)
            table_.push_back(binomial(c, j));
    }
}

std::vector<int>
colexUnrank(int64_t rank, int n, int k)
{
    return unrankWith(rank, n, k, binomial);
}

std::vector<int>
colexUnrank(int64_t rank, int n, int k, const BinomialTable &choose)
{
    return unrankWith(rank, n, k, choose);
}

int64_t
colexRank(const std::vector<int> &subset)
{
    int64_t rank = 0;
    for (size_t i = 0; i < subset.size(); ++i) {
        assert(i == 0 || subset[i] > subset[i - 1]);
        rank += binomial(subset[i], static_cast<int>(i) + 1);
    }
    return rank;
}

int64_t
colexCountContaining(int64_t rank, int n, int k, int d)
{
    assert(d >= 0 && d < n);
    return countContainingWith(colexUnrank(rank, n, k), d, binomial);
}

int64_t
colexCountContaining(const std::vector<int> &subset, int d,
                     const BinomialTable &choose)
{
    return countContainingWith(subset, d, choose);
}

} // namespace pddl
