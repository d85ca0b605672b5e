/**
 * @file
 * Binomial coefficients and the binomial number system (colex order).
 *
 * The DATUM layout enumerates all C(n, k) stripe sets of a complete
 * block design in colexicographic order; stripe addresses are then
 * computed on demand by (un)ranking combinations in the binomial
 * number system. These helpers implement that number system plus the
 * counting queries DATUM needs for per-disk offsets.
 */

#ifndef PDDL_UTIL_BINOMIAL_HH
#define PDDL_UTIL_BINOMIAL_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pddl {

/**
 * Binomial coefficient C(n, k); saturates at INT64_MAX on overflow.
 * Returns 0 for k < 0 or k > n.
 */
int64_t binomial(int n, int k);

/**
 * C(c, j) for 0 <= c <= n and 0 <= j <= k, tabulated from binomial()
 * so every entry (saturation included) is the same value. Callers
 * that rank many combinations of one (n, k) -- DATUM, once per map
 * entry -- read each coefficient with one load instead of
 * re-evaluating the overflow-checked product.
 */
class BinomialTable
{
  public:
    BinomialTable(int n, int k);

    /** binomial(c, j); 0 for j > c. Requires c <= n and j <= k. */
    int64_t
    operator()(int c, int j) const
    {
        assert(c >= 0 && c <= n_ && j >= 0 && j <= k_);
        return table_[static_cast<size_t>(c) *
                          static_cast<size_t>(k_ + 1) +
                      static_cast<size_t>(j)];
    }

  private:
    int n_;
    int k_;
    std::vector<int64_t> table_;
};

/**
 * Combination with colex rank `rank` among k-subsets of {0..n-1}.
 *
 * Colex order compares the largest differing element, so rank r
 * satisfies r = sum_i C(c_i, i+1) with c_0 < c_1 < ... < c_{k-1}
 * (the binomial number system representation of r).
 *
 * @return elements in ascending order.
 */
std::vector<int> colexUnrank(int64_t rank, int n, int k);

/** colexUnrank() reading coefficients from `choose` (over n, k). */
std::vector<int> colexUnrank(int64_t rank, int n, int k,
                             const BinomialTable &choose);

/** Colex rank of an ascending k-subset of {0..n-1}. */
int64_t colexRank(const std::vector<int> &subset);

/**
 * Number of k-subsets of {0..n-1} with colex rank < `rank` that
 * contain element d.
 *
 * This is the DATUM per-disk offset query: in a complete block design
 * enumerated in colex order, the physical offset of a stripe unit on
 * disk d is the number of earlier stripes that also use disk d.
 * Runs in O(k^2 + k log n); no tables.
 */
int64_t colexCountContaining(int64_t rank, int n, int k, int d);

/**
 * colexCountContaining() for the already unranked ascending subset
 * of colex rank `rank`, reading coefficients from `choose` (built
 * over at least n, k).
 */
int64_t colexCountContaining(const std::vector<int> &subset, int d,
                             const BinomialTable &choose);

} // namespace pddl

#endif // PDDL_UTIL_BINOMIAL_HH
