/**
 * @file
 * Joint hill-climber over permutation groups (section 3's search).
 *
 * Climbs p permutations of n columns jointly; a move swaps two
 * entries of one permutation, and the cost is the squared deviation
 * of the combined reconstruction read tally from flat (cost 0 means
 * the group is satisfactory).
 *
 * The tally is maintained incrementally at pair granularity: a swap
 * within one stripe block permutes values the block already holds, so
 * its difference multiset -- and the cost -- cannot change; a swap
 * across blocks only changes the differences involving the two
 * swapped columns, an O(k) update. climb() scores each candidate
 * read-only with swapDelta() and calls applySwap() only for a move it
 * accepts; applySwap() is its own inverse, which the audits and tests
 * use to walk back and forth.
 */

#ifndef PDDL_CORE_CLIMBER_HH
#define PDDL_CORE_CLIMBER_HH

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/base_permutation.hh"
#include "util/rng.hh"

namespace pddl {

/** Hill-climber with an incrementally maintained tally cost. */
class GroupClimber
{
  public:
    /**
     * @param n array size (columns per permutation)
     * @param k stripe width; n = g*k + spares must hold
     * @param p permutations climbed jointly
     * @param rng move/restart randomness (deterministic per seed)
     * @param spares leading spare columns excluded from stripes
     */
    GroupClimber(int n, int k, int p, Rng &rng, int spares = 1);

    /** Fresh random permutations; tally and cost rebuilt. */
    void randomize();

    /** Squared deviation of the tally from flat (0 = satisfactory). */
    int64_t cost() const { return cost_; }

    /**
     * The cost recomputed from scratch (no incremental state). Always
     * equals cost(); exists so tests can audit the delta updates.
     */
    int64_t recomputeCost() const;

    /**
     * First-improvement hill climbing over all (perm, a, b) swaps in
     * a random order per sweep; stops at a local optimum or after
     * max_steps accepted moves.
     *
     * @return true when a satisfactory group (cost 0) was reached.
     */
    bool climb(int64_t max_steps);

    /**
     * The exact change in cost() that applySwap(q, a, b) would make,
     * computed without touching the tally or the permutations, in
     * O(k). Zero for spare<->spare and intra-block swaps.
     */
    int64_t swapDelta(int q, int a, int b);

    /**
     * Swap entries a and b of permutation q, delta-updating the cost.
     * Self-inverse: applying the same swap again restores the state.
     */
    void applySwap(int q, int a, int b);

    /** Deviation of the tally from flat, per development distance. */
    std::vector<int64_t> deviations() const;

    const std::vector<int> &perm(int q) const { return perms_[q]; }

    /** Basin-hopping kick: a burst of random swaps, cost updated. */
    void perturb(int count);

    /** Package the current permutations as a PermutationGroup. */
    PermutationGroup group() const;

  private:
    int
    blockOfColumn(int column) const
    {
        return column < spares_ ? -1 : (column - spares_) / k_;
    }

    /**
     * Add (sign=+1) or remove (sign=-1) every difference pairing
     * `column` with the rest of its block, both directions.
     */
    void accountColumn(int q, int column, int block, int sign);

    /** Add (sign=+1) or remove (sign=-1) one block's differences. */
    void accountBlock(int q, int block, int sign);

    void bumpTally(int delta, int sign);

    void rebuildTally();

    int n_, k_, g_, p_;
    int spares_ = 1;
    int64_t target_ = 0;
    std::vector<std::vector<int>> perms_;
    std::vector<int64_t> tally_;
    int64_t cost_ = 0;
    /** swapDelta() scratch: folded distances min(d, n - d) the
     *  scored swap bumps, and the net bump per folded distance (all
     *  zero between calls). */
    std::vector<int> bumped_;
    std::vector<int32_t> net_;
    Rng &rng_;
};

} // namespace pddl

#endif // PDDL_CORE_CLIMBER_HH
