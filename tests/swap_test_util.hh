/**
 * @file
 * Candidate-swap draws shared by the search-kernel exactness tests.
 *
 * Both kernels lay a row (or permutation) out the same way: `spares`
 * leading spare slots, then width-k groups. The tests must cover each
 * kind of transposition on purpose -- a uniform draw almost never
 * lands on two spare slots -- so draws are made per kind.
 */

#ifndef PDDL_TESTS_SWAP_TEST_UTIL_HH
#define PDDL_TESTS_SWAP_TEST_UTIL_HH

#include <cstdint>
#include <utility>

#include "util/rng.hh"

namespace pddl {

/** The transposition kinds a search can propose. */
enum class SwapKind
{
    Any,        ///< uniform over all slot pairs (mostly cross-group)
    SpareGroup, ///< a spare slot with a group slot
    SpareSpare, ///< two spare slots (cost-neutral)
    IntraGroup, ///< two slots of one group (cost-neutral)
};

constexpr SwapKind kSwapKinds[] = {SwapKind::Any, SwapKind::SpareGroup,
                                   SwapKind::SpareSpare,
                                   SwapKind::IntraGroup};

/** Whether a layout with `spares` leading spare slots has `kind`. */
inline bool
swapKindExists(SwapKind kind, int spares)
{
    switch (kind) {
      case SwapKind::SpareGroup:
        return spares >= 1;
      case SwapKind::SpareSpare:
        return spares >= 2;
      default:
        return true;
    }
}

/** Distinct slots (a, b) of `kind` over n = spares + groups * k. */
inline std::pair<int, int>
drawSwap(Rng &rng, SwapKind kind, int n, int k, int spares)
{
    auto below = [&](int bound) {
        return static_cast<int>(rng.below(static_cast<uint64_t>(bound)));
    };
    switch (kind) {
      case SwapKind::SpareGroup:
        return {below(spares), spares + below(n - spares)};
      case SwapKind::SpareSpare: {
        const int a = below(spares);
        return {a, (a + 1 + below(spares - 1)) % spares};
      }
      case SwapKind::IntraGroup: {
        const int base = spares + below((n - spares) / k) * k;
        const int a = below(k);
        return {base + a, base + (a + 1 + below(k - 1)) % k};
      }
      default: {
        const int a = below(n);
        return {a, (a + 1 + below(n - 1)) % n};
      }
    }
}

} // namespace pddl

#endif // PDDL_TESTS_SWAP_TEST_UTIL_HH
