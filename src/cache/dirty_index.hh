/**
 * @file
 * DirtyIndex: the ordered set of dirty units behind the CacheTier's
 * destage coalescer.
 *
 * The coalescer needs three operations on a set of unit numbers in
 * [0, domain): insert, erase, and "smallest member >= x" (with the
 * caller wrapping to 0 when nothing follows). A balanced tree does
 * all three but pays an allocation and a pointer chase of about
 * log2(size) levels per mark; the cache marks and clears a unit on
 * almost every absorbed write.
 *
 * This index is a 64-ary radix tree of bit words whose nodes live in
 * one open-addressing hash table keyed by (level, word index):
 *
 *  - level 0 holds one bit per unit, 64 units per word;
 *  - a bit at level l + 1 says "the level-l word below is nonzero";
 *  - the top level is the single word that covers the whole domain.
 *
 * Only nonzero words are stored, so memory follows the number of
 * dirty units (never the domain) and nothing is allocated until the
 * first insert. Insert and erase touch one word, and climb only
 * while a word turns nonzero or empty; next() climbs until a later
 * bit exists and descends along the lowest set bits. The order seen
 * by the caller is exactly std::set's: the table's layout never
 * reaches a result.
 */

#ifndef PDDL_CACHE_DIRTY_INDEX_HH
#define PDDL_CACHE_DIRTY_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pddl {
namespace cache {

/** Ordered set of units in [0, domain), flat and allocation-lean. */
class DirtyIndex
{
  public:
    /** An empty index over units [0, domain); allocates nothing. */
    explicit DirtyIndex(int64_t domain);

    bool empty() const { return size_ == 0; }
    int64_t size() const { return size_; }

    bool contains(int64_t unit) const;

    /** Add `unit`; @return false when it was already a member. */
    bool insert(int64_t unit);

    /** Remove `unit`; @return false when it was not a member. */
    bool erase(int64_t unit);

    /** Smallest member >= `from`, or -1 when there is none. */
    int64_t next(int64_t from) const;

    /** Hash-table slots held (memory is 16 bytes per slot). */
    size_t capacity() const { return slots_.size(); }

  private:
    struct Slot
    {
        uint64_t key = kEmpty;
        uint64_t bits = 0;
    };

    static constexpr uint64_t kEmpty = ~uint64_t{0};

    /** Table key of word `index` at tree level `level`. */
    static uint64_t
    keyOf(int level, uint64_t index)
    {
        return (index << 4) | static_cast<uint64_t>(level);
    }

    size_t home(uint64_t key) const
    {
        // Fibonacci hashing: the high bits of the product are well
        // mixed even for the consecutive word indices of a run.
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                   shift_);
    }

    /** Slot holding `key`, or ~size_t{0} when absent. */
    size_t find(uint64_t key) const;
    /** Bits of word (level, index); 0 when the word is absent. */
    uint64_t word(int level, uint64_t index) const;
    /** The slot of (level, index), created empty when absent. */
    Slot &slotFor(int level, uint64_t index);
    /** Remove the slot at `pos` (backward-shift deletion). */
    void removeAt(size_t pos);
    void grow();

    int64_t domain_;
    /** Tree height: 64^levels_ >= domain_. */
    int levels_ = 1;
    int64_t size_ = 0;
    /** Occupied slots. */
    size_t used_ = 0;
    /** 64 - log2(slots_.size()). */
    int shift_ = 64;
    std::vector<Slot> slots_;
};

} // namespace cache
} // namespace pddl

#endif // PDDL_CACHE_DIRTY_INDEX_HH
