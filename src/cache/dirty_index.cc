#include "cache/dirty_index.hh"

#include <cassert>

namespace pddl {
namespace cache {

namespace {

constexpr size_t kNoSlot = ~size_t{0};
constexpr size_t kMinSlots = 64;

} // namespace

DirtyIndex::DirtyIndex(int64_t domain) : domain_(domain)
{
    assert(domain_ >= 1);
    // 11 levels of 6 bits cover every non-negative int64_t.
    while (levels_ < 11 && ((domain_ - 1) >> (6 * levels_)) != 0)
        ++levels_;
}

size_t
DirtyIndex::find(uint64_t key) const
{
    if (slots_.empty())
        return kNoSlot;
    const size_t mask = slots_.size() - 1;
    for (size_t pos = home(key);; pos = (pos + 1) & mask) {
        if (slots_[pos].key == key)
            return pos;
        if (slots_[pos].key == kEmpty)
            return kNoSlot;
    }
}

uint64_t
DirtyIndex::word(int level, uint64_t index) const
{
    const size_t pos = find(keyOf(level, index));
    return pos == kNoSlot ? 0 : slots_[pos].bits;
}

DirtyIndex::Slot &
DirtyIndex::slotFor(int level, uint64_t index)
{
    const uint64_t key = keyOf(level, index);
    const size_t found = find(key);
    if (found != kNoSlot)
        return slots_[found];
    // Absent: keep the load at or below one half, then claim the
    // first free slot of the key's probe sequence.
    if (2 * (used_ + 1) > slots_.size())
        grow();
    const size_t mask = slots_.size() - 1;
    size_t pos = home(key);
    while (slots_[pos].key != kEmpty)
        pos = (pos + 1) & mask;
    slots_[pos].key = key;
    slots_[pos].bits = 0;
    ++used_;
    return slots_[pos];
}

void
DirtyIndex::removeAt(size_t pos)
{
    // Backward-shift deletion: pull later entries of the probe run
    // into the hole whenever the hole lies between their home and
    // their slot, so lookups never need tombstones.
    const size_t mask = slots_.size() - 1;
    size_t hole = pos;
    for (size_t probe = (pos + 1) & mask; slots_[probe].key != kEmpty;
         probe = (probe + 1) & mask) {
        const size_t from_home = (probe - home(slots_[probe].key)) & mask;
        const size_t from_hole = (probe - hole) & mask;
        if (from_home >= from_hole) {
            slots_[hole] = slots_[probe];
            hole = probe;
        }
    }
    slots_[hole] = Slot{};
    --used_;
}

void
DirtyIndex::grow()
{
    std::vector<Slot> old;
    old.swap(slots_);
    const size_t size = old.empty() ? kMinSlots : 2 * old.size();
    slots_.assign(size, Slot{});
    shift_ = 64;
    for (size_t s = size; s > 1; s >>= 1)
        --shift_;
    const size_t mask = size - 1;
    for (const Slot &slot : old) {
        if (slot.key == kEmpty)
            continue;
        size_t pos = home(slot.key);
        while (slots_[pos].key != kEmpty)
            pos = (pos + 1) & mask;
        slots_[pos] = slot;
    }
}

bool
DirtyIndex::contains(int64_t unit) const
{
    assert(unit >= 0);
    if (unit >= domain_)
        return false;
    const uint64_t index = static_cast<uint64_t>(unit);
    return (word(0, index >> 6) >> (index & 63)) & 1;
}

bool
DirtyIndex::insert(int64_t unit)
{
    assert(unit >= 0 && unit < domain_);
    uint64_t index = static_cast<uint64_t>(unit);
    for (int level = 0; level < levels_; ++level) {
        Slot &slot = slotFor(level, index >> 6);
        const uint64_t bit = uint64_t{1} << (index & 63);
        if ((slot.bits & bit) != 0) {
            // Only a leaf can already hold the bit: a parent bit is
            // set exactly when its child word turns nonzero.
            assert(level == 0);
            return false;
        }
        const bool was_empty = slot.bits == 0;
        slot.bits |= bit;
        if (!was_empty)
            break;
        index >>= 6;
    }
    ++size_;
    return true;
}

bool
DirtyIndex::erase(int64_t unit)
{
    assert(unit >= 0);
    if (unit >= domain_)
        return false;
    uint64_t index = static_cast<uint64_t>(unit);
    for (int level = 0; level < levels_; ++level) {
        const size_t pos = find(keyOf(level, index >> 6));
        const uint64_t bit = uint64_t{1} << (index & 63);
        if (pos == kNoSlot || (slots_[pos].bits & bit) == 0) {
            assert(level == 0);
            return false;
        }
        slots_[pos].bits &= ~bit;
        if (slots_[pos].bits != 0)
            break;
        removeAt(pos);
        index >>= 6;
    }
    --size_;
    return true;
}

int64_t
DirtyIndex::next(int64_t from) const
{
    assert(from >= 0);
    if (size_ == 0 || from >= domain_)
        return -1;
    // Climb: at each level look for a set bit at or after `index`
    // in its word; when there is none, the next candidate is the
    // word after this one, one level up.
    uint64_t index = static_cast<uint64_t>(from);
    int level = 0;
    uint64_t bits;
    for (;;) {
        bits = word(level, index >> 6) & (~uint64_t{0} << (index & 63));
        if (bits != 0)
            break;
        index = (index >> 6) + 1;
        if (++level == levels_)
            return -1;
    }
    // Descend along the lowest set bit: every word below a set bit
    // is nonzero.
    uint64_t child = (index & ~uint64_t{63}) |
                     static_cast<uint64_t>(__builtin_ctzll(bits));
    while (level > 0) {
        --level;
        child = (child << 6) |
                static_cast<uint64_t>(__builtin_ctzll(word(level, child)));
    }
    return static_cast<int64_t>(child);
}

} // namespace cache
} // namespace pddl
