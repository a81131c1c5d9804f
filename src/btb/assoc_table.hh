/**
 * @file
 * Generic set-associative, LRU-replacement lookup table used by every
 * BTB variant and by the cache models. Keys are pre-shifted
 * identifiers (basic-block address >> 2 for BTBs, block number for
 * caches); the set index is key modulo the number of sets, and the
 * full key acts as the tag, so the model never suffers false aliasing
 * (matching the paper's full-length tag storage accounting).
 */

#ifndef SHOTGUN_BTB_ASSOC_TABLE_HH
#define SHOTGUN_BTB_ASSOC_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace shotgun
{

template <typename Value>
class SetAssocTable
{
  public:
    SetAssocTable(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways),
          setMask_((sets & (sets - 1)) == 0 ? sets - 1 : 0),
          keys_(sets * ways),
          stamps_(sets * ways), values_(sets * ways)
    {
        fatal_if(sets == 0 || ways == 0,
                 "SetAssocTable needs sets > 0 and ways > 0");
    }

    std::size_t sets() const { return sets_; }
    std::size_t ways() const { return ways_; }
    std::size_t capacity() const { return keys_.size(); }

    /** Probe without updating recency. */
    Value *
    find(std::uint64_t key)
    {
        const std::size_t way = findWay(key);
        return way == kNone ? nullptr : &values_[way];
    }

    const Value *
    find(std::uint64_t key) const
    {
        const std::size_t way = findWay(key);
        return way == kNone ? nullptr : &values_[way];
    }

    /** Probe and mark most-recently-used on hit. */
    Value *
    touch(std::uint64_t key)
    {
        const std::size_t way = findWay(key);
        if (way == kNone)
            return nullptr;
        stamps_[way] = ++clock_;
        return &values_[way];
    }

    /**
     * Insert (or overwrite) the value for `key`, evicting the LRU way
     * of the set if needed: the first invalid way, else the way with
     * the smallest stamp (the first one on ties).
     * @param evicted_key  if non-null, receives the evicted key.
     * @param evicted      if non-null, receives the evicted value.
     * @return true if a valid entry was evicted.
     */
    bool
    insert(std::uint64_t key, const Value &value,
           std::uint64_t *evicted_key = nullptr,
           Value *evicted = nullptr)
    {
        // One pass: a match in any way wins; otherwise the smallest
        // stamp is the victim, and an invalid way's 0 is smallest.
        const std::size_t base = setBase(key);
        std::size_t victim = base;
        for (std::size_t w = base; w < base + ways_; ++w) {
            if (keys_[w] == key && stamps_[w] != 0) {
                values_[w] = value;
                stamps_[w] = ++clock_;
                return false;
            }
            if (stamps_[w] < stamps_[victim])
                victim = w;
        }

        const bool evicting = stamps_[victim] != 0;
        if (evicting) {
            if (evicted_key)
                *evicted_key = keys_[victim];
            if (evicted)
                *evicted = values_[victim];
        }
        keys_[victim] = key;
        values_[victim] = value;
        stamps_[victim] = ++clock_;
        return evicting;
    }

    /** Remove the entry for `key`. @return true if it existed. */
    bool
    erase(std::uint64_t key)
    {
        const std::size_t way = findWay(key);
        if (way == kNone)
            return false;
        stamps_[way] = 0;
        return true;
    }

    /** Invalidate everything. */
    void
    clear()
    {
        std::fill(stamps_.begin(), stamps_.end(), 0);
        clock_ = 0;
    }

    /** Count of valid entries (O(capacity); for tests/stats only). */
    std::size_t
    occupancy() const
    {
        std::size_t count = 0;
        for (const std::uint64_t stamp : stamps_)
            count += stamp != 0;
        return count;
    }

    /** Apply fn(key, value) to every valid entry (tests/stats). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (stamps_[i] != 0)
                fn(keys_[i], values_[i]);
        }
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t(0);

    /** Index of the first way of `key`'s set. */
    std::size_t
    setBase(std::uint64_t key) const
    {
        // A mask where the set count is a power of two (every default
        // table), the modulo otherwise (budget and ablation sizes).
        const std::uint64_t set =
            setMask_ != 0 ? key & setMask_ : key % sets_;
        return static_cast<std::size_t>(set) * ways_;
    }

    /** Index of the valid way holding `key`, or kNone. */
    std::size_t
    findWay(std::uint64_t key) const
    {
        const std::size_t base = setBase(key);
        for (std::size_t w = base; w < base + ways_; ++w) {
            if (keys_[w] == key && stamps_[w] != 0)
                return w;
        }
        return kNone;
    }

    std::size_t sets_;
    std::size_t ways_;
    std::uint64_t setMask_; ///< sets_ - 1 for a power of two, else 0.

    /**
     * Structure of arrays, one element per line (set-major). A stamp
     * is the clock value of the line's last insert or touch; the
     * clock is pre-incremented, so a valid line's stamp is at least 1
     * and 0 marks an invalid line.
     */
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> stamps_;
    std::vector<Value> values_;
    std::uint64_t clock_ = 0;
};

/**
 * Pick an associativity for `entries` such that entries/ways is an
 * integer, preferring `preferred` ways. Used when scaling BTB sizes
 * for the storage-budget sweep (Fig 13).
 */
inline std::size_t
chooseWays(std::size_t entries, std::size_t preferred)
{
    for (std::size_t ways : {preferred, std::size_t(4), std::size_t(8),
                             std::size_t(6), std::size_t(2),
                             std::size_t(16), std::size_t(1)}) {
        if (ways <= entries && entries % ways == 0)
            return ways;
    }
    return 1;
}

/** floor(log2(x)) for x >= 1; 0 for x == 0. */
inline unsigned
floorLog2(std::uint64_t x)
{
    unsigned log = 0;
    while (x > 1) {
        x >>= 1;
        ++log;
    }
    return log;
}

} // namespace shotgun

#endif // SHOTGUN_BTB_ASSOC_TABLE_HH
