/**
 * @file
 * BTB prefetch buffer (from Boomerang, Sec 4.2.3 of the Shotgun
 * paper): a small fully-associative staging buffer holding branches
 * predecoded from fetched/prefetched cache blocks that were not the
 * branch a reactive fill was resolving. On a front-end hit, the entry
 * migrates into the appropriate BTB; this keeps speculative predecode
 * results from polluting the main BTBs.
 */

#ifndef SHOTGUN_BTB_PREFETCH_BUFFER_HH
#define SHOTGUN_BTB_PREFETCH_BUFFER_HH

#include <cstdint>
#include <vector>

#include "btb/btb_entry.hh"

namespace shotgun
{

class BTBPrefetchBuffer
{
  public:
    explicit BTBPrefetchBuffer(std::size_t entries = 32);

    /**
     * Stage a predecoded branch. Slots are scanned in order up to the
     * first empty one: a live entry for the same block found before
     * it is overwritten and refreshed; otherwise the first empty slot
     * takes the entry, or, with no empty slot, the least recently
     * inserted one is evicted. So when extract() has emptied a slot
     * ahead of a live copy, the block ends up stored twice (and can
     * be extracted twice); the older copy ages out by LRU.
     */
    void insert(const BTBEntry &entry);

    /**
     * Look up a basic-block start; on hit the entry is *removed*
     * (the caller migrates it into the appropriate BTB).
     * @return true and fills `out` on hit.
     */
    bool extract(Addr bb_start, BTBEntry &out);

    /** Non-destructive probe. */
    bool contains(Addr bb_start) const;

    std::size_t capacity() const { return entries_.size(); }
    std::size_t occupancy() const;
    std::uint64_t hits() const { return hits_; }
    std::uint64_t inserts() const { return inserts_; }

    /** Valid entries overwritten before a front-end hit extracted them. */
    std::uint64_t evictions() const { return evictions_; }

    void clear();

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);

    /** Lowest slot below `limit` holding bb_start, or kNone. */
    std::uint32_t findSlot(Addr bb_start, std::uint32_t limit) const;

    /** Lowest empty slot, or capacity() when full. */
    std::uint32_t firstEmpty() const;

    std::size_t
    bucketOf(Addr bb_start) const
    {
        return static_cast<std::size_t>(bb_start >> 2) & bucketMask_;
    }

    /** Drop an occupied slot from its bucket and the LRU list. */
    void release(std::uint32_t slot);
    void linkNewest(std::uint32_t slot);

    /**
     * Every operation is O(1) in the capacity (for up to 64 slots;
     * bitsets take one word per 64): the scan order the insert rule
     * is defined by is recovered from bitsets over the slots instead
     * of a walk. Slot sets are `words_` 64-bit words, slot s at bit
     * s % 64 of word s / 64:
     *  - emptyBits_: the empty slots;
     *  - bucketBits_: per hash bucket of bbStart, the occupied slots
     *    whose bbStart falls in it, so finding the lowest slot
     *    holding a block checks only same-bucket slots, in order;
     *  - older_/newer_: a doubly linked list of the occupied slots by
     *    last insert or refresh, oldest_ first (the LRU victim).
     */
    std::size_t words_;
    std::size_t bucketMask_;
    std::vector<BTBEntry> entries_;
    std::vector<std::uint64_t> emptyBits_;
    std::vector<std::uint64_t> bucketBits_;
    std::vector<std::uint32_t> older_;
    std::vector<std::uint32_t> newer_;
    std::uint32_t oldest_ = kNone;
    std::uint32_t newest_ = kNone;
    std::uint64_t hits_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_BTB_PREFETCH_BUFFER_HH
