#include "btb/prefetch_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace shotgun
{

namespace
{

void
setBit(std::uint64_t *bits, std::uint32_t slot)
{
    bits[slot / 64] |= std::uint64_t(1) << (slot % 64);
}

void
clearBit(std::uint64_t *bits, std::uint32_t slot)
{
    bits[slot / 64] &= ~(std::uint64_t(1) << (slot % 64));
}

} // namespace

BTBPrefetchBuffer::BTBPrefetchBuffer(std::size_t entries)
    : words_((entries + 63) / 64), entries_(entries),
      emptyBits_(words_), older_(entries), newer_(entries)
{
    fatal_if(entries == 0, "BTB prefetch buffer needs entries");
    std::size_t buckets = 64;
    while (buckets < 2 * entries)
        buckets *= 2;
    bucketMask_ = buckets - 1;
    bucketBits_.assign(buckets * words_, 0);
    clear();
}

std::uint32_t
BTBPrefetchBuffer::findSlot(Addr bb_start, std::uint32_t limit) const
{
    const std::uint64_t *bits = &bucketBits_[bucketOf(bb_start) * words_];
    for (std::size_t w = 0; w < words_; ++w) {
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
            const auto slot = static_cast<std::uint32_t>(
                w * 64 + __builtin_ctzll(word));
            if (slot >= limit)
                return kNone;
            if (entries_[slot].bbStart == bb_start)
                return slot;
        }
    }
    return kNone;
}

std::uint32_t
BTBPrefetchBuffer::firstEmpty() const
{
    for (std::size_t w = 0; w < words_; ++w) {
        if (emptyBits_[w] != 0)
            return static_cast<std::uint32_t>(
                w * 64 + __builtin_ctzll(emptyBits_[w]));
    }
    return static_cast<std::uint32_t>(entries_.size());
}

void
BTBPrefetchBuffer::release(std::uint32_t slot)
{
    clearBit(&bucketBits_[bucketOf(entries_[slot].bbStart) * words_],
             slot);
    const std::uint32_t older = older_[slot];
    const std::uint32_t newer = newer_[slot];
    (older == kNone ? oldest_ : newer_[older]) = newer;
    (newer == kNone ? newest_ : older_[newer]) = older;
}

void
BTBPrefetchBuffer::linkNewest(std::uint32_t slot)
{
    older_[slot] = newest_;
    newer_[slot] = kNone;
    (newest_ == kNone ? oldest_ : newer_[newest_]) = slot;
    newest_ = slot;
    setBit(&bucketBits_[bucketOf(entries_[slot].bbStart) * words_], slot);
}

void
BTBPrefetchBuffer::insert(const BTBEntry &entry)
{
    ++inserts_;
    // The rule is a walk over the slots in order that stops at the
    // first live copy of the block (refresh it) or the first empty
    // slot (fill it); only a full buffer without the block evicts.
    const std::uint32_t empty = firstEmpty();
    std::uint32_t slot = findSlot(entry.bbStart, empty);
    if (slot != kNone) {
        release(slot);
    } else if (empty < entries_.size()) {
        slot = empty;
        clearBit(emptyBits_.data(), slot);
    } else {
        slot = oldest_;
        release(slot);
        ++evictions_;
    }
    entries_[slot] = entry;
    linkNewest(slot);
}

bool
BTBPrefetchBuffer::extract(Addr bb_start, BTBEntry &out)
{
    const std::uint32_t slot =
        findSlot(bb_start, static_cast<std::uint32_t>(entries_.size()));
    if (slot == kNone)
        return false;
    out = entries_[slot];
    release(slot);
    setBit(emptyBits_.data(), slot);
    ++hits_;
    return true;
}

bool
BTBPrefetchBuffer::contains(Addr bb_start) const
{
    return findSlot(bb_start, static_cast<std::uint32_t>(
                                  entries_.size())) != kNone;
}

std::size_t
BTBPrefetchBuffer::occupancy() const
{
    std::size_t empty = 0;
    for (const std::uint64_t word : emptyBits_)
        empty += static_cast<std::size_t>(__builtin_popcountll(word));
    return entries_.size() - empty;
}

void
BTBPrefetchBuffer::clear()
{
    std::fill(bucketBits_.begin(), bucketBits_.end(), 0);
    std::fill(emptyBits_.begin(), emptyBits_.end(), 0);
    for (std::uint32_t slot = 0; slot < entries_.size(); ++slot)
        setBit(emptyBits_.data(), slot);
    oldest_ = newest_ = kNone;
}

} // namespace shotgun
