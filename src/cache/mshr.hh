/**
 * @file
 * Miss Status Holding Registers: track in-flight fills keyed by block
 * number, with completion times. Demand accesses piggyback on
 * in-flight prefetches of the same block (that is what makes a late
 * prefetch still partially useful -- the "in-flight prefetches"
 * effect the paper's stall-cycle metric captures).
 */

#ifndef SHOTGUN_CACHE_MSHR_HH
#define SHOTGUN_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace shotgun
{

/**
 * A fixed array of `capacity` entries searched linearly (the file is
 * small: 64 entries in Table 3), with the earliest readyAt cached so
 * the per-cycle drain of an idle file is one compare.
 */
class MSHRFile
{
  public:
    struct Entry
    {
        Addr block = 0;
        Cycle readyAt = 0;
        bool isPrefetch = false;
        bool demandWaiting = false;
    };

    explicit MSHRFile(std::size_t entries = 64);

    /**
     * In-flight entry for the block, or nullptr. Callers may set
     * demandWaiting; readyAt is fixed at allocation. The pointer is
     * valid until the next allocate(), drain() or clear().
     */
    Entry *find(Addr block_number);

    /**
     * Allocate an entry.
     * @return nullptr when the file is full (request must be dropped
     * or retried by the caller).
     */
    Entry *allocate(Addr block_number, Cycle ready_at, bool is_prefetch);

    /**
     * Complete every entry with readyAt <= now, invoking
     * fn(const Entry&) for each, in (readyAt, block) order. An entry
     * fn allocates is completed by the same drain if it is due.
     */
    template <typename Fn>
    void
    drain(Cycle now, Fn &&fn)
    {
        while (size_ > 0 && nextReady_ <= now) {
            std::size_t first = 0;
            for (std::size_t i = 1; i < size_; ++i) {
                const Entry &e = slots_[i];
                const Entry &best = slots_[first];
                if (e.readyAt < best.readyAt ||
                    (e.readyAt == best.readyAt && e.block < best.block))
                    first = i;
            }
            const Entry entry = slots_[first];
            slots_[first] = slots_[--size_];
            refreshNextReady();
            fn(entry);
        }
    }

    /**
     * The earliest readyAt of any in-flight entry, kNever when the
     * file is empty: a drain at any cycle before it completes
     * nothing.
     */
    Cycle nextReady() const { return nextReady_; }

    bool full() const { return size_ >= slots_.size(); }
    std::size_t inFlight() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    void clear();

  private:
    void refreshNextReady();

    /** slots_[0, size_) are the in-flight entries, in no order. */
    std::vector<Entry> slots_;
    std::size_t size_ = 0;
    Cycle nextReady_ = kNever;
};

} // namespace shotgun

#endif // SHOTGUN_CACHE_MSHR_HH
