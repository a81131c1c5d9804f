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
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace shotgun
{

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

    /** In-flight entry for the block, or nullptr. */
    Entry *find(Addr block_number);

    /**
     * Allocate an entry.
     * @return nullptr when the file is full (request must be dropped
     * or retried by the caller).
     */
    Entry *allocate(Addr block_number, Cycle ready_at, bool is_prefetch);

    /**
     * Complete every entry with readyAt <= now, invoking
     * fn(const Entry&) for each, in readiness order.
     */
    template <typename Fn>
    void
    drain(Cycle now, Fn &&fn)
    {
        while (!heap_.empty() && heap_.top().first <= now) {
            const Addr block = heap_.top().second;
            heap_.pop();
            auto it = entries_.find(block);
            // Stale heap nodes (re-allocated blocks) are skipped.
            if (it == entries_.end() || it->second.readyAt > now)
                continue;
            Entry entry = it->second;
            entries_.erase(it);
            fn(entry);
        }
    }

    /**
     * The earliest readyAt of any in-flight entry, kNever when the
     * file is empty: a drain at any cycle before it completes
     * nothing. (A lower bound when a stale heap node is pending,
     * which only makes an idle-cycle fast-forward stop early.)
     */
    Cycle
    nextReady() const
    {
        return heap_.empty() ? kNever : heap_.top().first;
    }

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t inFlight() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    void clear();

  private:
    using HeapItem = std::pair<Cycle, Addr>;

    std::size_t capacity_;
    std::unordered_map<Addr, Entry> entries_;
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        heap_;
};

} // namespace shotgun

#endif // SHOTGUN_CACHE_MSHR_HH
