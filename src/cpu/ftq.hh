/**
 * @file
 * Fetch Target Queue: the decoupling queue between the branch
 * prediction unit and the fetch engine (FDIP's central structure,
 * reused by Boomerang and Shotgun). Entries are dynamic basic blocks
 * on the predicted (here: architecturally correct) path; prefetch
 * probes are issued as entries are inserted.
 */

#ifndef SHOTGUN_CPU_FTQ_HH
#define SHOTGUN_CPU_FTQ_HH

#include "common/logging.hh"
#include "common/ring.hh"
#include "trace/instruction.hh"

namespace shotgun
{

/** One FTQ entry: a basic block plus fetch progress. */
struct FTQEntry
{
    BBRecord record;
    std::uint8_t fetched = 0;  ///< Instructions already delivered.
    Addr pendingBlock = 0;     ///< Block currently being waited on.
    bool blockReady = false;   ///< Current block verified in L1-I.
};

class FTQ
{
  public:
    explicit FTQ(std::size_t entries) : queue_(entries)
    {
        fatal_if(entries == 0, "FTQ needs at least one entry");
    }

    bool full() const { return queue_.full(); }
    bool empty() const { return queue_.empty(); }
    std::size_t size() const { return queue_.size(); }
    std::size_t capacity() const { return queue_.capacity(); }

    void
    push(const BBRecord &record)
    {
        panic_if(full(), "FTQ overflow");
        FTQEntry entry;
        entry.record = record;
        queue_.push_back(entry);
    }

    FTQEntry &front() { return queue_.front(); }
    void pop() { queue_.pop_front(); }
    void clear() { queue_.clear(); }

  private:
    Ring<FTQEntry> queue_;
};

} // namespace shotgun

#endif // SHOTGUN_CPU_FTQ_HH
