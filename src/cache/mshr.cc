#include "cache/mshr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace shotgun
{

MSHRFile::MSHRFile(std::size_t entries)
    : slots_(entries)
{
    fatal_if(entries == 0, "MSHR file needs at least one entry");
}

MSHRFile::Entry *
MSHRFile::find(Addr block_number)
{
    for (std::size_t i = 0; i < size_; ++i) {
        if (slots_[i].block == block_number)
            return &slots_[i];
    }
    return nullptr;
}

MSHRFile::Entry *
MSHRFile::allocate(Addr block_number, Cycle ready_at, bool is_prefetch)
{
    if (full())
        return nullptr;
    panic_if(find(block_number) != nullptr,
             "MSHR double allocation for block");
    Entry &entry = slots_[size_++];
    entry = Entry{};
    entry.block = block_number;
    entry.readyAt = ready_at;
    entry.isPrefetch = is_prefetch;
    nextReady_ = std::min(nextReady_, ready_at);
    return &entry;
}

void
MSHRFile::refreshNextReady()
{
    nextReady_ = kNever;
    for (std::size_t i = 0; i < size_; ++i)
        nextReady_ = std::min(nextReady_, slots_[i].readyAt);
}

void
MSHRFile::clear()
{
    size_ = 0;
    nextReady_ = kNever;
}

} // namespace shotgun
