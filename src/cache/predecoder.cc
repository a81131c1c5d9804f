#include "cache/predecoder.hh"

namespace shotgun
{

Predecoder::Predecoder(const Program &program, unsigned decode_cycles)
    : program_(program), decodeCycles_(decode_cycles)
{
}

const std::vector<BTBEntry> &
Predecoder::decodeBlock(Addr block_number)
{
    ++decoded_;
    program_.blockBranches(block_number, scratch_);
    result_.clear();
    result_.reserve(scratch_.size());
    for (const StaticBBInfo &info : scratch_)
        result_.emplace_back(info);
    return result_;
}

bool
Predecoder::decodeBB(Addr bb_start, BTBEntry &out) const
{
    StaticBBInfo info;
    if (!program_.staticBBAt(bb_start, info))
        return false;
    out = BTBEntry(info);
    return true;
}

} // namespace shotgun
