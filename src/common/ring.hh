/**
 * @file
 * Fixed-capacity FIFO ring buffer for the core's pipeline queues (the
 * FTQ and the backend queue). The slots are one contiguous array
 * sized at construction, so pushing and popping never allocate and
 * copying the ring (a checkpoint clone of the core) copies one array.
 */

#ifndef SHOTGUN_COMMON_RING_HH
#define SHOTGUN_COMMON_RING_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace shotgun
{

template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity) : slots_(capacity) {}

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    void
    push_back(const T &value)
    {
        panic_if(full(), "ring buffer overflow");
        std::size_t tail = head_ + size_;
        if (tail >= slots_.size())
            tail -= slots_.size();
        slots_[tail] = value;
        ++size_;
    }

    void
    pop_front()
    {
        if (++head_ == slots_.size())
            head_ = 0;
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_COMMON_RING_HH
