/**
 * @file
 * Lightweight statistics package: scalar counters, averages and
 * fixed-bucket histograms. Inspired by (a tiny fraction of) the gem5
 * stats package.
 */

#ifndef SHOTGUN_COMMON_STATS_HH
#define SHOTGUN_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shotgun
{

/** A named 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;

    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t amount) { value_ += amount; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running average (sum / count) with explicit sampling. */
class Average
{
  public:
    void
    sample(double value)
    {
        sum_ += value;
        ++count_;
    }

    double
    mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Fixed-bucket histogram over [0, buckets); samples beyond the last
 * bucket are accumulated in an overflow bucket.
 */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets = 32)
        : buckets_(buckets, 0)
    {}

    void
    sample(std::size_t value, std::uint64_t weight = 1)
    {
        if (value < buckets_.size())
            buckets_[value] += weight;
        else
            overflow_ += weight;
        total_ += weight;
    }

    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }
    std::size_t numBuckets() const { return buckets_.size(); }

    /** Cumulative fraction of samples in buckets [0, i]. */
    double cumulativeFraction(std::size_t i) const;

    /** Smallest bucket index whose cumulative fraction reaches frac. */
    std::size_t percentileBucket(double frac) const;

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        overflow_ = 0;
        total_ = 0;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace shotgun

#endif // SHOTGUN_COMMON_STATS_HH
