// Fixture: a file doing everything right, in scope for every check
// -> zero findings. Ordered containers with value keys, a custom
// comparator for the pointer-keyed set, a complete copy constructor,
// initialized scalars.
#include <cstdint>
#include <map>
#include <set>

namespace fix
{

struct Stable
{
    bool operator()(const int *a, const int *b) const;
};

class Model
{
  public:
    Model() = default;
    Model(const Model &other)
        : table_(other.table_), seed_(other.seed_),
          ptrs_(other.ptrs_)
    {
    }

    std::uint64_t
    sum() const
    {
        std::uint64_t s = 0;
        for (const auto &kv : table_)
            s += kv.second;
        return s;
    }

  private:
    std::map<std::uint64_t, std::uint64_t> table_;
    std::uint64_t seed_ = 1;
    std::set<const int *, Stable> ptrs_;
};

} // namespace fix
