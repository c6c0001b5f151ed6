/**
 * @file
 * A small gem5-flavored histogram package.
 *
 * A Distribution (bucketed histogram over a fixed range with
 * underflow/overflow) registers with a Group, which dumps all of its
 * distributions as one aligned text table. Plain counters live in
 * their owner's registry instead (the machine's: mssp/counters.hh).
 */

#ifndef MSSP_STATS_STATS_HH
#define MSSP_STATS_STATS_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace mssp::stats
{

class Group;

/** Bucketed histogram over [lo, hi) with fixed-width buckets. */
class Distribution
{
  public:
    Distribution(Group *parent, std::string name, std::string desc,
                 double lo, double hi, size_t buckets);

    Distribution(const Distribution &) = delete;
    Distribution &operator=(const Distribution &) = delete;

    void sample(double v);

    uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    uint64_t bucketCount(size_t i) const { return buckets_.at(i); }
    uint64_t underflows() const { return underflow_; }
    uint64_t overflows() const { return overflow_; }

    /** Append (name, value, description) rows for the dump. */
    void format(const std::string &prefix,
                std::vector<std::array<std::string, 3>> &rows) const;

  private:
    std::string name_;
    std::string desc_;
    double lo_;
    double hi_;
    double width_;
    std::vector<uint64_t> buckets_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** A named set of distributions; the name prefixes each row. */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /** Dump every distribution as an aligned table. */
    void dump(std::ostream &os) const;

    /** @internal Registration hook (Distribution's constructor). */
    void add(const Distribution *d) { stats_.push_back(d); }

  private:
    std::string name_;
    std::vector<const Distribution *> stats_;
};

} // namespace mssp::stats

#endif // MSSP_STATS_STATS_HH
