#include "stats/stats.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "util/string_utils.hh"

namespace mssp::stats
{

Distribution::Distribution(Group *parent, std::string name,
                           std::string desc, double lo, double hi,
                           size_t buckets)
    : name_(std::move(name)), desc_(std::move(desc)), lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      buckets_(buckets, 0)
{
    MSSP_ASSERT(parent != nullptr);
    MSSP_ASSERT(hi > lo && buckets > 0);
    parent->add(this);
}

void
Distribution::sample(double v)
{
    ++count_;
    sum_ += v;
    if (v < lo_) {
        ++underflow_;
    } else if (v >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<size_t>((v - lo_) / width_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        ++buckets_[idx];
    }
}

void
Distribution::format(const std::string &prefix,
                     std::vector<std::array<std::string, 3>> &rows) const
{
    const std::string name = prefix + name_;
    rows.push_back({name,
        strfmt("mean=%.2f n=%llu", mean(),
               static_cast<unsigned long long>(count_)),
        desc_});
    for (size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        double b_lo = lo_ + width_ * static_cast<double>(i);
        rows.push_back({name + strfmt("::[%g,%g)", b_lo, b_lo + width_),
            strfmt("%llu", static_cast<unsigned long long>(buckets_[i])),
            ""});
    }
    if (underflow_) {
        rows.push_back({name + "::underflow",
            strfmt("%llu", static_cast<unsigned long long>(underflow_)),
            ""});
    }
    if (overflow_) {
        rows.push_back({name + "::overflow",
            strfmt("%llu", static_cast<unsigned long long>(overflow_)),
            ""});
    }
}

void
Group::dump(std::ostream &os) const
{
    std::vector<std::array<std::string, 3>> rows;
    for (const Distribution *d : stats_)
        d->format(name_ + ".", rows);
    size_t w0 = 0, w1 = 0;
    for (const auto &r : rows) {
        w0 = std::max(w0, r[0].size());
        w1 = std::max(w1, r[1].size());
    }
    for (const auto &r : rows) {
        os << padRight(r[0], w0 + 2) << padRight(r[1], w1 + 2);
        if (!r[2].empty())
            os << "# " << r[2];
        os << '\n';
    }
}

} // namespace mssp::stats
