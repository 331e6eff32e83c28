#include "sim/stats.hh"

#include <cmath>

#include "sim/log.hh"

namespace ih
{

Counter &
StatGroup::counter(const std::string &name)
{
    return counters_[name];
}

std::uint64_t
StatGroup::value(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

void
StatGroup::resetAll()
{
    for (auto &[name, c] : counters_)
        c.reset();
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        IH_ASSERT(x > 0.0, "geomean over non-positive value");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
safeDiv(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace ih
