// The approved idiom for every rule; must lint clean.
//
//  - ordered std::map iteration (deterministic order);
//  - unordered_map used for lookup only, never iterated;
//  - a knob-registry row that matches its row in the knob table of
//    this directory's README.md (no getenv outside the registry);
//  - comments may name forbidden functions freely: atof, rand(),
//    steady_clock and strtod in this sentence must not trip the lint.
#include <cstdint>
#include <map>
#include <unordered_map>

namespace fixture
{

struct KnobRow
{
    const char *name;
    unsigned long min, max;
    double def;
};

constexpr KnobRow kKnobs[] = {
    {"IRONHIDE_SERVE_SEED", 0, 0xFFFFFFFF, 0xC0FFEE},
};

struct CleanTable
{
    std::map<std::uint64_t, std::uint64_t> ordered_;
    std::unordered_map<std::uint64_t, std::uint64_t> lookupOnly_;

    std::uint64_t
    fold() const
    {
        std::uint64_t n = 0;
        for (const auto &[k, v] : ordered_) // ordered: fine
            n += v;
        auto it = lookupOnly_.find(n); // point lookup: fine
        return it == lookupOnly_.end() ? n : it->second;
    }
};

} // namespace fixture
