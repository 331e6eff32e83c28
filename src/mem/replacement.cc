#include "mem/replacement.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

std::unique_ptr<ReplacementPolicy>
ReplacementPolicy::create(const std::string &kind, unsigned num_sets,
                          unsigned assoc, std::uint64_t seed)
{
    if (kind == "lru")
        return std::make_unique<LruPolicy>(num_sets, assoc);
    if (kind == "plru")
        return std::make_unique<TreePlruPolicy>(num_sets, assoc);
    if (kind == "random")
        return std::make_unique<RandomPolicy>(num_sets, assoc, seed);
    fatal("unknown replacement policy '%s'", kind.c_str());
}

LruPolicy::LruPolicy(unsigned num_sets, unsigned assoc)
    : ReplacementPolicy(num_sets, assoc),
      stamp_(static_cast<std::size_t>(num_sets) * assoc, 0)
{
}

void
LruPolicy::touch(unsigned set, unsigned way)
{
    IH_ASSERT(set < numSets_ && way < assoc_, "lru touch out of range");
    touchFast(set, way);
}

unsigned
LruPolicy::victim(unsigned set)
{
    IH_ASSERT(set < numSets_, "lru victim out of range");
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    unsigned best = 0;
    for (unsigned w = 1; w < assoc_; ++w) {
        if (stamp_[base + w] < stamp_[base + best])
            best = w;
    }
    return best;
}

namespace
{

unsigned
ceilPow2(unsigned v)
{
    unsigned p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

TreePlruPolicy::TreePlruPolicy(unsigned num_sets, unsigned assoc)
    : ReplacementPolicy(num_sets, assoc), treeSlots_(ceilPow2(assoc)),
      bits_(static_cast<std::size_t>(num_sets) * treeSlots_, 0)
{
}

void
TreePlruPolicy::touch(unsigned set, unsigned way)
{
    IH_ASSERT(set < numSets_ && way < assoc_, "plru touch out of range");
    // Walk from root to the leaf for 'way', pointing each node away from
    // the path taken.
    std::uint8_t *tree = &bits_[static_cast<std::size_t>(set) * treeSlots_];
    unsigned node = 1;
    unsigned span = treeSlots_;
    unsigned lo = 0;
    while (span > 1) {
        span /= 2;
        const bool right = way >= lo + span;
        tree[node] = right ? 0 : 1; // point away from the touched half
        node = node * 2 + (right ? 1 : 0);
        if (right)
            lo += span;
    }
}

unsigned
TreePlruPolicy::victim(unsigned set)
{
    IH_ASSERT(set < numSets_, "plru victim out of range");
    std::uint8_t *tree = &bits_[static_cast<std::size_t>(set) * treeSlots_];
    unsigned node = 1;
    unsigned span = treeSlots_;
    unsigned lo = 0;
    while (span > 1) {
        span /= 2;
        const bool right = tree[node] != 0;
        node = node * 2 + (right ? 1 : 0);
        if (right)
            lo += span;
    }
    // Clamp to real associativity (tree may cover padded ways).
    return std::min(lo, assoc_ - 1);
}

RandomPolicy::RandomPolicy(unsigned num_sets, unsigned assoc,
                           std::uint64_t seed)
    : ReplacementPolicy(num_sets, assoc), rng_(seed)
{
}

void
RandomPolicy::touch(unsigned, unsigned)
{
}

unsigned
RandomPolicy::victim(unsigned set)
{
    IH_ASSERT(set < numSets_, "random victim out of range");
    return static_cast<unsigned>(rng_.nextRange(assoc_));
}

} // namespace ih
