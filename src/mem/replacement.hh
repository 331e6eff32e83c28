/**
 * @file
 * Replacement policies for set-associative structures. A policy instance
 * manages the metadata of every set of one cache; ways are identified by
 * (set, way) pairs. Policies are deliberately stateless about tags so the
 * cache model owns all tag/valid bookkeeping.
 *
 * A flush needs no policy reset. victim() runs only on a set whose ways
 * are all valid, and a way becomes valid only through a fill, which
 * touches it; so by the time a flushed set next picks a victim, every
 * way's state was written after the flush. LRU compares those stamps,
 * whose order does not depend on where the tick counter stands. In
 * tree-PLRU the fills rewrite every node on a real way's path, and the
 * nodes that lead only to padding ways are never written at all.
 * Random keeps no per-way state.
 */

#ifndef IH_MEM_REPLACEMENT_HH
#define IH_MEM_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hh"

namespace ih
{

/** Abstract replacement policy over a (numSets x assoc) structure. */
class ReplacementPolicy
{
  public:
    ReplacementPolicy(unsigned num_sets, unsigned assoc)
        : numSets_(num_sets), assoc_(assoc)
    {
    }
    virtual ~ReplacementPolicy() = default;

    /** Record a hit/fill touch of @p way in @p set. */
    virtual void touch(unsigned set, unsigned way) = 0;

    /** Choose the victim way in @p set (all ways valid). */
    virtual unsigned victim(unsigned set) = 0;

    virtual const char *name() const = 0;

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** Factory: @p kind is one of "lru", "plru", "random". */
    static std::unique_ptr<ReplacementPolicy>
    create(const std::string &kind, unsigned num_sets, unsigned assoc,
           std::uint64_t seed = 1);

  protected:
    unsigned numSets_;
    unsigned assoc_;
};

/** True LRU via per-way timestamps. */
class LruPolicy : public ReplacementPolicy
{
  public:
    LruPolicy(unsigned num_sets, unsigned assoc);

    void touch(unsigned set, unsigned way) override;
    unsigned victim(unsigned set) override;
    const char *name() const override { return "lru"; }

    /**
     * Inline, assert-free touch for callers that already guarantee
     * (set, way) is in range — the cache's per-hit fast path, which
     * holds a devirtualized LruPolicy pointer.
     */
    void
    touchFast(unsigned set, unsigned way)
    {
        stamp_[static_cast<std::size_t>(set) * assoc_ + way] = ++tick_;
    }

  private:
    std::vector<std::uint64_t> stamp_;
    std::uint64_t tick_ = 0;
};

/** Tree pseudo-LRU (assoc rounded up to a power of two internally). */
class TreePlruPolicy : public ReplacementPolicy
{
  public:
    TreePlruPolicy(unsigned num_sets, unsigned assoc);

    void touch(unsigned set, unsigned way) override;
    unsigned victim(unsigned set) override;
    const char *name() const override { return "plru"; }

  private:
    unsigned treeSlots_;
    std::vector<std::uint8_t> bits_;
};

/** Random replacement (deterministic given the seed). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(unsigned num_sets, unsigned assoc, std::uint64_t seed);

    void touch(unsigned set, unsigned way) override;
    unsigned victim(unsigned set) override;
    const char *name() const override { return "random"; }

  private:
    Rng rng_;
};

} // namespace ih

#endif // IH_MEM_REPLACEMENT_HH
