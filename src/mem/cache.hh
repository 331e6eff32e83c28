/**
 * @file
 * Generic set-associative cache tag store used for both the private L1s
 * and the shared L2 slices. The model is functional over tags (no data
 * payload) and keeps per-line coherence metadata:
 *
 *  - dirty:     line differs from the level below
 *  - writable:  M/E permission (L1 only; L2 lines ignore it)
 *  - sharers:   bitmask of cores holding the line (L2 home lines act as
 *               the MSI directory entry for their address)
 *  - owner:     the core last granted write permission (L2 use): the
 *               only sharer that can hold the line dirty
 *  - home:      the L2 slice the line was filled from (L1 use), where
 *               its write-backs and its eviction's sharer-bit update go
 *  - ownerProc / ownerDomain: the process/domain that installed the line,
 *               used by the purge engine and the isolation audits
 *
 * flushAll()/invalidateLine() really erase state, so locality loss after
 * a purge is an emergent property of the simulation rather than a
 * constant in a cost model.
 *
 * The cache keeps an occupancy count of its valid lines, updated at
 * every validity change (fill, invalidateLine, flushAll), so a flush of
 * an empty cache returns without scanning the tag array. Only this
 * class writes CacheLine::valid; the mutable line pointers it hands out
 * (lookup, findLine, and the filled line insert returns) are for
 * coherence metadata (dirty, writable, sharers, owner, home).
 *
 * Replacement is true LRU over per-way timestamps. A flush needs no LRU
 * reset: a victim is chosen only in a set whose ways are all valid, and
 * a way becomes valid only through a fill, which stamps it; so by the
 * time a flushed set next picks a victim, every way's stamp was written
 * after the flush. The victim is the smallest stamp, and the order of
 * stamps does not depend on where the tick counter stands.
 */

#ifndef IH_MEM_CACHE_HH
#define IH_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ih
{

/** Metadata of one cache line. Wide fields first, so the line packs
 *  into 32 bytes: two lines per host cache line. */
struct CacheLine
{
    Addr lineAddr = 0;    ///< address of the first byte of the line
    std::uint64_t sharers = 0;        ///< directory bitmask (L2 use)
    ProcId ownerProc = INVALID_PROC;
    /** Directory owner (L2 use): the core last granted write
     *  permission, or INVALID_CORE. Every fill resets it. */
    CoreId owner = INVALID_CORE;
    /** Home L2 slice (L1 use), set by the miss that fills the line.
     *  Every fill resets it to INVALID_CORE. */
    CoreId home = INVALID_CORE;
    bool valid = false;
    bool dirty = false;
    bool writable = false;            ///< M/E permission (L1 use)
    Domain ownerDomain = Domain::INSECURE;
};
static_assert(sizeof(CacheLine) == 32, "CacheLine grew past 32 bytes");

/** Result of an insertion: the filled line, and the victim line when
 *  one was evicted. */
struct Eviction
{
    /** The line the insertion filled. It stays this address's line
     *  until the next fill or invalidation in its cache. */
    CacheLine *filled = nullptr;
    bool happened = false;
    CacheLine victim;
};

/** A set-associative, write-back cache tag store. */
class Cache
{
  public:
    /**
     * @param name        stat prefix ("l1.12", "l2.3", ...)
     * @param size_bytes  total capacity
     * @param assoc       ways per set
     * @param line_bytes  line size
     */
    Cache(std::string name, unsigned size_bytes, unsigned assoc,
          unsigned line_bytes);

    /** Align @p addr down to its line address. */
    Addr lineAddrOf(Addr addr) const { return addr & ~lineMask_; }

    /** Set index of @p addr. Shift/mask for the (usual) power-of-two set
     *  count; the division fallback keeps odd test geometries working. */
    unsigned
    setOf(Addr addr) const
    {
        const Addr line = addr >> lineShift_;
        if (setMask_ != 0)
            return static_cast<unsigned>(line & setMask_);
        return static_cast<unsigned>(line % numSets_);
    }

    /**
     * Look up @p addr. On a hit the LRU stamp is touched and a pointer
     * to the (mutable) line is returned; nullptr on miss.
     *
     * Defined inline because this runs several times per simulated
     * memory access.
     */
    CacheLine *
    lookup(Addr addr)
    {
        const Addr la = lineAddrOf(addr);
        const unsigned set = setOf(la);
        CacheLine *const base =
            &lines_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            CacheLine &line = base[w];
            if (line.valid && line.lineAddr == la) {
                touch(set, w);
                statHits_.inc();
                return &line;
            }
        }
        statMisses_.inc();
        return nullptr;
    }

    /** Look up without touching LRU state or stats (probes). */
    const CacheLine *
    peek(Addr addr) const
    {
        const Addr la = lineAddrOf(addr);
        const unsigned set = setOf(la);
        const CacheLine *const base =
            &lines_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].lineAddr == la)
                return &base[w];
        }
        return nullptr;
    }

    /**
     * Mutable lookup that touches neither stats nor LRU state;
     * for protocol bookkeeping (directory updates, writeback folding).
     */
    CacheLine *
    findLine(Addr addr)
    {
        const Addr la = lineAddrOf(addr);
        const unsigned set = setOf(la);
        CacheLine *const base =
            &lines_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].lineAddr == la)
                return &base[w];
        }
        return nullptr;
    }

    /**
     * Insert the line containing @p addr (must not be present), owned
     * by process @p proc of @p domain.
     * @return the filled line, so the caller needs no lookup to reach
     * it, and the eviction performed to make room, if any.
     */
    Eviction insert(Addr addr, ProcId proc, Domain domain);

    /** Invalidate the line containing @p addr if present.
     *  @return the line as it was, when it existed. */
    std::optional<CacheLine> invalidateLine(Addr addr);

    /**
     * Flush-and-invalidate the whole cache. Takes the dirty-line visitor
     * as a template parameter, like Directory::forEachSharer, so the
     * purge loop never type-erases. An empty cache counts the flush and
     * returns without scanning.
     * @param on_dirty invoked for every dirty line written back.
     * @return number of lines that were valid.
     */
    template <typename Fn>
    unsigned
    flushAll(Fn &&on_dirty)
    {
        if (valid_ == 0) {
            IH_DEBUG_ASSERT(validLines() == 0,
                            "%s: occupancy 0 but %u lines valid",
                            name_.c_str(), validLines());
            noteFlush(0);
            return 0;
        }
        unsigned flushed = 0;
        for (auto &line : lines_) {
            if (!line.valid)
                continue;
            ++flushed;
            if (line.dirty)
                on_dirty(std::as_const(line));
            line.valid = false;
        }
        IH_DEBUG_ASSERT(flushed == valid_,
                        "%s: occupancy %u but %u lines valid",
                        name_.c_str(), valid_, flushed);
        valid_ = 0;
        noteFlush(flushed);
        return flushed;
    }

    /** flushAll() with no dirty-line visitor. */
    unsigned
    flushAll()
    {
        return flushAll([](const CacheLine &) {});
    }

    /** Count currently valid lines by scanning the tag array. */
    unsigned validLines() const;

    /** The occupancy count: valid lines, kept without a scan. Always
     *  equal to validLines(). */
    unsigned occupancy() const { return valid_; }

    /** Count valid lines owned by @p domain. */
    unsigned validLinesOf(Domain domain) const;

    /**
     * Count valid lines owned by process @p proc. Read-only observation
     * hook (no stats, no LRU movement): this is the occupancy census a
     * prime+probe attacker takes of its own resident lines, so it must
     * not perturb the state it observes.
     */
    unsigned validLinesOfProc(ProcId proc) const;

    /**
     * Visit every valid line, read-only: a visitor cannot clear a
     * line's valid bit behind the occupancy count's back.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const auto &line : lines_) {
            if (line.valid)
                fn(line);
        }
    }

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }
    unsigned lineBytes() const { return lineBytes_; }
    unsigned capacityLines() const { return numSets_ * assoc_; }

    std::uint64_t hits() const { return stats_.value("hits"); }
    std::uint64_t misses() const { return stats_.value("misses"); }
    double
    missRate() const
    {
        const double total = static_cast<double>(hits() + misses());
        return total == 0.0 ? 0.0 : static_cast<double>(misses()) / total;
    }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    CacheLine &lineAt(unsigned set, unsigned way);
    const CacheLine &lineAt(unsigned set, unsigned way) const;

    /** Record a hit/fill of @p way in @p set (LRU stamp). */
    void
    touch(unsigned set, unsigned way)
    {
        stamp_[static_cast<std::size_t>(set) * assoc_ + way] = ++tick_;
    }

    /** The LRU way of @p set (all ways valid): the oldest stamp. */
    unsigned lruVictim(unsigned set) const;

    /** Count one flush that dropped @p lines valid lines. */
    void noteFlush(unsigned lines);

    std::string name_;
    unsigned numSets_;
    unsigned assoc_;
    unsigned lineBytes_;
    unsigned lineShift_;  ///< log2(lineBytes_)
    unsigned setMask_;    ///< numSets_ - 1 when a power of two, else 0
    Addr lineMask_;
    std::vector<CacheLine> lines_;
    std::vector<std::uint64_t> stamp_; ///< per-way LRU timestamps
    std::uint64_t tick_ = 0;
    mutable StatGroup stats_;
    // Hot-path counters bound once at construction (StatGroup references
    // are stable), so per-access accounting is a plain increment instead
    // of a string build + map lookup.
    Counter &statHits_;
    Counter &statMisses_;
    Counter &statFills_;
    Counter &statEvictions_;
    Counter &statDirtyEvictions_;
    Counter &statInvalidations_;
    // Flush counters bind on the first flush: a cache never flushed
    // lists no flush entries at all.
    Counter *statFlushes_ = nullptr;
    Counter *statFlushedLines_ = nullptr;
    unsigned valid_ = 0; ///< occupancy count (see occupancy())
};

} // namespace ih

#endif // IH_MEM_CACHE_HH
