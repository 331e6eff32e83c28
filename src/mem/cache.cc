#include "mem/cache.hh"

#include "sim/log.hh"

namespace ih
{

Cache::Cache(std::string name, unsigned size_bytes, unsigned assoc,
             unsigned line_bytes)
    : name_(std::move(name)), assoc_(assoc), lineBytes_(line_bytes),
      lineMask_(line_bytes - 1), stats_(name_),
      statHits_(stats_.counter("hits")),
      statMisses_(stats_.counter("misses")),
      statFills_(stats_.counter("fills")),
      statEvictions_(stats_.counter("evictions")),
      statDirtyEvictions_(stats_.counter("dirty_evictions")),
      statInvalidations_(stats_.counter("invalidations"))
{
    IH_ASSERT(line_bytes != 0 && (line_bytes & (line_bytes - 1)) == 0,
              "line size must be a power of two");
    IH_ASSERT(assoc != 0, "associativity must be nonzero");
    IH_ASSERT(size_bytes % (line_bytes * assoc) == 0,
              "capacity does not divide into sets");
    numSets_ = size_bytes / (line_bytes * assoc);
    lineShift_ = log2Pow2(line_bytes);
    setMask_ = (numSets_ & (numSets_ - 1)) == 0 ? numSets_ - 1 : 0;
    lines_.resize(static_cast<std::size_t>(numSets_) * assoc_);
    stamp_.assign(lines_.size(), 0);
}

CacheLine &
Cache::lineAt(unsigned set, unsigned way)
{
    return lines_[static_cast<std::size_t>(set) * assoc_ + way];
}

const CacheLine &
Cache::lineAt(unsigned set, unsigned way) const
{
    return lines_[static_cast<std::size_t>(set) * assoc_ + way];
}

unsigned
Cache::lruVictim(unsigned set) const
{
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    unsigned best = 0;
    for (unsigned w = 1; w < assoc_; ++w) {
        if (stamp_[base + w] < stamp_[base + best])
            best = w;
    }
    return best;
}

Eviction
Cache::insert(Addr addr, ProcId proc, Domain domain)
{
    const Addr la = lineAddrOf(addr);
    const unsigned set = setOf(la);

    Eviction ev;
    unsigned way = assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        CacheLine &line = lineAt(set, w);
        IH_DEBUG_ASSERT(!(line.valid && line.lineAddr == la),
                        "insert of already-present line %#llx",
                        static_cast<unsigned long long>(la));
        if (!line.valid && way == assoc_) {
            way = w;
#ifdef NDEBUG
            // Release builds stop at the first free way; the rest of the
            // scan only feeds the duplicate-line assert above.
            break;
#endif
        }
    }
    if (way == assoc_) {
        way = lruVictim(set);
        CacheLine &victim = lineAt(set, way);
        ev.happened = true;
        ev.victim = victim;
        statEvictions_.inc();
        if (victim.dirty)
            statDirtyEvictions_.inc();
    } else {
        ++valid_; // a free way: the fill adds a line, an eviction doesn't
    }

    CacheLine &line = lineAt(set, way);
    line.lineAddr = la;
    line.valid = true;
    line.dirty = false;
    line.writable = false;
    line.sharers = 0;
    line.owner = INVALID_CORE;
    line.ownerProc = proc;
    line.ownerDomain = domain;
    touch(set, way);
    statFills_.inc();
    ev.filled = &line;
    return ev;
}

std::optional<CacheLine>
Cache::invalidateLine(Addr addr)
{
    const Addr la = lineAddrOf(addr);
    const unsigned set = setOf(la);
    for (unsigned w = 0; w < assoc_; ++w) {
        CacheLine &line = lineAt(set, w);
        if (line.valid && line.lineAddr == la) {
            CacheLine copy = line;
            line.valid = false;
            --valid_;
            statInvalidations_.inc();
            return copy;
        }
    }
    return std::nullopt;
}

void
Cache::noteFlush(unsigned lines)
{
    stats_.lazyCounter(statFlushes_, "flushes").inc();
    stats_.lazyCounter(statFlushedLines_, "flushed_lines").inc(lines);
}

unsigned
Cache::validLines() const
{
    unsigned n = 0;
    for (const auto &line : lines_)
        n += line.valid ? 1 : 0;
    return n;
}

unsigned
Cache::validLinesOf(Domain domain) const
{
    unsigned n = 0;
    for (const auto &line : lines_)
        n += (line.valid && line.ownerDomain == domain) ? 1 : 0;
    return n;
}

unsigned
Cache::validLinesOfProc(ProcId proc) const
{
    unsigned n = 0;
    for (const auto &line : lines_)
        n += (line.valid && line.ownerProc == proc) ? 1 : 0;
    return n;
}

} // namespace ih
