#include "sim/config.hh"

#include "sim/log.hh"

namespace ih
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
SysConfig::validate() const
{
    if (!isPow2(lineBytes) || !isPow2(pageBytes))
        fatal("lineBytes and pageBytes must be powers of two");
    if (pageBytes < lineBytes)
        fatal("pageBytes must be >= lineBytes");
    if (!isPow2(l1Bytes) || !isPow2(l2SliceBytes))
        fatal("cache sizes must be powers of two");
    if (l1Assoc == 0 || l2Assoc == 0)
        fatal("associativity must be nonzero");
    if (tlbWays != 0) {
        if (tlbEntries % tlbWays != 0)
            fatal("tlbWays must divide tlbEntries");
        const unsigned sets = tlbEntries / tlbWays;
        if (!isPow2(sets))
            fatal("tlbEntries / tlbWays must be a power of two");
    }
    if (l1Bytes % (lineBytes * l1Assoc) != 0)
        fatal("L1 geometry does not divide into sets");
    if (l2SliceBytes % (lineBytes * l2Assoc) != 0)
        fatal("L2 slice geometry does not divide into sets");
    if (meshWidth == 0 || meshHeight == 0)
        fatal("mesh dimensions must be nonzero");
    if (numMcs == 0 || numMcs % 2 != 0)
        fatal("numMcs must be a nonzero even count (top/bottom edges)");
    if (numRegions % numMcs != 0)
        fatal("numRegions must be a multiple of numMcs");
    if (meshHeight < 2)
        fatal("mesh must have at least two rows to form two clusters");
}

SysConfig
SysConfig::smallTest()
{
    SysConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.numMcs = 2;
    cfg.numRegions = 4;
    cfg.l1Bytes = 4 * 1024;
    cfg.l2SliceBytes = 16 * 1024;
    cfg.tlbEntries = 8;
    cfg.validate();
    return cfg;
}

} // namespace ih
