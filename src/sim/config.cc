#include "sim/config.hh"

#include <cstdlib>

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

SysConfig &
SysConfig::set(const std::string &key, const std::string &value)
{
    // Strict end-checked parsing (sim/ cannot reach the harness/report
    // helpers — see the docs/ARCHITECTURE.md layer map — so the checks
    // live here): the whole value must be consumed, or the config is a
    // fatal user error. Lenient strtoul turned "4x4" into 4 silently.
    auto as_cyc = [&]() -> Cycle {
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(value.c_str(), &end, 0);
        if (value.empty() || end != value.c_str() + value.size())
            fatal("config key '%s': unparseable value '%s'",
                  key.c_str(), value.c_str());
        return static_cast<Cycle>(v);
    };
    auto as_u = [&]() -> unsigned { return static_cast<unsigned>(as_cyc()); };

    if (key == "meshWidth") meshWidth = as_u();
    else if (key == "meshHeight") meshHeight = as_u();
    else if (key == "numMcs") numMcs = as_u();
    else if (key == "numRegions") numRegions = as_u();
    else if (key == "lineBytes") lineBytes = as_u();
    else if (key == "l1Bytes") l1Bytes = as_u();
    else if (key == "l1Assoc") l1Assoc = as_u();
    else if (key == "l2SliceBytes") l2SliceBytes = as_u();
    else if (key == "l2Assoc") l2Assoc = as_u();
    else if (key == "tlbEntries") tlbEntries = as_u();
    else if (key == "tlbWays") tlbWays = as_u();
    else if (key == "pageBytes") pageBytes = as_u();
    else if (key == "l1Latency") l1Latency = as_cyc();
    else if (key == "l2Latency") l2Latency = as_cyc();
    else if (key == "dramLatency") dramLatency = as_cyc();
    else if (key == "dramRowHitLatency") dramRowHitLatency = as_cyc();
    else if (key == "hopLatency") hopLatency = as_cyc();
    else if (key == "mcServiceInterval") mcServiceInterval = as_cyc();
    else if (key == "tlbMissLatency") tlbMissLatency = as_cyc();
    else if (key == "sgxEnterExitCycles") sgxEnterExitCycles = as_cyc();
    else if (key == "l1PurgePerLine") l1PurgePerLine = as_cyc();
    else if (key == "pipelineFlushCycles") pipelineFlushCycles = as_cyc();
    else if (key == "rehomePerPage") rehomePerPage = as_cyc();
    else if (key == "seed") seed = as_cyc();
    else if (key == "domains") domains = as_u();
    else
        fatal("unknown config key '%s'", key.c_str());
    return *this;
}

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
    if (domains == 0 || domains > 256)
        fatal("domains must be in [1, 256] (got %u)", domains);
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
