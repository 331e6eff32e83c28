#include "core/ironhide.hh"

#include <algorithm>

#include "core/mi6.hh"
#include "sim/log.hh"

namespace ih
{

Ironhide::Ironhide(System &sys)
    : SecurityModel(sys, "ironhide"),
      kernel_(sys, MulticoreMi6::defaultVendorKey()),
      regions_(RegionOwnership::evenSplit(sys.config().numRegions))
{
}

ClusterRange
Ironhide::secureCluster() const
{
    return ClusterRange{0, secureCores_};
}

ClusterRange
Ironhide::insecureCluster() const
{
    return ClusterRange{secureCores_, sys_.numTiles() - secureCores_};
}

std::vector<McId>
Ironhide::mcsInCluster(const ClusterRange &range) const
{
    std::vector<McId> out;
    const Topology &topo = sys_.topology();
    for (McId m = 0; m < topo.numMcs(); ++m) {
        if (range.contains(topo.mcAttachTile(m)))
            out.push_back(m);
    }
    return out;
}

std::vector<McId>
Ironhide::secureMcs() const
{
    return mcsInCluster(secureCluster());
}

std::vector<McId>
Ironhide::insecureMcs() const
{
    return mcsInCluster(insecureCluster());
}

void
Ironhide::applySplit(unsigned s)
{
    const unsigned tiles = sys_.numTiles();
    IH_ASSERT(s >= 1 && s < tiles, "secure cluster size %u out of range",
              s);
    secureCores_ = s;

    const std::vector<McId> smc = secureMcs();
    const std::vector<McId> imc = insecureMcs();
    if (smc.empty() || imc.empty())
        fatal("cluster split %u leaves a cluster with no controller", s);

    // Route each domain's DRAM regions to its own controllers only.
    const auto sregions = regions_.regionsOf(Domain::SECURE);
    const auto iregions = regions_.regionsOf(Domain::INSECURE);
    for (std::size_t i = 0; i < sregions.size(); ++i)
        sys_.mem().setRegionController(sregions[i], smc[i % smc.size()]);
    for (std::size_t i = 0; i < iregions.size(); ++i)
        sys_.mem().setRegionController(iregions[i], imc[i % imc.size()]);

    const std::vector<CoreId> stiles = sys_.prefixTiles(s);
    const std::vector<CoreId> itiles = sys_.suffixTiles(s);

    for (Process *p : procs_) {
        p->space().setHomingMode(HomingMode::LOCAL_HOMING);
        if (p->domain() == Domain::SECURE) {
            p->setCores(stiles);
            p->setCluster(secureCluster());
            p->space().setAllowedSlices(stiles);
            p->space().setAllowedRegions(sregions);
        } else {
            p->setCores(itiles);
            p->setCluster(insecureCluster());
            p->space().setAllowedSlices(itiles);
            p->space().setAllowedRegions(iregions);
        }
    }

    sys_.mem().setRegionCheck(regions_.makeCheck());
}

Cycle
Ironhide::configure(const std::vector<Process *> &procs, Cycle t)
{
    procs_ = procs;
    for (Process *p : procs_) {
        if (p->domain() == Domain::SECURE) {
            if (!kernel_.attest(*p, t))
                fatal("IRONHIDE refused unattested secure process '%s'",
                      p->name().c_str());
        }
    }
    // Initial binding: half the machine per cluster unless overridden.
    applySplit(initialSplit_ ? initialSplit_ : sys_.numTiles() / 2);
    return t;
}

Cycle
Ironhide::reconfigure(unsigned secure_cores, Cycle t)
{
    if (secure_cores == secureCores_)
        return t; // binding already optimal: no observable event

    if (reconfigCount_ >= reconfigLimit_) {
        warn("reconfiguration bound (%u) exceeded; scheduling side "
             "channel is no longer constant",
             reconfigLimit_);
    }
    ++reconfigCount_;
    const Cycle t0 = t;

    // The system is stalled for the duration of the event. First scrub
    // the private state of every core changing ownership.
    const unsigned lo = std::min(secure_cores, secureCores_);
    const unsigned hi = std::max(secure_cores, secureCores_);
    std::vector<CoreId> moved;
    for (CoreId c = lo; c < hi; ++c)
        moved.push_back(c);
    t = purge_.privatePurge(moved, t);

    // Re-bind partitions, then migrate page homes off the moved slices
    // (tmc_alloc_unmap / set-home / remap per page).
    applySplit(secure_cores);
    std::uint64_t pages_moved = 0;
    for (Process *p : procs_) {
        pages_moved += sys_.mem().rehomePages(
            p->space(), p->space().allowedSlices());
    }
    t += pages_moved * sys_.config().rehomePerPage;

    // Drain both cluster's controllers so no cross-ownership state
    // survives in the queues.
    t = purge_.drain(allMcs(), t);

    reconfigOverhead_ += t - t0;
    sys_.audit().record(
        AuditKind::RECONFIG, t, INVALID_PROC,
        strprintf("secure_cores=%u pages_moved=%llu", secure_cores,
                  static_cast<unsigned long long>(pages_moved)));
    return t;
}

Cycle
Ironhide::secureAppSwitch(Cycle t)
{
    std::vector<CoreId> stiles = sys_.prefixTiles(secureCores_);
    t = purge_.fullPurge(stiles, secureMcs(), t);
    return t;
}

} // namespace ih
