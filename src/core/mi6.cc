#include "core/mi6.hh"

#include "sim/log.hh"

namespace ih
{

SecureKernel::Key
MulticoreMi6::defaultVendorKey()
{
    SecureKernel::Key key{};
    for (unsigned i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 7));
    return key;
}

MulticoreMi6::MulticoreMi6(System &sys)
    : SecurityModel(sys, "mi6"), kernel_(sys, defaultVendorKey()),
      regions_(RegionOwnership::evenSplit(sys.config().numRegions))
{
}

Cycle
MulticoreMi6::configure(const std::vector<Process *> &procs, Cycle t)
{
    // Cores / L1s / TLBs stay time-shared across the whole machine.
    assignWholeMachine(procs);

    // Static partitioning of the shared L2: the secure domain homes its
    // pages on the first half of the slices, the insecure domain on the
    // second half; local homing + no replication keeps each slice
    // single-process.
    const unsigned tiles = sys_.numTiles();
    const std::vector<CoreId> secure_slices = sys_.prefixTiles(tiles / 2);
    const std::vector<CoreId> insecure_slices =
        sys_.suffixTiles(tiles / 2);

    for (Process *p : procs) {
        p->space().setHomingMode(HomingMode::LOCAL_HOMING);
        if (p->domain() == Domain::SECURE) {
            if (!kernel_.attest(*p, t))
                fatal("MI6 refused unattested secure process '%s'",
                      p->name().c_str());
            p->space().setAllowedSlices(secure_slices);
            p->space().setAllowedRegions(
                regions_.regionsOf(Domain::SECURE));
        } else {
            p->space().setAllowedSlices(insecure_slices);
            p->space().setAllowedRegions(
                regions_.regionsOf(Domain::INSECURE));
        }
    }

    // DRAM regions stay interleaved over all (shared) controllers; the
    // hardware region check provides the isolation, the controller
    // queues are purged at each transition instead.
    sys_.mem().setRegionCheck(regions_.makeCheck());
    return t;
}

Cycle
MulticoreMi6::transition(Cycle t)
{
    return purge_.fullPurge(allTiles(), allMcs(), t);
}

} // namespace ih
