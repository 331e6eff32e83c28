/**
 * @file
 * The full memory hierarchy of the simulated multicore, and the single
 * entry point (access()) through which cores issue memory operations.
 *
 * Topology per tile: private L1D + private TLB, plus one shared L2 slice
 * homed at the tile. L2 misses travel over the mesh to the memory
 * controller owning the line's DRAM region. Coherence is MSI with the
 * home L2 line acting as the directory entry; all protocol latencies
 * (invalidation rounds, dirty forwarding, writebacks) are charged to the
 * requesting access.
 *
 * Security hooks:
 *  - a region check installed by the active security model vets every
 *    request against the DRAM-region ownership map (the hardware check
 *    that defuses speculative-state attacks in MI6/IRONHIDE);
 *  - purge operations (purgePrivate, drainControllers) implement the
 *    strong-isolation state scrubbing, *functionally* erasing state so
 *    locality loss is emergent;
 *  - rehomePages implements IRONHIDE's dynamic L2 re-allocation.
 */

#ifndef IH_MEM_MEMORY_SYSTEM_HH
#define IH_MEM_MEMORY_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/mem_controller.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "noc/network.hh"
#include "sim/config.hh"
#include "sim/log.hh"

namespace ih
{

class AuditLog;

/** Outcome of one memory access, for stats and tests. */
struct AccessResult
{
    Cycle finish = 0;     ///< completion time of the access
    bool tlbHit = true;
    bool l1Hit = false;
    bool l2Hit = false;
    bool blocked = false; ///< rejected by the security access check
};

/**
 * The per-access region check: may the given domain touch a line homed
 * in a DRAM region? Installed by the active security model. The rule
 * (RegionOwnership table lookup: the secure domain may touch
 * everything, the insecure domain only insecure-owned regions) compiles
 * down to an array index + compare on the path that runs for every
 * memory access.
 */
class RegionCheck
{
  public:
    /** Default: no check installed; every access is allowed. */
    RegionCheck() = default;

    /** Table-backed check over an ownership map. */
    static RegionCheck
    fromTable(const std::vector<Domain> &owner)
    {
        RegionCheck c;
        c.enabled_ = true;
        c.insecureOk_.resize(owner.size());
        for (std::size_t r = 0; r < owner.size(); ++r)
            c.insecureOk_[r] = owner[r] == Domain::INSECURE ? 1 : 0;
        return c;
    }

    /** Is any check installed? */
    bool enabled() const { return enabled_; }

    /** May @p requester touch a line homed in @p region? */
    bool
    allows(Domain requester, RegionId region) const
    {
        if (!enabled_)
            return true;
        if (requester == Domain::SECURE)
            return region < insecureOk_.size();
        return region < insecureOk_.size() && insecureOk_[region];
    }

  private:
    bool enabled_ = false;
    /** insecureOk_[r] != 0 iff the insecure domain may touch region r. */
    std::vector<std::uint8_t> insecureOk_;
};

/** The machine's cache/TLB/DRAM hierarchy. */
class MemorySystem
{
  public:
    MemorySystem(const SysConfig &cfg, const Topology &topo, Network &net);

    /**
     * Issue one memory operation.
     *
     * Defined inline: the overwhelmingly common case — translation
     * answered by the address space's recent-page cache, a predicted
     * TLB hit, a table region check and an L1 hit — runs straight-line
     * here (and inlines into ExecContext::access()); everything rarer
     * drops out of line into accessSlow() (full TLB lookup, page-walk
     * latency, the blocked-access path) and accessMiss() (L2, directory,
     * DRAM, writebacks). The equivalence with the single-function
     * reference implementation accessReference() is pinned by
     * tests/test_mem_system.cc on a mixed hit/miss/upgrade/blocked
     * trace.
     *
     * @param core    issuing tile
     * @param space   address space of the issuing process
     * @param va      virtual address
     * @param op      LOAD / STORE / IFETCH
     * @param when    issue time
     * @param cluster cluster range whose routing rules the traffic obeys
     */
    AccessResult
    access(CoreId core, AddressSpace &space, VAddr va, MemOp op,
           Cycle when, const ClusterRange &cluster)
    {
        IH_ASSERT(core < l1s_.size(), "access from core %u out of range",
                  core);
        statAccesses_.inc();
        const PageInfo &info = space.ensureMapped(va);
        TlbEntry *te = tlbs_[core]->lookupPredicted(va, space.proc());
        if (!te)
            return accessSlow(core, space, info, va, op, when, cluster);
        const Addr pa =
            info.ppage + (va & static_cast<VAddr>(cfg_.pageBytes - 1));
        if (!regionCheck_.allows(space.domain(), regionOf(pa)))
            return blockedResult(space.proc(), /*tlb_hit=*/true, when);
        return accessL1(core, space, info, pa, op, when, cluster,
                        /*tlb_hit=*/true);
    }

    /**
     * Reference implementation of access(): the pre-split straight-line
     * front half (full TLB lookup, region check, L1 stage in source
     * order), kept (like Router::path() for the routing walks) so the
     * predictor-probe dispatch and early-outs of the split access() can
     * be regression-tested against it — identical AccessResult and
     * identical counters on any trace. The miss machinery is shared
     * (accessMiss() was moved, not duplicated). Semantics match
     * access() exactly, including the check-before-TLB-fill rule for
     * blocked accesses; a store upgrade asks the home rule
     * (AddressSpace::lineHome) where access() reads the home its L1
     * line recorded, so the two paths also cross-check that record.
     */
    AccessResult accessReference(CoreId core, AddressSpace &space,
                                 VAddr va, MemOp op, Cycle when,
                                 const ClusterRange &cluster);

    // --- Security / reconfiguration operations --------------------------

    /** Install the per-access region check. */
    void setRegionCheck(RegionCheck check)
    {
        regionCheck_ = std::move(check);
    }

    /**
     * Attach the security audit log (or detach with nullptr). Once
     * attached, every access rejected by the region check is counted as
     * an ACCESS_BLOCKED audit event — the *only* architecturally
     * visible trace a blocked probe may leave. The MemorySystem can be
     * driven standalone (stats-parity, unit rigs) with no log attached.
     */
    void setAuditLog(AuditLog *audit) { audit_ = audit; }

    /**
     * Flush-and-invalidate the private L1 and TLB of every core in
     * @p cores, starting at @p when; purges run in parallel across
     * cores. @return completion time.
     */
    Cycle purgePrivate(const std::vector<CoreId> &cores, Cycle when);

    /** Drain the queues/buffers of the given controllers (parallel). */
    Cycle drainControllers(const std::vector<McId> &mcs, Cycle when);

    /**
     * Re-home every page of @p space onto @p new_slices and invalidate
     * the moved lines from their old L2 homes (IRONHIDE reconfiguration).
     * @return number of pages whose home changed.
     */
    std::uint64_t rehomePages(AddressSpace &space,
                              const std::vector<CoreId> &new_slices);

    /** Map DRAM region @p region to controller @p mc. */
    void setRegionController(RegionId region, McId mc);

    /** Controller currently serving @p region. */
    McId regionController(RegionId region) const;

    // --- Component access ------------------------------------------------

    Cache &l1(CoreId core) { return *l1s_[core]; }
    Cache &l2(CoreId slice) { return *l2s_[slice]; }
    Tlb &tlb(CoreId core) { return *tlbs_[core]; }
    MemController &mc(McId id) { return *mcs_[id]; }
    PhysAllocator &allocator() { return alloc_; }
    unsigned numTiles() const { return static_cast<unsigned>(l1s_.size()); }
    unsigned numMcs() const { return static_cast<unsigned>(mcs_.size()); }

    /** Aggregate stats over all of a domain's traffic. */
    StatGroup &stats() { return stats_; }

    /** Count of accesses rejected by the region check. */
    std::uint64_t blockedAccesses() const
    {
        return stats_.value("blocked_accesses");
    }

  private:
    /**
     * Slow half of access(): the way-predictor probe missed, so finish
     * the TLB lookup with the set scan, charge the page walk on a real
     * miss, run the region check (before any TLB fill — see the comment
     * in the implementation) and rejoin the common L1 stage.
     */
    AccessResult accessSlow(CoreId core, AddressSpace &space,
                            const PageInfo &info, VAddr va, MemOp op,
                            Cycle when, const ClusterRange &cluster);

    /**
     * Miss machinery of access(): L2 home lookup, directory actions
     * (dirty forwarding, invalidations), DRAM fetch, L1 fill (which
     * records the line's home) and victim writeback. @p res carries the
     * flags accumulated so far (tlbHit); @p t is the time after the L1
     * lookup.
     */
    AccessResult accessMiss(CoreId core, AddressSpace &space,
                            const PageInfo &info, Addr pa, MemOp op,
                            Cycle t, const ClusterRange &cluster,
                            AccessResult res);

    /**
     * The shared-state journey of an L1 miss, from the post-L1-lookup
     * time @p t to the moment the home slice can send the data response:
     * request traverse, L2 lookup (controller fetch or dirty forward),
     * store invalidations, sharer-bit update. Sets @p l2_hit on an L2
     * hit and leaves it untouched otherwise.
     *
     * The dirty forward looks only at the directory owner's L1, so its
     * cost does not grow with the sharer count. A STORE makes the
     * requester the owner; the forward step clears the owner once it
     * has looked.
     */
    Cycle missProtocol(CoreId core, Addr pa, MemOp op, Cycle t,
                       const ClusterRange &cluster, CoreId home,
                       ProcId proc, Domain domain, bool &l2_hit);

    /**
     * The one-dirty-sharer invariant, by a scan of every sharer's L1:
     * no sharer of @p l2_line other than @p requester and the
     * directory owner holds the line dirty. Debug builds check it
     * before each dirty forward.
     */
    bool dirtySharersOwned(const CacheLine &l2_line,
                           CoreId requester) const;

    /**
     * Common L1 stage of access()/accessSlow(): charge the L1 latency
     * and either complete the hit (with a store upgrade when the line
     * is not writable) or fall into accessMiss(). Inline — this is the
     * tail of the fast path.
     */
    AccessResult
    accessL1(CoreId core, AddressSpace &space, const PageInfo &info,
             Addr pa, MemOp op, Cycle when, const ClusterRange &cluster,
             bool tlb_hit)
    {
        AccessResult res;
        res.tlbHit = tlb_hit;
        Cycle t = when + cfg_.l1Latency;
        statL1Accesses_.inc();
        if (CacheLine *line = l1s_[core]->lookup(pa)) {
            res.l1Hit = true;
            if (op == MemOp::STORE) {
                if (!line->writable) {
                    const Addr line_pa =
                        pa & ~static_cast<Addr>(cfg_.lineBytes - 1);
                    t = upgradeLine(core, line_pa, line->home, t, cluster);
                    line->writable = true;
                }
                line->dirty = true;
            }
            res.finish = t;
            return res;
        }
        statL1Misses_.inc();
        return accessMiss(core, space, info, pa, op, t, cluster, res);
    }

    /**
     * Account and build the result of an access rejected by the region
     * check. The request stalls until resolution and is then discarded;
     * the protection fault costs a pipeline-flush-like penalty. No
     * TLB entry is installed for blocked accesses (see accessSlow()).
     */
    AccessResult
    blockedResult(ProcId proc, bool tlb_hit, Cycle t)
    {
        statBlockedAccesses_.inc();
        if (audit_)
            noteBlocked(proc, t);
        AccessResult res;
        res.tlbHit = tlb_hit;
        res.blocked = true;
        res.finish = t + cfg_.pipelineFlushCycles;
        return res;
    }

    /** Out-of-line ACCESS_BLOCKED audit record (AuditLog is only
     *  forward-declared here). */
    void noteBlocked(ProcId proc, Cycle t);

    /** Handle an L1 store hit on a non-writable (shared) line; the
     *  storing core becomes the line's directory owner. */
    Cycle upgradeLine(CoreId core, Addr line_pa, CoreId home, Cycle when,
                      const ClusterRange &cluster);

    /** Invalidate every other L1 copy recorded for @p l2_line. */
    Cycle invalidateSharers(CacheLine &l2_line, CoreId except, CoreId home,
                            Cycle when, const ClusterRange &cluster);

    /**
     * The home L2 line of the L1 copy @p l1_line, on the slice its fill
     * recorded. It is always there: the hierarchy is inclusive (an L2
     * eviction and a re-homing scrub back-invalidate every sharer's
     * copy), and a page's home changes only in that re-homing.
     */
    CacheLine &
    homeLine(const CacheLine &l1_line)
    {
        CacheLine *const line =
            l2s_[l1_line.home]->findLine(l1_line.lineAddr);
        IH_ASSERT(line, "L1 copy of line %#llx outlived its home line "
                        "on slice %u",
                  static_cast<unsigned long long>(l1_line.lineAddr),
                  l1_line.home);
        return *line;
    }

    /** Write a dirty L1 copy back into its home line @p home_line. */
    void
    writeBack(CacheLine &home_line)
    {
        statL1Writebacks_.inc();
        home_line.dirty = true;
    }

    /** Handle an eviction from an L2 slice (back-invalidation). */
    void handleL2Eviction(const CacheLine &victim, Cycle when);

    const SysConfig &cfg_;
    const Topology &topo_;
    Network &net_;
    PhysAllocator alloc_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    std::vector<std::unique_ptr<MemController>> mcs_;
    std::vector<McId> regionMc_;
    RegionCheck regionCheck_;
    AuditLog *audit_ = nullptr;
    StatGroup stats_;
    unsigned dataFlits_;
    // Per-access counters bound once (StatGroup references are stable),
    // so the access path pays a pointer-chase increment instead of a
    // string build + map lookup per event.
    Counter &statAccesses_;
    Counter &statTlbMisses_;
    Counter &statBlockedAccesses_;
    Counter &statL1Accesses_;
    Counter &statL1Misses_;
    Counter &statL2Accesses_;
    Counter &statL2Misses_;
    Counter &statUpgrades_;
    Counter &statInvalidationsSent_;
    Counter &statDirtyForwards_;
    Counter &statL1Writebacks_;
    Counter &statL2Evictions_;
    Counter &statBackInvalidations_;
    // Purge counters bind on the first purge, so a machine never purged
    // lists no purge entries.
    Counter *statPrivatePurges_ = nullptr;
    Counter *statPurgeCycles_ = nullptr;
};

} // namespace ih

#endif // IH_MEM_MEMORY_SYSTEM_HH
