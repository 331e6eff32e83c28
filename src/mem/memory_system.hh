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

#include <array>
#include <memory>
#include <unordered_map>
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
        noteHome(space, info);
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
     * blocked accesses.
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

    /** Home slice of the *physical* line at @p pa (for writebacks). */
    CoreId homeOfPhys(Addr pa) const;

    /** Count of accesses rejected by the region check. */
    std::uint64_t blockedAccesses() const
    {
        return stats_.value("blocked_accesses");
    }

  private:
    struct NotedHome; // defined with the data members below

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
     * (dirty forwarding, invalidations), DRAM fetch, L1 fill and victim
     * writeback. @p res carries the flags accumulated so far (tlbHit);
     * @p t is the time after the L1 lookup.
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
                    const CoreId home = homeFromInfo(space, info, line_pa);
                    t = upgradeLine(core, line_pa, home, t, cluster);
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
     * TLB entry is installed and no home is noted for blocked accesses
     * (see accessSlow()).
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

    /** The home L2 slice's copy of the line at @p line_pa, if it still
     *  caches it. */
    CacheLine *
    homeLine(Addr line_pa)
    {
        return l2s_[homeOfPhys(line_pa)]->findLine(line_pa);
    }

    /** Write back a dirty L1 victim into @p home_line, its home L2
     *  slice's copy, or to its controller when that is null. */
    void writebackVictim(const CacheLine &victim, CacheLine *home_line,
                         Cycle when);

    /** Handle an eviction from an L2 slice (back-invalidation). */
    void handleL2Eviction(const CacheLine &victim, Cycle when);

    /**
     * Record the homing information of @p info's page. Inline — it runs
     * once per (allowed) access, on the fast path.
     *
     * Direct-mapped skip: consecutive accesses stay on a handful of
     * pages, so most calls would repeat the exact map operation a recent
     * call already performed (idempotent either way: same-key
     * try_emplace for local homing, same-key erase for hash homing).
     * Physical pages are never shared between address spaces, and a
     * page always lands in the same slot, so a repeat of the same
     * (mode, ppage, home) triple cannot mask another update.
     */
    void
    noteHome(const AddressSpace &space, const PageInfo &info)
    {
        const HomingMode mode = space.homingMode();
        // Hash-homed pages are never *in* the map; the only bookkeeping
        // a hash-mode access can owe is erasing a stale local entry, so
        // with an empty map (the default configuration) there is nothing
        // to record at all.
        if (mode == HomingMode::HASH_FOR_HOMING &&
            localHomeByPpage_.empty()) {
            return;
        }
        NotedHome &slot = noted_[notedSlot(info.ppage)];
        if (info.ppage == slot.ppage && mode == slot.mode &&
            info.homeSlice == slot.home) {
            return;
        }
        noteHomeSlow(slot, mode, info);
    }

    /**
     * noted_ slot of physical page @p ppage: its page number, with the
     * DRAM region number in the top three index bits. A space's pages
     * round-robin over its regions, so pages touched together often
     * share an in-region ordinal and differ only in their region.
     */
    unsigned
    notedSlot(Addr ppage) const
    {
        return static_cast<unsigned>(
            ((ppage >> pageShift_) ^ (Addr(regionOf(ppage)) << 5)) &
            (NOTED_SLOTS - 1));
    }

    /** The map-updating tail of noteHome() (new/changed page). */
    void noteHomeSlow(NotedHome &slot, HomingMode mode,
                      const PageInfo &info);

    /**
     * Home slice of the line at @p line_pa, derived from the PageInfo the
     * access already fetched — unlike AddressSpace::homeOf(), this never
     * re-walks the page table.
     */
    CoreId
    homeFromInfo(const AddressSpace &space, const PageInfo &info,
                 Addr line_pa) const
    {
        if (space.homingMode() == HomingMode::LOCAL_HOMING)
            return info.homeSlice;
        return Homing::hashHome(line_pa, space.allowedSlices());
    }

    const SysConfig &cfg_;
    const Topology &topo_;
    Network &net_;
    PhysAllocator alloc_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    std::vector<std::unique_ptr<MemController>> mcs_;
    std::vector<McId> regionMc_;
    /** ppage -> (LOCAL home slice) or absent for hash-homed pages. */
    std::unordered_map<Addr, CoreId> localHomeByPpage_;
    /** Recent noteHome() operations (direct-mapped skip of idempotent
     *  repeats). The sentinel ppage is not page-aligned, so an empty
     *  slot never matches. */
    struct NotedHome
    {
        Addr ppage = ~Addr(0);
        HomingMode mode = HomingMode::HASH_FOR_HOMING;
        CoreId home = 0;
    };
    static constexpr unsigned NOTED_SLOTS = 256;
    std::array<NotedHome, NOTED_SLOTS> noted_;
    unsigned pageShift_ = 0; ///< log2(cfg.pageBytes)
    std::vector<CoreId> allSlices_;
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
