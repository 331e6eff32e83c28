#include "mem/memory_system.hh"

#include <algorithm>

#include "core/audit_log.hh"
#include "mem/directory.hh"
#include "sim/log.hh"

namespace ih
{

MemorySystem::MemorySystem(const SysConfig &cfg, const Topology &topo,
                           Network &net)
    : cfg_(cfg), topo_(topo), net_(net), alloc_(cfg), stats_("mem"),
      statAccesses_(stats_.counter("accesses")),
      statTlbMisses_(stats_.counter("tlb_misses")),
      statBlockedAccesses_(stats_.counter("blocked_accesses")),
      statL1Accesses_(stats_.counter("l1_accesses")),
      statL1Misses_(stats_.counter("l1_misses")),
      statL2Accesses_(stats_.counter("l2_accesses")),
      statL2Misses_(stats_.counter("l2_misses")),
      statUpgrades_(stats_.counter("upgrades")),
      statInvalidationsSent_(stats_.counter("invalidations_sent")),
      statDirtyForwards_(stats_.counter("dirty_forwards")),
      statL1Writebacks_(stats_.counter("l1_writebacks")),
      statL2Evictions_(stats_.counter("l2_evictions")),
      statBackInvalidations_(stats_.counter("back_invalidations"))
{
    const unsigned tiles = topo.numTiles();
    IH_ASSERT(tiles <= Directory::MAX_CORES,
              "machine wider than the 64-bit sharer mask");
    l1s_.reserve(tiles);
    l2s_.reserve(tiles);
    tlbs_.reserve(tiles);
    for (unsigned t = 0; t < tiles; ++t) {
        l1s_.push_back(std::make_unique<Cache>(
            strprintf("l1.%u", t), cfg.l1Bytes, cfg.l1Assoc, cfg.lineBytes,
            "lru", cfg.seed + t));
        l2s_.push_back(std::make_unique<Cache>(
            strprintf("l2.%u", t), cfg.l2SliceBytes, cfg.l2Assoc,
            cfg.lineBytes, "lru", cfg.seed + 1000 + t));
        tlbs_.push_back(std::make_unique<Tlb>(strprintf("tlb.%u", t),
                                              cfg.tlbEntries,
                                              cfg.pageBytes,
                                              cfg.tlbWays));
        allSlices_.push_back(t);
    }
    for (McId m = 0; m < cfg.numMcs; ++m)
        mcs_.push_back(std::make_unique<MemController>(m, cfg));
    // Default: regions interleave over all controllers (insecure/SGX).
    regionMc_.resize(cfg.numRegions);
    for (RegionId r = 0; r < cfg.numRegions; ++r)
        regionMc_[r] = r % cfg.numMcs;
    // 16-byte flits: a 64-byte line is 4 data flits + 1 header.
    dataFlits_ = cfg.lineBytes / 16 + 1;
    pageShift_ = log2Pow2(cfg.pageBytes);
}

void
MemorySystem::setRegionController(RegionId region, McId mc)
{
    IH_ASSERT(region < regionMc_.size(), "region %u out of range", region);
    IH_ASSERT(mc < mcs_.size(), "mc %u out of range", mc);
    regionMc_[region] = mc;
}

McId
MemorySystem::regionController(RegionId region) const
{
    IH_ASSERT(region < regionMc_.size(), "region %u out of range", region);
    return regionMc_[region];
}

void
MemorySystem::noteHomeSlow(NotedHome &slot, HomingMode mode,
                           const PageInfo &info)
{
    slot = NotedHome{info.ppage, mode, info.homeSlice};
    if (mode == HomingMode::LOCAL_HOMING) {
        // One hash probe; the map is only written when the entry is new
        // or a re-homing actually moved the page.
        const auto [it, inserted] =
            localHomeByPpage_.try_emplace(info.ppage, info.homeSlice);
        if (!inserted && it->second != info.homeSlice)
            it->second = info.homeSlice;
    } else if (!localHomeByPpage_.empty()) {
        // Hash-homed spaces never populate the map; skipping the erase
        // when it is empty keeps the (default) hash-homing access path
        // free of any hash-map traffic.
        localHomeByPpage_.erase(info.ppage);
    }
}

CoreId
MemorySystem::homeOfPhys(Addr pa) const
{
    const Addr ppage = pa & ~static_cast<Addr>(cfg_.pageBytes - 1);
    auto it = localHomeByPpage_.find(ppage);
    if (it != localHomeByPpage_.end())
        return it->second;
    const Addr line = pa & ~static_cast<Addr>(cfg_.lineBytes - 1);
    return Homing::hashHome(line, allSlices_);
}

Cycle
MemorySystem::invalidateSharers(CacheLine &l2_line, CoreId except,
                                CoreId home, Cycle when,
                                const ClusterRange &cluster)
{
    Cycle done = when;
    std::uint64_t mask = l2_line.sharers;
    Directory::forEachSharer(mask, [&](CoreId sharer) {
        if (sharer == except)
            return;
        auto dropped = l1s_[sharer]->invalidateLine(l2_line.lineAddr);
        if (dropped && dropped->dirty)
            l2_line.dirty = true; // data folded back into the home slice
        // Invalidation round trip home -> sharer -> home (ack).
        const Cycle t = net_.roundTrip(home, sharer, when, 1, 1, cluster);
        done = std::max(done, t);
        statInvalidationsSent_.inc();
    });
    l2_line.sharers = except == INVALID_CORE
                          ? 0
                          : (l2_line.sharers & Directory::bit(except));
    return done;
}

void
MemorySystem::writebackVictim(const CacheLine &victim, Cycle when)
{
    statL1Writebacks_.inc();
    const CoreId home = homeOfPhys(victim.lineAddr);
    if (CacheLine *l2_line = l2s_[home]->findLine(victim.lineAddr)) {
        l2_line->dirty = true;
    } else {
        // Home no longer caches the line (e.g. it was purged/re-homed):
        // the writeback flows through to the controller.
        const RegionId region = regionOf(victim.lineAddr);
        mcs_[regionMc_[region]]->acceptWrite(victim.lineAddr, when);
    }
}

void
MemorySystem::handleL2Eviction(const CacheLine &victim, Cycle when)
{
    statL2Evictions_.inc();
    bool dirty = victim.dirty;
    // Inclusive hierarchy: back-invalidate every L1 copy.
    Directory::forEachSharer(victim.sharers, [&](CoreId sharer) {
        if (sharer >= l1s_.size())
            return;
        auto dropped = l1s_[sharer]->invalidateLine(victim.lineAddr);
        if (dropped && dropped->dirty)
            dirty = true;
        statBackInvalidations_.inc();
    });
    if (dirty) {
        const RegionId region = regionOf(victim.lineAddr);
        mcs_[regionMc_[region]]->acceptWrite(victim.lineAddr, when);
    }
}

Cycle
MemorySystem::upgradeLine(CoreId core, Addr line_pa, CoreId home,
                          Cycle when, const ClusterRange &cluster)
{
    statUpgrades_.inc();
    // Request permission from the home (1 flit each way).
    Cycle t = net_.traverse(core, home, when, 1, cluster);
    t += cfg_.l2Latency;
    if (CacheLine *l2_line = l2s_[home]->findLine(line_pa)) {
        t = invalidateSharers(*l2_line, core, home, t, cluster);
        l2_line->sharers = Directory::bit(core);
    }
    return net_.traverse(home, core, t, 1, cluster);
}

AccessResult
MemorySystem::accessSlow(CoreId core, AddressSpace &space,
                         const PageInfo &info, VAddr va, MemOp op,
                         Cycle when, const ClusterRange &cluster)
{
    // ---- Translation (way-predictor probe already missed) ----------------
    const ProcId proc = space.proc();
    Cycle t = when;
    bool tlb_hit = true;
    TlbEntry *te = tlbs_[core]->lookupScan(va, proc);
    if (!te) {
        tlb_hit = false;
        t += cfg_.tlbMissLatency; // page walk
        statTlbMisses_.inc();
    }
    const Addr pa = info.ppage + (va & (cfg_.pageBytes - 1));

    // ---- Hardware region access check ------------------------------------
    // Deliberately *before* the TLB fill: on a fault the hardware
    // discards the walked translation instead of installing it, so a
    // blocked access never primes the TLB/way predictor (or, below, the
    // home caches) for a line it was not allowed to touch. The page-walk
    // latency is still charged — the walk had to complete for the
    // region of the physical address to be known. Pinned by the
    // blocked-then-allowed test in tests/test_mem_system.cc.
    if (!checker_.allows(space.domain(), regionOf(pa)))
        return blockedResult(proc, tlb_hit, t);
    if (!te)
        tlbs_[core]->insert(va, info.ppage, proc, space.domain());
    noteHome(space, info);

    return accessL1(core, space, info, pa, op, t, cluster, tlb_hit);
}

void
MemorySystem::noteBlocked(ProcId proc, Cycle t)
{
    audit_->record(AuditKind::ACCESS_BLOCKED, t, proc);
}

Cycle
MemorySystem::missProtocol(CoreId core, Addr pa, MemOp op, Cycle t,
                           const ClusterRange &cluster, CoreId home,
                           ProcId proc, Domain domain, bool &l2_hit)
{
    // ---- L2 home ----------------------------------------------------------
    t = net_.traverse(core, home, t, 1, cluster);
    t += cfg_.l2Latency;
    statL2Accesses_.inc();

    CacheLine *l2_line = l2s_[home]->lookup(pa);
    if (!l2_line) {
        statL2Misses_.inc();
        // ---- Memory controller / DRAM ------------------------------------
        const McId mc_id = regionMc_[regionOf(pa)];
        const CoreId mc_tile = topo_.mcAttachTile(mc_id);
        Cycle tm = net_.traverse(home, mc_tile, t, 1, cluster);
        tm += cfg_.hopLatency; // dedicated MC attachment link
        tm = mcs_[mc_id]->serviceRead(pa, tm, domain);
        tm += cfg_.hopLatency;
        t = net_.traverse(mc_tile, home, tm, dataFlits_, cluster);

        const Eviction ev = l2s_[home]->insert(pa, proc, domain);
        if (ev.happened)
            handleL2Eviction(ev.victim, t);
        l2_line = l2s_[home]->findLine(pa);
        IH_ASSERT(l2_line, "L2 line vanished after insert");
    } else {
        l2_hit = true;
        // Another L1 may own the line dirty; fetch/forward it.
        if (l2_line->sharers != 0 &&
            !Directory::soleSharer(l2_line->sharers, core)) {
            Cycle fwd = t;
            Directory::forEachSharer(l2_line->sharers, [&](CoreId sharer) {
                if (sharer == core)
                    return;
                CacheLine *sl = l1s_[sharer]->findLine(l2_line->lineAddr);
                if (sl && sl->dirty) {
                    // Home -> owner -> home forwarding round.
                    fwd = std::max(fwd, net_.roundTrip(home, sharer, t, 1,
                                                       dataFlits_,
                                                       cluster));
                    sl->dirty = false;
                    sl->writable = false;
                    l2_line->dirty = true;
                    statDirtyForwards_.inc();
                }
            });
            t = fwd;
        }
    }

    // ---- Coherence action for the requested op ----------------------------
    if (op == MemOp::STORE)
        t = invalidateSharers(*l2_line, core, home, t, cluster);
    l2_line->sharers = Directory::addSharer(l2_line->sharers, core);
    return t;
}

AccessResult
MemorySystem::accessMiss(CoreId core, AddressSpace &space,
                         const PageInfo &info, Addr pa, MemOp op, Cycle t,
                         const ClusterRange &cluster, AccessResult res)
{
    const ProcId proc = space.proc();
    const Addr line_pa = pa & ~static_cast<Addr>(cfg_.lineBytes - 1);
    const CoreId home = homeFromInfo(space, info, line_pa);

    t = missProtocol(core, pa, op, t, cluster, home, proc, space.domain(),
                     res.l2Hit);

    // ---- Fill L1 -----------------------------------------------------------
    const Eviction l1_ev = l1s_[core]->insert(pa, proc, space.domain());
    if (l1_ev.happened) {
        if (l1_ev.victim.dirty)
            writebackVictim(l1_ev.victim, t);
        // Keep the directory honest: drop the victim's sharer bit.
        const CoreId vhome = homeOfPhys(l1_ev.victim.lineAddr);
        if (CacheLine *vl = l2s_[vhome]->findLine(l1_ev.victim.lineAddr))
            vl->sharers = Directory::removeSharer(vl->sharers, core);
    }
    CacheLine *l1_line = l1s_[core]->findLine(pa);
    IH_ASSERT(l1_line, "L1 line vanished after insert");
    l1_line->writable = (op == MemOp::STORE);
    l1_line->dirty = (op == MemOp::STORE);

    // ---- Data response ------------------------------------------------------
    t = net_.traverse(home, core, t, dataFlits_, cluster);
    res.finish = t;
    return res;
}

AccessResult
MemorySystem::accessReference(CoreId core, AddressSpace &space, VAddr va,
                              MemOp op, Cycle when,
                              const ClusterRange &cluster)
{
    IH_ASSERT(core < l1s_.size(), "access from core %u out of range", core);
    AccessResult res;
    Cycle t = when;
    statAccesses_.inc();

    // ---- Translation ----------------------------------------------------
    const ProcId proc = space.proc();
    const PageInfo &info = space.ensureMapped(va);
    TlbEntry *te = tlbs_[core]->lookup(va, proc);
    if (!te) {
        res.tlbHit = false;
        t += cfg_.tlbMissLatency; // page walk
        statTlbMisses_.inc();
    }
    const Addr pa = info.ppage + (va & (cfg_.pageBytes - 1));
    const Addr line_pa = pa & ~static_cast<Addr>(cfg_.lineBytes - 1);

    // ---- Hardware region access check (before the TLB fill) --------------
    const RegionId region = regionOf(pa);
    if (!checker_.allows(space.domain(), region)) {
        statBlockedAccesses_.inc();
        if (audit_)
            noteBlocked(proc, t);
        res.blocked = true;
        // The request stalls until resolution and is then discarded; the
        // protection fault costs a pipeline-flush-like penalty.
        res.finish = t + cfg_.pipelineFlushCycles;
        return res;
    }
    if (!te)
        tlbs_[core]->insert(va, info.ppage, proc, space.domain());
    noteHome(space, info);

    // ---- L1 ---------------------------------------------------------------
    t += cfg_.l1Latency;
    statL1Accesses_.inc();
    if (CacheLine *line = l1s_[core]->lookup(pa)) {
        res.l1Hit = true;
        if (op == MemOp::STORE) {
            if (!line->writable) {
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

Cycle
MemorySystem::purgePrivate(const std::vector<CoreId> &cores, Cycle when)
{
    Cycle done = when;
    for (CoreId core : cores) {
        IH_ASSERT(core < l1s_.size(), "purge of core %u out of range", core);
        // Flush-and-invalidate by reading a dummy buffer of L1 size; all
        // dirty lines propagate to their home L2 slice first.
        l1s_[core]->flushAll([&](const CacheLine &line) {
            writebackVictim(line, when);
        });
        const unsigned tlb_entries = tlbs_[core]->capacity();
        tlbs_[core]->flushAll();
        const Cycle cost =
            static_cast<Cycle>(l1s_[core]->capacityLines()) *
                cfg_.l1PurgePerLine +
            static_cast<Cycle>(tlb_entries) * cfg_.tlbPurgePerEntry;
        done = std::max(done, when + cost); // cores purge in parallel
        stats_.counter("private_purges").inc();
    }
    stats_.counter("purge_cycles").inc(done - when);
    return done;
}

Cycle
MemorySystem::drainControllers(const std::vector<McId> &mcs, Cycle when)
{
    Cycle done = when;
    for (McId m : mcs) {
        IH_ASSERT(m < mcs_.size(), "drain of mc %u out of range", m);
        done = std::max(done, mcs_[m]->drain(when));
    }
    return done;
}

std::uint64_t
MemorySystem::rehomePages(AddressSpace &space,
                          const std::vector<CoreId> &new_slices)
{
    const std::uint64_t moved = space.rehomeAll(new_slices);
    // Scrub this space's lines from every slice it no longer homes on
    // (back-invalidating L1 copies, writing dirty data to DRAM). Lines
    // on surviving slices stay valid: their pages kept their home.
    for (CoreId s = 0; s < l2s_.size(); ++s) {
        if (std::find(new_slices.begin(), new_slices.end(), s) !=
            new_slices.end()) {
            continue;
        }
        auto &slice = l2s_[s];
        std::vector<Addr> to_drop;
        slice->forEachLine([&](CacheLine &line) {
            if (line.ownerProc == space.proc())
                to_drop.push_back(line.lineAddr);
        });
        for (Addr a : to_drop) {
            auto dropped = slice->invalidateLine(a);
            if (dropped)
                handleL2Eviction(*dropped, 0);
        }
    }
    // The ppage -> home map refreshes lazily via noteHome on the next
    // access to each page.
    stats_.counter("rehomed_pages").inc(moved);
    return moved;
}

} // namespace ih
