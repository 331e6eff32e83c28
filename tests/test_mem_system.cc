/**
 * @file
 * Memory-system integration tests: the full access path (TLB -> L1 ->
 * home L2 -> controller -> DRAM), MSI coherence actions, purge
 * semantics, the DRAM-region access check, and page re-homing.
 */

#include <gtest/gtest.h>

#include "core/access_check.hh"
#include "mem/directory.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "sim/rng.hh"

using namespace ih;

namespace
{

struct Rig
{
    SysConfig cfg = SysConfig::smallTest();
    Topology topo{cfg};
    Network net{cfg, topo};
    MemorySystem mem{cfg, topo, net};
    PhysAllocator &alloc = mem.allocator();
    AddressSpace space{cfg, alloc, 1, Domain::SECURE};
    ClusterRange whole{0, topo.numTiles()};

    AccessResult
    acc(CoreId core, VAddr va, MemOp op, Cycle t = 0)
    {
        return mem.access(core, space, va, op, t, whole);
    }
};

/** The check with region 0 secure-owned and every other region
 *  insecure-owned: the insecure domain is denied region 0 only. */
RegionCheck
region0Secure(const SysConfig &cfg)
{
    RegionOwnership own(cfg.numRegions);
    own.assign(0, Domain::SECURE);
    return own.makeCheck();
}

} // namespace

TEST(MemorySystem, ColdAccessMissesEverywhere)
{
    Rig r;
    const AccessResult res = r.acc(0, 0x1000, MemOp::LOAD);
    EXPECT_FALSE(res.tlbHit);
    EXPECT_FALSE(res.l1Hit);
    EXPECT_FALSE(res.l2Hit);
    EXPECT_GT(res.finish, r.cfg.dramLatency); // went to DRAM
}

TEST(MemorySystem, SecondAccessHitsL1)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    const AccessResult res = r.acc(0, 0x1000, MemOp::LOAD, 1000);
    EXPECT_TRUE(res.tlbHit);
    EXPECT_TRUE(res.l1Hit);
    EXPECT_EQ(res.finish, 1000 + r.cfg.l1Latency);
}

TEST(MemorySystem, OtherCoreHitsSharedL2)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    const AccessResult res = r.acc(1, 0x1000, MemOp::LOAD, 5000);
    EXPECT_FALSE(res.l1Hit);
    EXPECT_TRUE(res.l2Hit);
}

TEST(MemorySystem, StoreMakesLineDirtyAndWritable)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::STORE);
    const PageInfo *pi = r.space.translate(0x1000);
    ASSERT_NE(pi, nullptr);
    const CacheLine *line = r.mem.l1(0).peek(pi->ppage);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->dirty);
    EXPECT_TRUE(line->writable);
}

TEST(MemorySystem, StoreInvalidatesOtherSharers)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    r.acc(1, 0x1000, MemOp::LOAD, 1000);
    const Addr pa = r.space.translate(0x1000)->ppage;
    EXPECT_NE(r.mem.l1(0).peek(pa), nullptr);
    EXPECT_NE(r.mem.l1(1).peek(pa), nullptr);

    r.acc(2, 0x1000, MemOp::STORE, 2000);
    EXPECT_EQ(r.mem.l1(0).peek(pa), nullptr);
    EXPECT_EQ(r.mem.l1(1).peek(pa), nullptr);
    EXPECT_NE(r.mem.l1(2).peek(pa), nullptr);
    EXPECT_GT(r.mem.stats().value("invalidations_sent"), 0u);
}

TEST(MemorySystem, DirtyDataForwardedToReader)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::STORE); // core 0 owns the line dirty
    const AccessResult res = r.acc(1, 0x1000, MemOp::LOAD, 4000);
    EXPECT_TRUE(res.l2Hit);
    EXPECT_EQ(r.mem.stats().value("dirty_forwards"), 1u);
    const Addr pa = r.space.translate(0x1000)->ppage;
    // The former owner's copy is clean now.
    const CacheLine *old_owner = r.mem.l1(0).peek(pa);
    ASSERT_NE(old_owner, nullptr);
    EXPECT_FALSE(old_owner->dirty);
}

TEST(MemorySystem, PurgedOwnerForwardsNothing)
{
    // A purge writes the owner's dirty copy back but leaves its sharer
    // bit and the directory owner in place. The next reader must find
    // no copy to forward, and a later owner must forward normally.
    Rig r;
    r.acc(0, 0x1000, MemOp::STORE);
    const Addr pa = r.space.translate(0x1000)->ppage;
    const CacheLine *l2_line = r.mem.l2(r.space.homeOf(0x1000)).peek(pa);
    ASSERT_NE(l2_line, nullptr);
    EXPECT_EQ(l2_line->owner, 0u);
    r.mem.purgePrivate({0}, 1000);
    EXPECT_TRUE(l2_line->dirty); // the write-back landed in the home
    EXPECT_EQ(l2_line->sharers, Directory::bit(0)); // a stale bit

    const AccessResult load = r.acc(1, 0x1000, MemOp::LOAD, 10000);
    EXPECT_TRUE(load.l2Hit);
    EXPECT_EQ(r.mem.stats().value("dirty_forwards"), 0u);
    EXPECT_EQ(l2_line->owner, INVALID_CORE); // looked at, then cleared

    r.acc(1, 0x1000, MemOp::STORE, 20000); // upgrade: core 1 owns it
    EXPECT_EQ(l2_line->owner, 1u);
    r.acc(2, 0x1000, MemOp::LOAD, 30000);
    EXPECT_EQ(r.mem.stats().value("dirty_forwards"), 1u);
    const CacheLine *old_owner = r.mem.l1(1).peek(pa);
    ASSERT_NE(old_owner, nullptr);
    EXPECT_FALSE(old_owner->dirty); // the forward came from core 1
    EXPECT_EQ(l2_line->owner, INVALID_CORE);
}

namespace
{

/** DirtyCopiesBelongToTheDirectoryOwner's trace under @p mode. */
void
ownerAndHomeTrace(HomingMode mode)
{
    Rig r;
    r.space.setHomingMode(mode);
    r.space.setAllowedSlices({0, 1, 2, 3, 4, 5, 6, 7});
    const unsigned cores = r.topo.numTiles();
    std::vector<VAddr> lines;
    for (unsigned i = 0; i < 48; ++i)
        lines.push_back((i % 6) * r.cfg.pageBytes + (i / 6) * 256);

    // Visit every (home line, sharer) pair whose sharer bit is set and
    // whose L1 copy is dirty.
    const auto forEachDirtySharer = [&](auto &&fn) {
        for (CoreId s = 0; s < cores; ++s) {
            r.mem.l2(s).forEachLine([&](const CacheLine &home) {
                Directory::forEachSharer(home.sharers, [&](CoreId c) {
                    const CacheLine *l1 = r.mem.l1(c).peek(home.lineAddr);
                    if (l1 && l1->dirty)
                        fn(home, c);
                });
            });
        }
    };

    // Every valid L1 copy is one of the trace's lines: check each one's
    // recorded home, then that no other copy exists.
    const auto checkRecordedHomes = [&](unsigned step) {
        unsigned copies = 0;
        for (const VAddr va : lines) {
            const PageInfo *pi = r.space.translate(va);
            if (!pi)
                continue;
            const Addr pa = pi->ppage + (va & (r.cfg.pageBytes - 1));
            for (CoreId c = 0; c < cores; ++c) {
                const CacheLine *l1 = r.mem.l1(c).peek(pa);
                if (!l1)
                    continue;
                ++copies;
                ASSERT_EQ(l1->home, r.space.homeOf(va))
                    << "step " << step << ": core " << c;
                const CacheLine *home = r.mem.l2(l1->home).peek(pa);
                ASSERT_NE(home, nullptr)
                    << "step " << step << ": core " << c
                    << "'s copy outlived its home line";
                ASSERT_TRUE(Directory::isSharer(home->sharers, c))
                    << "step " << step << ": core " << c
                    << " holds the line without its sharer bit";
            }
        }
        unsigned valid = 0;
        for (CoreId c = 0; c < cores; ++c)
            valid += r.mem.l1(c).occupancy();
        ASSERT_EQ(copies, valid) << "step " << step;
    };

    Rng rng(0x0D1C7);
    Cycle t = 0;
    unsigned purged_owners = 0;
    for (unsigned step = 0; step < 2000; ++step) {
        if (mode == HomingMode::LOCAL_HOMING && step == 1000) {
            ASSERT_GT(r.mem.rehomePages(r.space, {0, 1, 2, 3}), 0u);
        } else if (rng.chance(0.03)) {
            std::vector<bool> purged(cores);
            std::vector<CoreId> purge;
            for (CoreId c = 0; c < cores; ++c) {
                if (rng.chance(0.25)) {
                    purged[c] = true;
                    purge.push_back(c);
                }
            }
            // The previous step's check made every dirty sharer its
            // line's owner, so this counts live owners being purged.
            forEachDirtySharer([&](const CacheLine &, CoreId c) {
                purged_owners += purged[c] ? 1 : 0;
            });
            t = r.mem.purgePrivate(purge, t);
        }
        const CoreId core = static_cast<CoreId>(rng.nextRange(cores));
        const VAddr va = lines[rng.nextRange(lines.size())];
        const MemOp op = rng.chance(0.4) ? MemOp::STORE : MemOp::LOAD;
        t = r.acc(core, va, op, t).finish;

        unsigned strays = 0;
        forEachDirtySharer([&](const CacheLine &home, CoreId c) {
            strays += c != home.owner ? 1 : 0;
        });
        ASSERT_EQ(strays, 0u) << "step " << step << ": a dirty L1 copy "
                              << "is not its directory owner's";
        ASSERT_NO_FATAL_FAILURE(checkRecordedHomes(step));
    }
    EXPECT_GT(r.mem.stats().value("dirty_forwards"), 0u);
    EXPECT_GT(purged_owners, 0u) << "no purge caught a live dirty owner";
    EXPECT_GT(r.mem.stats().value("l1_writebacks"), 0u);
}

} // namespace

TEST(MemorySystem, DirtyCopiesBelongToTheDirectoryOwner)
{
    // MSI leaves at most one sharer dirty, and the home line records
    // which: the dirty forward reads only that core's L1. Drive a
    // seeded random trace (loads and stores from every core over 48
    // shared lines that overflow their L1 sets, purges of random core
    // subsets, and under local homing a mid-trace re-homing) and check
    // the invariant over every home line after every access. Release
    // builds compile out the forward step's own scan, so this is their
    // check. After every access every valid L1 copy must also sit under
    // the home its fill recorded, which write-backs and evictions use:
    // the home rule's answer, whose L2 line holds the copy's sharer bit.
    ASSERT_NO_FATAL_FAILURE(ownerAndHomeTrace(HomingMode::LOCAL_HOMING));
    ASSERT_NO_FATAL_FAILURE(ownerAndHomeTrace(HomingMode::HASH_FOR_HOMING));
}

TEST(MemorySystem, UpgradeOnStoreToSharedLine)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    r.acc(1, 0x1000, MemOp::LOAD, 1000);
    // Core 0 hits its own L1 copy but must upgrade (invalidate core 1).
    const AccessResult res = r.acc(0, 0x1000, MemOp::STORE, 2000);
    EXPECT_TRUE(res.l1Hit);
    EXPECT_EQ(r.mem.stats().value("upgrades"), 1u);
    const Addr pa = r.space.translate(0x1000)->ppage;
    EXPECT_EQ(r.mem.l1(1).peek(pa), nullptr);
}

TEST(MemorySystem, TlbMissChargesPageWalk)
{
    Rig r;
    const AccessResult first = r.acc(0, 0x1000, MemOp::LOAD);
    r.acc(0, 0x1000, MemOp::LOAD, first.finish);
    // New page, same core: TLB miss but maybe L2-local; charge at least
    // the walk latency.
    const AccessResult other =
        r.acc(0, 0x100000, MemOp::LOAD, first.finish);
    EXPECT_FALSE(other.tlbHit);
    EXPECT_GE(other.finish - first.finish, r.cfg.tlbMissLatency);
}

TEST(MemorySystem, PurgeErasesPrivateStateAndCharges)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::STORE);
    r.acc(0, 0x2000, MemOp::LOAD);
    EXPECT_GT(r.mem.l1(0).validLines(), 0u);

    const Cycle done = r.mem.purgePrivate({0}, 10000);
    EXPECT_EQ(r.mem.l1(0).validLines(), 0u);
    const Cycle expected = 10000 +
                           r.cfg.l1Lines() * r.cfg.l1PurgePerLine +
                           r.cfg.tlbEntries * r.cfg.tlbPurgePerEntry;
    EXPECT_EQ(done, expected);
    // Dirty data survived into the L2 home (write-back, not loss).
    const Addr pa = r.space.translate(0x1000)->ppage;
    const CacheLine *l2_line = r.mem.l2(r.space.homeOf(0x1000)).peek(pa);
    ASSERT_NE(l2_line, nullptr);
    EXPECT_TRUE(l2_line->dirty);
}

TEST(MemorySystem, PurgeIsParallelAcrossCores)
{
    Rig r;
    const Cycle one = r.mem.purgePrivate({0}, 0);
    // Re-purge (caches empty but the dummy-buffer cost is geometric).
    const Cycle all = r.mem.purgePrivate({0, 1, 2, 3, 4, 5}, 0);
    EXPECT_EQ(one, all); // max, not sum

    // An empty L1 or TLB skips its scan but still counts the flush, so
    // the counter maps match a scanning purge. Core 1 never ran and was
    // purged once; core 6 was never purged and lists no flush entry.
    const StatGroup &l1 = r.mem.l1(1).stats();
    EXPECT_EQ(l1.value("flushes"), 1u);
    EXPECT_EQ(l1.counters().count("flushed_lines"), 1u);
    EXPECT_EQ(l1.value("flushed_lines"), 0u);
    const StatGroup &tlb = r.mem.tlb(1).stats();
    EXPECT_EQ(tlb.value("flushes"), 1u);
    EXPECT_EQ(tlb.counters().count("flushed_entries"), 1u);
    EXPECT_EQ(tlb.value("flushed_entries"), 0u);
    EXPECT_EQ(r.mem.l1(0).stats().value("flushes"), 2u);
    EXPECT_EQ(r.mem.l1(6).stats().counters().count("flushes"), 0u);
    EXPECT_EQ(r.mem.tlb(6).stats().counters().count("flushes"), 0u);
    EXPECT_EQ(r.mem.stats().value("private_purges"), 7u);
}

TEST(MemorySystem, PurgedTlbMissesAgain)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    r.mem.purgePrivate({0}, 0);
    const AccessResult res = r.acc(0, 0x1000, MemOp::LOAD, 20000);
    EXPECT_FALSE(res.tlbHit);
    EXPECT_FALSE(res.l1Hit);
    EXPECT_TRUE(res.l2Hit); // shared state was not purged
}

TEST(MemorySystem, RegionCheckBlocksForbiddenRegions)
{
    Rig r;
    AddressSpace insecure(r.cfg, r.alloc, 2, Domain::INSECURE);
    insecure.setAllowedRegions({0}); // maps into region 0...
    r.mem.setRegionCheck(region0Secure(r.cfg)); // ...but 0 is secure
    const AccessResult res =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 0, r.whole);
    EXPECT_TRUE(res.blocked);
    EXPECT_EQ(r.mem.blockedAccesses(), 1u);
    // The blocked request must not have installed any state.
    EXPECT_EQ(r.mem.l1(0).validLines(), 0u);
}

TEST(MemorySystem, SecureAllowedThroughChecker)
{
    Rig r;
    // Every region secure-owned: only the secure domain gets through.
    r.mem.setRegionCheck(RegionCheck::fromTable(
        std::vector<Domain>(r.cfg.numRegions, Domain::SECURE)));
    const AccessResult res = r.acc(0, 0x1000, MemOp::LOAD);
    EXPECT_FALSE(res.blocked);
}

TEST(MemorySystem, TableCheckBlocksAndClears)
{
    // The ownership-table check the production models install, on the
    // access path itself: it blocks the insecure space, passes the
    // secure one, and clearing it lifts the block.
    Rig r;
    AddressSpace insecure(r.cfg, r.alloc, 2, Domain::INSECURE);
    insecure.setAllowedRegions({0});
    r.mem.setRegionCheck(region0Secure(r.cfg));
    const AccessResult blocked =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 0, r.whole);
    EXPECT_TRUE(blocked.blocked);
    EXPECT_EQ(r.mem.l1(0).validLines(), 0u);
    const AccessResult ok = r.acc(0, 0x1000, MemOp::LOAD); // secure space
    EXPECT_FALSE(ok.blocked);
    // Clearing restores pass-through for everyone.
    r.mem.setRegionCheck(RegionCheck());
    const AccessResult after =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 0, r.whole);
    EXPECT_FALSE(after.blocked);
}

TEST(MemorySystem, SetAssociativeTlbConfigRuns)
{
    SysConfig cfg = SysConfig::smallTest();
    cfg.tlbWays = 2; // 8 entries -> 4 sets of 2
    cfg.validate();
    Topology topo{cfg};
    Network net{cfg, topo};
    MemorySystem mem{cfg, topo, net};
    AddressSpace space{cfg, mem.allocator(), 1, Domain::SECURE};
    const ClusterRange whole{0, topo.numTiles()};
    EXPECT_EQ(mem.tlb(0).ways(), 2u);
    EXPECT_EQ(mem.tlb(0).numSets(), 4u);
    // Touch far more pages than the TLB holds; the per-set structure
    // must keep serving translations and counting coherently.
    unsigned accesses = 0;
    for (VAddr va = 0; va < 64 * cfg.pageBytes; va += cfg.pageBytes / 2) {
        mem.access(0, space, va, MemOp::LOAD, 0, whole);
        ++accesses;
    }
    EXPECT_EQ(mem.tlb(0).hits() + mem.tlb(0).misses(), accesses);
    EXPECT_GT(mem.tlb(0).stats().value("evictions"), 0u);
    EXPECT_LE(mem.tlb(0).validEntriesOf(Domain::SECURE), 8u);
}

TEST(MemorySystem, DrainControllersClosesRows)
{
    Rig r;
    r.acc(0, 0x1000, MemOp::LOAD);
    // Touch the same row again through another core: row-buffer hit.
    r.acc(1, 0x1040, MemOp::LOAD, 100000);
    const auto hits_before = r.mem.mc(0).dram().stats().value("row_hits") +
                             r.mem.mc(1).dram().stats().value("row_hits");
    EXPECT_GT(hits_before, 0u);

    const Cycle done = r.mem.drainControllers({0, 1}, 200000);
    EXPECT_GE(done, 200000 + r.cfg.mcDrainBase);
}

TEST(MemorySystem, RegionControllerRemap)
{
    Rig r;
    EXPECT_EQ(r.mem.regionController(0), 0u);
    r.mem.setRegionController(0, 1);
    EXPECT_EQ(r.mem.regionController(0), 1u);
}

TEST(MemorySystem, RehomeScrubsOldSlicesOnly)
{
    Rig r;
    r.space.setHomingMode(HomingMode::LOCAL_HOMING);
    r.space.setAllowedSlices({0, 1, 2, 3});
    Cycle t = 0;
    for (VAddr va = 0; va < 8 * r.cfg.pageBytes; va += 64)
        t = r.acc(0, va, MemOp::LOAD, t).finish;

    unsigned lines_on_lost = 0;
    for (CoreId s : {2u, 3u})
        lines_on_lost += r.mem.l2(s).validLines();
    EXPECT_GT(lines_on_lost, 0u);

    const std::uint64_t moved = r.mem.rehomePages(r.space, {0, 1});
    EXPECT_EQ(moved, 4u);
    for (CoreId s : {2u, 3u})
        EXPECT_EQ(r.mem.l2(s).validLines(), 0u);
    // Surviving slices keep their lines.
    EXPECT_GT(r.mem.l2(0).validLines() + r.mem.l2(1).validLines(), 0u);
}

TEST(MemorySystem, L1EvictionWritesBackDirtyLine)
{
    Rig r;
    // Fill one L1 set with dirty lines, then overflow it.
    const unsigned sets = r.cfg.l1Bytes / (64 * r.cfg.l1Assoc);
    Cycle t = 0;
    for (unsigned w = 0; w <= r.cfg.l1Assoc; ++w) {
        const VAddr va = static_cast<VAddr>(w) * sets * 64;
        t = r.acc(0, va, MemOp::STORE, t).finish;
    }
    EXPECT_GT(r.mem.stats().value("l1_writebacks"), 0u);
}

TEST(Directory, BitmaskHelpers)
{
    std::uint64_t m = 0;
    m = Directory::addSharer(m, 3);
    m = Directory::addSharer(m, 60);
    EXPECT_TRUE(Directory::isSharer(m, 3));
    EXPECT_FALSE(Directory::isSharer(m, 4));
    EXPECT_EQ(Directory::count(m), 2u);
    EXPECT_FALSE(Directory::soleSharer(m, 3));
    m = Directory::removeSharer(m, 60);
    EXPECT_TRUE(Directory::soleSharer(m, 3));

    std::vector<CoreId> seen;
    Directory::forEachSharer(Directory::addSharer(m, 17),
                             [&](CoreId c) { seen.push_back(c); });
    EXPECT_EQ(seen, (std::vector<CoreId>{3, 17}));
}

TEST(MemController, QueueContentionGrows)
{
    const SysConfig cfg = SysConfig::smallTest();
    MemController mc(0, cfg);
    const Cycle t1 = mc.serviceRead(0x0, 0);
    const Cycle t2 = mc.serviceRead(0x100000, 0);
    EXPECT_GT(t2, t1); // second request waits for the issue slot
    EXPECT_GT(mc.stats().value("queue_wait_cycles"), 0u);
}

TEST(MemController, DrainCostScalesWithPendingWrites)
{
    const SysConfig cfg = SysConfig::smallTest();
    MemController mc(0, cfg);
    const Cycle empty_drain = mc.drain(0) - 0;
    for (int i = 0; i < 10; ++i)
        mc.acceptWrite(static_cast<Addr>(i) * 64, 0);
    EXPECT_EQ(mc.pendingWrites(), 10u);
    const Cycle start = 100000;
    const Cycle full_drain = mc.drain(start) - start;
    EXPECT_GT(full_drain, empty_drain);
    EXPECT_EQ(mc.pendingWrites(), 0u);
}

TEST(Dram, RowBufferHitsAndPurge)
{
    const SysConfig cfg = SysConfig::smallTest();
    Dram d("t", cfg);
    EXPECT_EQ(d.access(0x0), cfg.dramLatency);       // row miss
    EXPECT_EQ(d.access(0x40), cfg.dramRowHitLatency); // same row
    d.closeAllRows();
    EXPECT_EQ(d.access(0x40), cfg.dramLatency);       // purged
}

TEST(MemorySystem, BlockedAccessDoesNotPrimeTlbOrPredictor)
{
    // The region check runs after the page walk but *before* the TLB
    // fill: on a fault the hardware discards the walked translation, so
    // a blocked access never primes the TLB/way predictor for a line it
    // was not allowed to touch (a blocked-then-allowed sequence pays
    // the full walk twice).
    Rig r;
    AddressSpace insecure(r.cfg, r.alloc, 2, Domain::INSECURE);
    insecure.setAllowedRegions({0});
    r.mem.setRegionCheck(region0Secure(r.cfg));

    const AccessResult blocked =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 0, r.whole);
    EXPECT_TRUE(blocked.blocked);
    EXPECT_FALSE(blocked.tlbHit);
    // The walk itself is still charged — the region of the physical
    // address is only known once it completes.
    EXPECT_EQ(blocked.finish,
              r.cfg.tlbMissLatency + r.cfg.pipelineFlushCycles);
    EXPECT_EQ(r.mem.tlb(0).stats().value("fills"), 0u);
    EXPECT_EQ(r.mem.tlb(0).misses(), 1u);
    EXPECT_EQ(r.mem.tlb(0).validEntriesOf(Domain::INSECURE), 0u);

    // Allowed afterwards: nothing was primed, so the access misses the
    // TLB again and only now installs the entry.
    r.mem.setRegionCheck(RegionCheck());
    const AccessResult ok =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 1000, r.whole);
    EXPECT_FALSE(ok.blocked);
    EXPECT_FALSE(ok.tlbHit);
    EXPECT_EQ(r.mem.tlb(0).misses(), 2u);
    EXPECT_EQ(r.mem.tlb(0).stats().value("fills"), 1u);
    EXPECT_EQ(r.mem.tlb(0).validEntriesOf(Domain::INSECURE), 1u);

    // A blocked access that *hits* a legitimately installed entry keeps
    // it (the entry was earned by an allowed access) and charges only
    // the protection-fault penalty.
    r.mem.setRegionCheck(region0Secure(r.cfg));
    const AccessResult again =
        r.mem.access(0, insecure, 0x1000, MemOp::LOAD, 2000, r.whole);
    EXPECT_TRUE(again.blocked);
    EXPECT_TRUE(again.tlbHit);
    EXPECT_EQ(again.finish, 2000 + r.cfg.pipelineFlushCycles);
    EXPECT_EQ(r.mem.tlb(0).validEntriesOf(Domain::INSECURE), 1u);
    // Blocked accesses never install cache state either (unchanged).
    EXPECT_EQ(r.mem.l1(0).validLines(), 1u); // just the allowed line
}

// ---- Fast-path vs reference equivalence -----------------------------------

namespace
{

struct EquivRig
{
    SysConfig cfg = SysConfig::smallTest();
    Topology topo{cfg};
    Network net{cfg, topo};
    MemorySystem mem{cfg, topo, net};
    AddressSpace hashSpace{cfg, mem.allocator(), 1, Domain::SECURE};
    AddressSpace localSpace{cfg, mem.allocator(), 2, Domain::SECURE};
    AddressSpace insecure{cfg, mem.allocator(), 3, Domain::INSECURE};
    ClusterRange whole{0, topo.numTiles()};

    AddressSpace &
    spaceOf(unsigned which)
    {
        return which == 0 ? hashSpace
                          : which == 1 ? localSpace : insecure;
    }
};

std::vector<std::pair<std::string, std::uint64_t>>
countersOf(EquivRig &r)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    const auto add = [&](const StatGroup &g) {
        for (const auto &[name, c] : g.counters())
            out.emplace_back(g.name() + "." + name, c.value());
    };
    add(r.mem.stats());
    add(r.net.stats());
    for (CoreId c = 0; c < r.topo.numTiles(); ++c) {
        add(r.mem.l1(c).stats());
        add(r.mem.l2(c).stats());
        add(r.mem.tlb(c).stats());
    }
    for (McId m = 0; m < r.mem.numMcs(); ++m) {
        add(r.mem.mc(m).stats());
        add(r.mem.mc(m).dram().stats());
    }
    return out;
}

} // namespace

TEST(MemorySystem, SplitAccessMatchesReferenceOnMixedTrace)
{
    // Drive the split access() and the single-function
    // accessReference() through an identical mixed trace — TLB
    // hits/misses, L1/L2 hits and misses, store upgrades, sharing,
    // both homing modes, blocked insecure accesses and a mid-trace
    // purge (stale way predictions) — and require identical
    // AccessResults at every step plus identical full counter maps at
    // the end.
    EquivRig a; // split fast/miss path
    EquivRig b; // reference implementation
    for (EquivRig *r : {&a, &b}) {
        r->localSpace.setHomingMode(HomingMode::LOCAL_HOMING);
        r->localSpace.setAllowedSlices({0, 1});
        r->insecure.setAllowedRegions({0, 1});
        // Region 0 is secure-owned: the insecure pages that round-robin
        // into it block, the rest are allowed.
        r->mem.setRegionCheck(region0Secure(r->cfg));
    }

    Cycle ta = 0;
    Cycle tb = 0;
    unsigned step = 0;
    bool saw_blocked = false;
    bool saw_upgrade_path = false;
    const auto drive = [&](unsigned which, CoreId core, VAddr va,
                           MemOp op) {
        const AccessResult ra =
            a.mem.access(core, a.spaceOf(which), va, op, ta, a.whole);
        const AccessResult rb = b.mem.accessReference(
            core, b.spaceOf(which), va, op, tb, b.whole);
        ASSERT_EQ(ra.finish, rb.finish) << "step " << step;
        ASSERT_EQ(ra.tlbHit, rb.tlbHit) << "step " << step;
        ASSERT_EQ(ra.l1Hit, rb.l1Hit) << "step " << step;
        ASSERT_EQ(ra.l2Hit, rb.l2Hit) << "step " << step;
        ASSERT_EQ(ra.blocked, rb.blocked) << "step " << step;
        saw_blocked |= ra.blocked;
        saw_upgrade_path |= ra.l1Hit && op == MemOp::STORE;
        ta = ra.finish;
        tb = rb.finish;
        ++step;
    };

    for (unsigned i = 0; i < 600; ++i) {
        drive(0, i % 4, 0x10000 + (i * 64) % 8192,
              (i % 3 == 0) ? MemOp::STORE : MemOp::LOAD);
        if (i % 7 == 0) {
            drive(1, (i % 4) + 4, 0x40000 + (i * 64) % 16384,
                  (i % 2) ? MemOp::STORE : MemOp::LOAD);
        }
        if (i % 5 == 0) {
            drive(2, i % 4, 0x1000 + (i % 4) * 0x2000,
                  (i % 2) ? MemOp::STORE : MemOp::LOAD);
        }
    }
    ASSERT_TRUE(saw_blocked) << "trace never exercised the blocked path";
    ASSERT_TRUE(saw_upgrade_path);

    // Purge, then keep going: cold TLBs + stale way predictions.
    ta = a.mem.purgePrivate({0, 1, 2, 3}, ta);
    tb = b.mem.purgePrivate({0, 1, 2, 3}, tb);
    ASSERT_EQ(ta, tb);
    for (unsigned i = 0; i < 200; ++i)
        drive(0, i % 4, 0x10000 + (i * 64) % 8192, MemOp::LOAD);

    const auto ca = countersOf(a);
    const auto cb = countersOf(b);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].first, cb[i].first) << "at index " << i;
        EXPECT_EQ(ca[i].second, cb[i].second)
            << "counter " << ca[i].first << " diverged";
    }
}
