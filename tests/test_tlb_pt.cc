/**
 * @file
 * TLB, physical allocator, address-space and homing-policy tests.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/homing.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "sim/rng.hh"

using namespace ih;

namespace
{

SysConfig
cfg()
{
    return SysConfig::smallTest();
}

} // namespace

TEST(Tlb, MissThenHit)
{
    Tlb tlb("t", 4, 4096);
    EXPECT_EQ(tlb.lookup(0x1234, 1), nullptr);
    tlb.insert(0x1234, 0x100000, 1, Domain::SECURE);
    TlbEntry *e = tlb.lookup(0x1777, 1); // same page
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppage, 0x100000u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, EntriesAreProcessTagged)
{
    Tlb tlb("t", 4, 4096);
    tlb.insert(0x1000, 0xA000, 1, Domain::SECURE);
    EXPECT_EQ(tlb.lookup(0x1000, 2), nullptr); // other process misses
    EXPECT_NE(tlb.lookup(0x1000, 1), nullptr);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb("t", 2, 4096);
    tlb.insert(0x1000, 0xA000, 1, Domain::INSECURE);
    tlb.insert(0x2000, 0xB000, 1, Domain::INSECURE);
    tlb.lookup(0x1000, 1); // 0x1000 MRU
    tlb.insert(0x3000, 0xC000, 1, Domain::INSECURE);
    EXPECT_NE(tlb.lookup(0x1000, 1), nullptr);
    EXPECT_EQ(tlb.lookup(0x2000, 1), nullptr);
}

TEST(Tlb, SetAssociativeGeometry)
{
    Tlb full("t", 8, 4096);            // ways=0: fully associative
    EXPECT_EQ(full.ways(), 8u);
    EXPECT_EQ(full.numSets(), 1u);
    EXPECT_EQ(full.setOf(0x0000), full.setOf(0xFFFF000));

    Tlb sa("t", 8, 4096, 2);           // 2-way, 4 sets
    EXPECT_EQ(sa.ways(), 2u);
    EXPECT_EQ(sa.numSets(), 4u);
    // Consecutive pages land in consecutive sets; page+4*pageBytes wraps.
    EXPECT_EQ(sa.setOf(0x0000), sa.setOf(4 * 4096));
    EXPECT_NE(sa.setOf(0x0000), sa.setOf(1 * 4096));
}

TEST(Tlb, PerSetConflictEviction)
{
    // 2 ways x 4 sets: three pages mapping to set 0 must conflict even
    // though the other sets are empty.
    Tlb tlb("t", 8, 4096, 2);
    const VAddr a = 0 * 4096, b = 4 * 4096, c = 8 * 4096;
    ASSERT_EQ(tlb.setOf(a), tlb.setOf(b));
    ASSERT_EQ(tlb.setOf(a), tlb.setOf(c));
    tlb.insert(a, 0xA000, 1, Domain::INSECURE);
    tlb.insert(b, 0xB000, 1, Domain::INSECURE);
    tlb.lookup(a, 1); // a MRU within the set
    tlb.insert(c, 0xC000, 1, Domain::INSECURE); // evicts b (set LRU)
    EXPECT_NE(tlb.lookup(a, 1), nullptr);
    EXPECT_EQ(tlb.lookup(b, 1), nullptr);
    EXPECT_NE(tlb.lookup(c, 1), nullptr);
    EXPECT_EQ(tlb.stats().value("evictions"), 1u);
    // A page of another set is untouched by the conflict.
    tlb.insert(1 * 4096, 0xD000, 1, Domain::INSECURE);
    EXPECT_NE(tlb.lookup(1 * 4096, 1), nullptr);
}

TEST(Tlb, FlushProcSpansAllSets)
{
    Tlb tlb("t", 8, 4096, 2);
    for (unsigned p = 0; p < 4; ++p) { // one page in each set, proc 1
        tlb.insert(p * 4096, 0xA000 + p * 0x1000, 1, Domain::SECURE);
    }
    tlb.insert(4 * 4096, 0xF000, 2, Domain::INSECURE); // proc 2, set 0
    EXPECT_EQ(tlb.flushProc(1), 4u);
    for (unsigned p = 0; p < 4; ++p)
        EXPECT_EQ(tlb.lookup(p * 4096, 1), nullptr);
    EXPECT_NE(tlb.lookup(4 * 4096, 2), nullptr);
    EXPECT_EQ(tlb.validEntriesOf(Domain::SECURE), 0u);
}

namespace
{

/**
 * Reference model of the seed's fully associative TLB: linear scan,
 * first-free-slot fill, global min-stamp (first wins ties) eviction.
 * Mirrors the pre-set-associative implementation so the equivalence
 * test below pins the degenerate configuration to the old behaviour.
 */
class RefFullyAssocTlb
{
  public:
    RefFullyAssocTlb(unsigned entries, unsigned page_bytes)
        : entries_(entries), mask_(page_bytes - 1)
    {
    }

    bool
    lookup(VAddr va, ProcId proc)
    {
        const VAddr vp = va & ~mask_;
        for (auto &e : entries_) {
            if (e.valid && e.vpage == vp && e.proc == proc) {
                e.stamp = ++tick_;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    void
    insert(VAddr va, ProcId proc)
    {
        const VAddr vp = va & ~mask_;
        Entry *slot = nullptr;
        for (auto &e : entries_) {
            if (!e.valid) {
                slot = &e;
                break;
            }
        }
        if (!slot) {
            slot = &entries_[0];
            for (auto &e : entries_) {
                if (e.stamp < slot->stamp)
                    slot = &e;
            }
            ++evictions_;
        }
        slot->vpage = vp;
        slot->proc = proc;
        slot->valid = true;
        slot->stamp = ++tick_;
    }

    void
    flushAll()
    {
        for (auto &e : entries_)
            e.valid = false;
    }

    void
    flushProc(ProcId proc)
    {
        for (auto &e : entries_) {
            if (e.proc == proc)
                e.valid = false;
        }
    }

    unsigned
    validCount() const
    {
        unsigned n = 0;
        for (const auto &e : entries_)
            n += e.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;

  private:
    struct Entry
    {
        VAddr vpage = 0;
        ProcId proc = 0;
        bool valid = false;
        std::uint64_t stamp = 0;
    };
    std::vector<Entry> entries_;
    VAddr mask_;
    std::uint64_t tick_ = 0;
};

} // namespace

TEST(Tlb, WaysEqualEntriesMatchesFullyAssociativeReference)
{
    // Both the explicit single-set config (ways == entries) and the
    // default (ways = 0) must reproduce the seed's fully associative
    // hit/miss/eviction behaviour on a randomized mixed-proc workload,
    // way predictor and all. The occupancy count must track the
    // reference's valid entries after every step: a count that drifts
    // low would let a purge skip a TLB that still holds translations.
    for (unsigned ways : {0u, 16u}) {
        Tlb tlb("t", 16, 4096, ways);
        RefFullyAssocTlb ref(16, 4096);
        Rng rng(0xDECAF);
        for (int i = 0; i < 20000; ++i) {
            // Occasional flushes (purge behaviour) so stale way
            // predictions across invalidation/refill are exercised too.
            if (i % 2929 == 2928) {
                EXPECT_EQ(tlb.flushAll(), ref.validCount()) << "i=" << i;
                ref.flushAll();
            } else if (i % 977 == 976) {
                const ProcId victim =
                    1 + static_cast<ProcId>(rng.nextRange(3));
                tlb.flushProc(victim);
                ref.flushProc(victim);
            }
            ASSERT_EQ(tlb.occupancy(), ref.validCount()) << "i=" << i;
            const ProcId proc = 1 + static_cast<ProcId>(rng.nextRange(3));
            const VAddr va = rng.nextRange(24) * 4096 + rng.nextRange(4096);
            const bool ref_hit = ref.lookup(va, proc);
            TlbEntry *e = tlb.lookup(va, proc);
            ASSERT_EQ(e != nullptr, ref_hit) << "i=" << i;
            if (!e) {
                ref.insert(va, proc);
                tlb.insert(va, 0xA0000 + (va & ~VAddr(4095)), proc,
                           Domain::SECURE);
            }
            ASSERT_EQ(tlb.occupancy(), ref.validCount()) << "i=" << i;
        }
        EXPECT_EQ(tlb.hits(), ref.hits_);
        EXPECT_EQ(tlb.misses(), ref.misses_);
        EXPECT_EQ(tlb.stats().value("evictions"), ref.evictions_);
    }
}

TEST(Tlb, FlushAllAndByProcess)
{
    Tlb tlb("t", 8, 4096);
    tlb.insert(0x1000, 0xA000, 1, Domain::SECURE);
    tlb.insert(0x2000, 0xB000, 2, Domain::INSECURE);
    EXPECT_EQ(tlb.flushProc(1), 1u);
    EXPECT_EQ(tlb.lookup(0x1000, 1), nullptr);
    EXPECT_NE(tlb.lookup(0x2000, 2), nullptr);
    EXPECT_EQ(tlb.flushAll(), 1u);
    EXPECT_EQ(tlb.validEntriesOf(Domain::INSECURE), 0u);
}

TEST(PhysAllocator, PagesAreRegionLocalAndDistinct)
{
    const SysConfig c = cfg();
    PhysAllocator alloc(c);
    std::set<Addr> seen;
    for (RegionId r = 0; r < c.numRegions; ++r) {
        for (int i = 0; i < 10; ++i) {
            const Addr pa = alloc.allocPage(r);
            EXPECT_EQ(regionOf(pa), r);
            EXPECT_TRUE(seen.insert(pa).second);
            EXPECT_EQ(pa % c.pageBytes, 0u);
        }
    }
    EXPECT_EQ(alloc.pagesUsed(0), 10u);
}

TEST(AddressSpace, LazyMappingIsStable)
{
    const SysConfig c = cfg();
    PhysAllocator alloc(c);
    AddressSpace as(c, alloc, 1, Domain::SECURE);
    const PageInfo &a = as.ensureMapped(0x5000);
    const PageInfo &b = as.ensureMapped(0x5FFF); // same page
    EXPECT_EQ(a.ppage, b.ppage);
    EXPECT_EQ(as.mappedPages(), 1u);
    EXPECT_EQ(as.translate(0x6000), nullptr);
}

TEST(AddressSpace, AllocationRoundRobinsAllowedRegions)
{
    const SysConfig c = cfg();
    PhysAllocator alloc(c);
    AddressSpace as(c, alloc, 1, Domain::SECURE);
    as.setAllowedRegions({1, 3});
    std::set<RegionId> regions;
    for (VAddr va = 0; va < 8 * c.pageBytes; va += c.pageBytes)
        regions.insert(regionOf(as.ensureMapped(va).ppage));
    EXPECT_EQ(regions, (std::set<RegionId>{1, 3}));
}

TEST(AddressSpace, LocalHomingConfinesToAllowedSlices)
{
    const SysConfig c = cfg();
    PhysAllocator alloc(c);
    AddressSpace as(c, alloc, 1, Domain::SECURE);
    as.setHomingMode(HomingMode::LOCAL_HOMING);
    as.setAllowedSlices({2, 5, 7});
    for (VAddr va = 0; va < 16 * c.pageBytes; va += c.pageBytes) {
        const CoreId home = as.homeOf(va);
        EXPECT_TRUE(home == 2 || home == 5 || home == 7);
    }
}

TEST(AddressSpace, HashHomingIsLineGranularAndInRange)
{
    const SysConfig c = cfg();
    PhysAllocator alloc(c);
    AddressSpace as(c, alloc, 1, Domain::INSECURE);
    as.setHomingMode(HomingMode::HASH_FOR_HOMING);
    std::set<CoreId> homes;
    for (VAddr va = 0; va < 4 * c.pageBytes; va += c.lineBytes)
        homes.insert(as.homeOf(va));
    // Hash homing scatters lines over many slices.
    EXPECT_GT(homes.size(), 4u);
    for (CoreId h : homes)
        EXPECT_LT(h, c.numTiles());
}

TEST(AddressSpaceDeathTest, HomingModeIsFixedOnceAPageIsMapped)
{
    // Setting the mode again is legal at any time (IRONHIDE does it on
    // every reconfiguration); a flip is legal only before the first
    // mapping, since L1 lines keep the home their fill recorded.
    const SysConfig c = cfg();
    PhysAllocator alloc(c);
    AddressSpace as(c, alloc, 1, Domain::SECURE);
    as.setHomingMode(HomingMode::LOCAL_HOMING);
    as.setHomingMode(HomingMode::HASH_FOR_HOMING);
    as.ensureMapped(0x1000);
    as.setHomingMode(HomingMode::HASH_FOR_HOMING);
    EXPECT_EQ(as.homingMode(), HomingMode::HASH_FOR_HOMING);
    EXPECT_DEATH(as.setHomingMode(HomingMode::LOCAL_HOMING),
                 "homing mode of process 1 changed after it mapped a page");
}

TEST(AddressSpace, RehomeMovesOnlyLostSlices)
{
    const SysConfig c = cfg();
    PhysAllocator alloc(c);
    AddressSpace as(c, alloc, 1, Domain::SECURE);
    as.setHomingMode(HomingMode::LOCAL_HOMING);
    as.setAllowedSlices({0, 1, 2, 3});
    for (VAddr va = 0; va < 8 * c.pageBytes; va += c.pageBytes)
        as.ensureMapped(va);

    // Shrink to {0, 1}: pages homed on 2/3 move; pages on 0/1 stay.
    std::vector<CoreId> old_homes;
    for (VAddr va = 0; va < 8 * c.pageBytes; va += c.pageBytes)
        old_homes.push_back(as.translate(va)->homeSlice);
    const std::uint64_t moved = as.rehomeAll({0, 1});
    EXPECT_EQ(moved, 4u); // half the round-robin pages were on 2/3
    for (std::size_t i = 0; i < old_homes.size(); ++i) {
        const CoreId nh =
            as.translate(static_cast<VAddr>(i) * c.pageBytes)->homeSlice;
        EXPECT_TRUE(nh == 0 || nh == 1);
        if (old_homes[i] <= 1) {
            EXPECT_EQ(nh, old_homes[i]); // surviving homes untouched
        }
    }
}

TEST(AddressSpace, ReserveRangesDoNotOverlap)
{
    const SysConfig c = cfg();
    PhysAllocator alloc(c);
    AddressSpace as(c, alloc, 1, Domain::SECURE);
    const VAddr a = as.reserveRange(1000);
    const VAddr b = as.reserveRange(50000);
    const VAddr d = as.reserveRange(1);
    EXPECT_GE(b, a + 1000);
    EXPECT_GE(d, b + 50000);
    EXPECT_EQ(a % c.pageBytes, 0u);
}

TEST(Homing, HashIsDeterministic)
{
    const std::vector<CoreId> slices{0, 1, 2, 3};
    EXPECT_EQ(Homing::hashHome(0x1000, slices),
              Homing::hashHome(0x1000, slices));
}

TEST(Homing, HashSpreadsAcrossSlices)
{
    std::vector<CoreId> slices;
    for (CoreId i = 0; i < 16; ++i)
        slices.push_back(i);
    std::set<CoreId> seen;
    for (Addr a = 0; a < 256 * 64; a += 64)
        seen.insert(Homing::hashHome(a, slices));
    EXPECT_GE(seen.size(), 12u);
}

TEST(Homing, LocalRoundRobins)
{
    const std::vector<CoreId> slices{4, 9};
    EXPECT_EQ(Homing::localHome(0, slices), 4u);
    EXPECT_EQ(Homing::localHome(1, slices), 9u);
    EXPECT_EQ(Homing::localHome(2, slices), 4u);
}

/** Property: every page ever mapped lands in an allowed region. */
class RegionConfinement : public testing::TestWithParam<unsigned>
{
};

TEST_P(RegionConfinement, AllPagesInAllowedRegions)
{
    const SysConfig c = cfg();
    PhysAllocator alloc(c);
    AddressSpace as(c, alloc, 1, Domain::SECURE);
    const RegionId allowed = GetParam();
    as.setAllowedRegions({allowed});
    for (VAddr va = 0; va < 32 * c.pageBytes; va += c.pageBytes)
        EXPECT_EQ(regionOf(as.ensureMapped(va).ppage), allowed);
}

INSTANTIATE_TEST_SUITE_P(EachRegion, RegionConfinement,
                         testing::Range(0u, 4u));

// ---- Way-predictor staleness ----------------------------------------------
//
// The predictor in front of the set scan is an implementation shortcut:
// every prediction is validated (valid + vpage + proc) before use, so a
// stale slot left behind by flushAll()/flushProc() or by entry reuse may
// only cost the set scan the lookup would have done anyway — it must
// never surface a flushed entry, and the hit/miss counters must be
// exactly what an unpredicted TLB would report.

TEST(Tlb, StalePredictionAfterFlushAllNeverReturnsFlushedEntry)
{
    Tlb tlb("t", 8, 4096, 2);
    tlb.insert(0x1000, 0xA000, 1, Domain::SECURE);
    ASSERT_NE(tlb.lookup(0x1000, 1), nullptr); // predictor now primed

    tlb.flushAll(); // predictor slots deliberately survive the flush
    EXPECT_EQ(tlb.lookupPredicted(0x1000, 1), nullptr);
    EXPECT_EQ(tlb.lookup(0x1000, 1), nullptr);
    EXPECT_EQ(tlb.misses(), 1u); // the stale prediction cost one miss, once
    EXPECT_EQ(tlb.hits(), 1u);   // only the pre-flush lookup hit
}

TEST(Tlb, StalePredictionAfterFlushProcIsProcChecked)
{
    Tlb tlb("t", 8, 4096, 2);
    tlb.insert(0x1000, 0xA000, 1, Domain::SECURE);
    ASSERT_NE(tlb.lookup(0x1000, 1), nullptr);

    tlb.flushProc(1);
    // Reuse the flushed entry's storage for another process's mapping of
    // the same virtual page: the stale prediction for proc 1 now points
    // at a *valid* entry — owned by proc 2.
    tlb.insert(0x1000, 0xB000, 2, Domain::INSECURE);

    EXPECT_EQ(tlb.lookup(0x1000, 1), nullptr); // never proc 2's entry
    TlbEntry *e = tlb.lookup(0x1000, 2);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppage, 0xB000u);
    EXPECT_EQ(e->proc, 2u);
}

TEST(Tlb, StalePredictionFallsBackToSetScanHit)
{
    // Two pages sharing a predictor slot (and here a set, in different
    // ways): after the second insert retargets the shared slot, looking
    // the first page up again must still *hit* via the set scan, with
    // exactly one hit counted — predictor misses are not TLB misses.
    Tlb tlb("t", 32, 4096, 2); // 16 sets
    tlb.insert(0x0000, 0xA000, 1, Domain::SECURE);
    // PRED_SLOTS pages apart: the same predictor slot, and the same
    // set 0.
    static_assert(Tlb::PRED_SLOTS % 16 == 0);
    tlb.insert(0x1000 * Tlb::PRED_SLOTS, 0xB000, 1, Domain::SECURE);
    const std::uint64_t hits_before = tlb.hits();
    TlbEntry *e = tlb.lookup(0x0000, 1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppage, 0xA000u);
    EXPECT_EQ(tlb.hits(), hits_before + 1);
    EXPECT_EQ(tlb.misses(), 0u);
}
