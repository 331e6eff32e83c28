/**
 * @file
 * Stats-parity regression test: a small fixed workload is driven through
 * MemorySystem::access() and the *complete* counter maps of the touched
 * components (names and values) are compared against a golden snapshot.
 * Hot-path refactors (bound counters, allocation-free routing, cheap
 * noteHome, ...) must keep every counter byte-identical; this test turns
 * any silent semantic change into a loud diff.
 *
 * Regenerating the golden after an *intentional* semantic change:
 *
 *     IH_DUMP_GOLDEN=1 ./test_stats_parity
 *
 * prints the snapshot in source form; paste it over kGolden below.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "mem/memory_system.hh"
#include "noc/network.hh"

using namespace ih;

namespace
{

struct Machine
{
    SysConfig cfg = SysConfig::smallTest();
    Topology topo{cfg};
    Network net{cfg, topo};
    MemorySystem mem{cfg, topo, net};
    AddressSpace hashSpace{cfg, mem.allocator(), 1, Domain::INSECURE};
    AddressSpace localSpace{cfg, mem.allocator(), 2, Domain::SECURE};
    ClusterRange whole{0, topo.numTiles()};
};

/**
 * The fixed workload. Deterministic (fixed seed, no RNG, no wall clock)
 * and chosen to exercise every hot access path: TLB miss/hit, L1/L2
 * hits and misses, store upgrades, sharer invalidations, dirty
 * forwarding, L1 writebacks, L2 (back-)evictions, both homing modes,
 * purges, controller drains and page re-homing.
 */
void
runFixedWorkload(Machine &m)
{
    m.localSpace.setHomingMode(HomingMode::LOCAL_HOMING);
    Cycle t = 0;

    // Streaming loads/stores from four cores over a hash-homed space:
    // misses, fills, L2 sharing, capacity evictions.
    for (unsigned i = 0; i < 512; ++i) {
        const CoreId core = i % 4;
        const VAddr va = 0x10000 + (i * 64) % 16384;
        const MemOp op = (i % 3 == 0) ? MemOp::STORE : MemOp::LOAD;
        t = m.mem.access(core, m.hashSpace, va, op, t, m.whole).finish;
    }

    // Sharing ping-pong on one line: dirty forwards, upgrades and
    // sharer invalidations.
    for (unsigned i = 0; i < 16; ++i) {
        const VAddr va = 0x10000;
        t = m.mem.access(0, m.hashSpace, va, MemOp::STORE, t, m.whole)
                .finish;
        t = m.mem.access(1, m.hashSpace, va, MemOp::LOAD, t, m.whole)
                .finish;
        t = m.mem.access(1, m.hashSpace, va, MemOp::STORE, t, m.whole)
                .finish;
        t = m.mem.access(2, m.hashSpace, va, MemOp::LOAD, t, m.whole)
                .finish;
    }

    // A locally homed space confined to two L2 slices: noteHome map
    // traffic, slice capacity pressure (L2 evictions, back-
    // invalidations, controller writebacks).
    m.localSpace.setAllowedSlices({0, 1});
    for (unsigned i = 0; i < 1024; ++i) {
        const CoreId core = (i % 4) + 4;
        const VAddr va = 0x40000 + (i * 64) % 65536;
        const MemOp op = (i % 5 == 0) ? MemOp::STORE : MemOp::LOAD;
        t = m.mem.access(core, m.localSpace, va, op, t, m.whole).finish;
    }

    // Re-home the local space onto two other slices, then touch it
    // again (every page moves).
    m.mem.rehomePages(m.localSpace, {2, 3});
    for (unsigned i = 0; i < 64; ++i) {
        const CoreId core = i % 2;
        const VAddr va = 0x40000 + (i * 64) % 65536;
        t = m.mem.access(core, m.localSpace, va, MemOp::LOAD, t, m.whole)
                .finish;
    }

    // Purge and drain: flushes, writebacks, controller queue churn.
    t = m.mem.purgePrivate({0, 1, 2, 3}, t);
    t = m.mem.drainControllers({0, 1}, t);

    // Post-purge accesses observe the (emergent) locality loss.
    for (unsigned i = 0; i < 64; ++i) {
        const VAddr va = 0x10000 + (i * 64) % 4096;
        t = m.mem.access(0, m.hashSpace, va, MemOp::LOAD, t, m.whole)
                .finish;
    }
}

using Snapshot = std::vector<std::pair<std::string, std::uint64_t>>;

/** Flatten a StatGroup into ("group.counter", value) pairs. */
void
appendGroup(Snapshot &out, const StatGroup &g)
{
    for (const auto &[name, counter] : g.counters())
        out.emplace_back(g.name() + "." + name, counter.value());
}

Snapshot
snapshot(Machine &m)
{
    Snapshot s;
    appendGroup(s, m.mem.stats());
    appendGroup(s, m.net.stats());
    for (const CoreId c : {0u, 1u, 4u}) {
        appendGroup(s, m.mem.l1(c).stats());
        appendGroup(s, m.mem.l2(c).stats());
        appendGroup(s, m.mem.tlb(c).stats());
    }
    for (const McId mc : {0u, 1u}) {
        appendGroup(s, m.mem.mc(mc).stats());
        appendGroup(s, m.mem.mc(mc).dram().stats());
    }
    return s;
}

// clang-format off
const Snapshot kGolden = {
    {"mem.accesses", 1728u},
    {"mem.back_invalidations", 73u},
    {"mem.blocked_accesses", 0u},
    {"mem.dirty_forwards", 32u},
    {"mem.invalidations_sent", 46u},
    {"mem.l1_accesses", 1728u},
    {"mem.l1_misses", 1712u},
    {"mem.l1_writebacks", 361u},
    {"mem.l2_accesses", 1712u},
    {"mem.l2_evictions", 1054u},
    {"mem.l2_misses", 1350u},
    {"mem.private_purges", 4u},
    {"mem.purge_cycles", 2576u},
    {"mem.rehomed_pages", 16u},
    {"mem.tlb_misses", 83u},
    {"mem.upgrades", 16u},
    // noc.packets/noc.flits regenerated deliberately (PR 4): src == dst
    // "traversals" no longer count as NoC traffic — purely local
    // accesses used to inflate the packet/flit counters.
    {"noc.flits", 15310u},
    {"noc.isolation_violations", 0u},
    {"noc.link_stall_cycles", 105u},
    {"noc.packets", 5186u},
    {"noc.total_latency", 60359u},
    {"l1.0.dirty_evictions", 43u},
    {"l1.0.evictions", 127u},
    {"l1.0.fills", 240u},
    {"l1.0.flushed_lines", 32u},
    {"l1.0.flushes", 1u},
    {"l1.0.hits", 0u},
    {"l1.0.invalidations", 17u},
    {"l1.0.misses", 240u},
    {"l2.0.dirty_evictions", 61u},
    {"l2.0.evictions", 274u},
    {"l2.0.fills", 533u},
    {"l2.0.hits", 18u},
    {"l2.0.invalidations", 256u},
    {"l2.0.misses", 533u},
    {"tlb.0.evictions", 0u},
    {"tlb.0.fills", 6u},
    {"tlb.0.flushed_entries", 5u},
    {"tlb.0.flushes", 1u},
    {"tlb.0.hits", 234u},
    {"tlb.0.misses", 6u},
    {"l1.1.dirty_evictions", 42u},
    {"l1.1.evictions", 125u},
    {"l1.1.fills", 176u},
    {"l1.1.flushed_lines", 33u},
    {"l1.1.flushes", 1u},
    {"l1.1.hits", 16u},
    {"l1.1.invalidations", 18u},
    {"l1.1.misses", 176u},
    {"l2.1.dirty_evictions", 55u},
    {"l2.1.evictions", 268u},
    {"l2.1.fills", 527u},
    {"l2.1.hits", 12u},
    {"l2.1.invalidations", 256u},
    {"l2.1.misses", 527u},
    {"tlb.1.evictions", 0u},
    {"tlb.1.fills", 5u},
    {"tlb.1.flushed_entries", 5u},
    {"tlb.1.flushes", 1u},
    {"tlb.1.hits", 187u},
    {"tlb.1.misses", 5u},
    {"l1.4.dirty_evictions", 48u},
    {"l1.4.evictions", 240u},
    {"l1.4.fills", 256u},
    {"l1.4.hits", 0u},
    {"l1.4.invalidations", 16u},
    {"l1.4.misses", 256u},
    {"l2.4.dirty_evictions", 0u},
    {"l2.4.evictions", 0u},
    {"l2.4.fills", 19u},
    {"l2.4.hits", 24u},
    {"l2.4.invalidations", 0u},
    {"l2.4.misses", 19u},
    {"tlb.4.evictions", 8u},
    {"tlb.4.fills", 16u},
    {"tlb.4.hits", 240u},
    {"tlb.4.misses", 16u},
    {"mc.0.drained_writes", 108u},
    {"mc.0.drains", 1u},
    {"mc.0.queue_wait_cycles", 7528008u},
    {"mc.0.reads", 710u},
    {"mc.0.writes", 108u},
    {"dram.0.row_hits", 686u},
    {"dram.0.row_misses", 24u},
    {"dram.0.row_purges", 1u},
    {"mc.1.drained_writes", 112u},
    {"mc.1.drains", 1u},
    {"mc.1.queue_wait_cycles", 7934784u},
    {"mc.1.reads", 640u},
    {"mc.1.writes", 112u},
    {"dram.1.row_hits", 620u},
    {"dram.1.row_misses", 20u},
    {"dram.1.row_purges", 1u},
};
// clang-format on

} // namespace

TEST(StatsParity, FixedWorkloadCounterMapMatchesGolden)
{
    Machine m;
    runFixedWorkload(m);
    const Snapshot actual = snapshot(m);

    if (std::getenv("IH_DUMP_GOLDEN")) {
        std::printf("const Snapshot kGolden = {\n");
        for (const auto &[name, value] : actual) {
            std::printf("    {\"%s\", %lluu},\n", name.c_str(),
                        static_cast<unsigned long long>(value));
        }
        std::printf("};\n");
        GTEST_SKIP() << "dumped golden snapshot (IH_DUMP_GOLDEN set)";
    }

    ASSERT_EQ(actual.size(), kGolden.size())
        << "counter set changed size — a counter was added, removed or "
           "renamed on the access path";
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].first, kGolden[i].first) << "at index " << i;
        EXPECT_EQ(actual[i].second, kGolden[i].second)
            << "counter " << actual[i].first << " drifted";
    }
}
