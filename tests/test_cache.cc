/**
 * @file
 * Cache tag-store and LRU replacement tests.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "sim/rng.hh"

using namespace ih;

namespace
{

/** 1 KiB, 2-way, 64 B lines -> 8 sets. */
Cache
smallCache()
{
    return Cache("t", 1024, 2, 64);
}

} // namespace

TEST(Cache, Geometry)
{
    Cache c = smallCache();
    EXPECT_EQ(c.numSets(), 8u);
    EXPECT_EQ(c.assoc(), 2u);
    EXPECT_EQ(c.capacityLines(), 16u);
    EXPECT_EQ(c.lineAddrOf(0x1234), 0x1200u);
    EXPECT_EQ(c.setOf(0x0000), c.setOf(0x2000)); // 8 sets * 64 B period
}

TEST(Cache, MissThenHit)
{
    Cache c = smallCache();
    EXPECT_EQ(c.lookup(0x100), nullptr);
    c.insert(0x100, 1, Domain::SECURE);
    CacheLine *line = c.lookup(0x100);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->ownerProc, 1u);
    EXPECT_EQ(line->ownerDomain, Domain::SECURE);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameSetEvictionIsLru)
{
    Cache c = smallCache();
    const Addr a = 0x0000, b = 0x0200, d = 0x0400; // same set (stride 512)
    c.insert(a, 0, Domain::INSECURE);
    c.insert(b, 0, Domain::INSECURE);
    c.lookup(a); // a is now MRU
    const Eviction ev = c.insert(d, 0, Domain::INSECURE);
    ASSERT_TRUE(ev.happened);
    EXPECT_EQ(ev.victim.lineAddr, b);
    EXPECT_NE(c.peek(a), nullptr);
    EXPECT_EQ(c.peek(b), nullptr);

    // 4 ways x 2 sets: a re-touched way survives, and each set picks
    // its own victim. Set 1 fills in the reverse order of set 0.
    Cache w4("t4", 2 * 4 * 64, 4, 64);
    ASSERT_EQ(w4.numSets(), 2u);
    const auto in_set = [](unsigned set, unsigned i) -> Addr {
        return (2 * i + set) * 64;
    };
    for (unsigned i = 0; i < 4; ++i) {
        w4.insert(in_set(0, i), 0, Domain::INSECURE);
        w4.insert(in_set(1, 3 - i), 0, Domain::INSECURE);
    }
    w4.lookup(in_set(0, 0)); // set 0's oldest line is now its MRU
    const Eviction ev0 = w4.insert(in_set(0, 4), 0, Domain::INSECURE);
    ASSERT_TRUE(ev0.happened);
    EXPECT_EQ(ev0.victim.lineAddr, in_set(0, 1));
    EXPECT_NE(w4.peek(in_set(0, 0)), nullptr);
    const Eviction ev1 = w4.insert(in_set(1, 4), 0, Domain::INSECURE);
    ASSERT_TRUE(ev1.happened);
    EXPECT_EQ(ev1.victim.lineAddr, in_set(1, 3));
}

TEST(Cache, InsertIntoFreeWayNoEviction)
{
    Cache c = smallCache();
    EXPECT_FALSE(c.insert(0x000, 0, Domain::INSECURE).happened);
    EXPECT_FALSE(c.insert(0x200, 0, Domain::INSECURE).happened);
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c = smallCache();
    c.insert(0x000, 0, Domain::INSECURE);
    c.lookup(0x000)->dirty = true;
    c.insert(0x200, 0, Domain::INSECURE);
    const Eviction ev = c.insert(0x400, 0, Domain::INSECURE);
    ASSERT_TRUE(ev.happened);
    EXPECT_TRUE(ev.victim.dirty);
    EXPECT_EQ(c.stats().value("dirty_evictions"), 1u);
}

TEST(Cache, InvalidateLine)
{
    Cache c = smallCache();
    c.insert(0x100, 2, Domain::SECURE);
    auto dropped = c.invalidateLine(0x100);
    ASSERT_TRUE(dropped.has_value());
    EXPECT_EQ(dropped->ownerProc, 2u);
    EXPECT_EQ(c.peek(0x100), nullptr);
    EXPECT_FALSE(c.invalidateLine(0x100).has_value());
}

TEST(Cache, FlushAllReallyErasesEverything)
{
    Cache c = smallCache();
    for (Addr a = 0; a < 1024; a += 64)
        c.insert(a, 0, Domain::SECURE);
    c.lookup(0x40)->dirty = true;
    unsigned dirty_seen = 0;
    const unsigned flushed = c.flushAll(
        [&](const CacheLine &line) {
            ++dirty_seen;
            EXPECT_EQ(line.lineAddr, 0x40u);
        });
    EXPECT_EQ(flushed, 16u);
    EXPECT_EQ(dirty_seen, 1u);
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_EQ(c.validLinesOf(Domain::SECURE), 0u);
}

TEST(Cache, ValidLinesByDomain)
{
    Cache c = smallCache();
    c.insert(0x000, 0, Domain::SECURE);
    c.insert(0x040, 1, Domain::INSECURE);
    c.insert(0x080, 0, Domain::SECURE);
    EXPECT_EQ(c.validLinesOf(Domain::SECURE), 2u);
    EXPECT_EQ(c.validLinesOf(Domain::INSECURE), 1u);
}

TEST(Cache, FindLineDoesNotTouchStats)
{
    Cache c = smallCache();
    c.insert(0x100, 0, Domain::INSECURE);
    const auto hits = c.hits();
    const auto misses = c.misses();
    EXPECT_NE(c.findLine(0x100), nullptr);
    EXPECT_EQ(c.findLine(0x999000), nullptr);
    EXPECT_EQ(c.hits(), hits);
    EXPECT_EQ(c.misses(), misses);
}

TEST(Cache, PeekDoesNotPerturbLru)
{
    Cache c = smallCache();
    c.insert(0x000, 0, Domain::INSECURE);
    c.insert(0x200, 0, Domain::INSECURE);
    // Peek at the LRU line (0x000 was inserted first, then 0x200
    // touched later); peeking must not promote it.
    c.peek(0x000);
    const Eviction ev = c.insert(0x400, 0, Domain::INSECURE);
    ASSERT_TRUE(ev.happened);
    EXPECT_EQ(ev.victim.lineAddr, 0x000u);
}

TEST(Cache, ForEachLineVisitsValidOnly)
{
    Cache c = smallCache();
    c.insert(0x000, 0, Domain::INSECURE);
    c.insert(0x040, 0, Domain::INSECURE);
    c.invalidateLine(0x000);
    unsigned n = 0;
    c.forEachLine([&](const CacheLine &) { ++n; });
    EXPECT_EQ(n, 1u);
}

TEST(Cache, OccupancyCountTracksEveryValidityChange)
{
    // A flush skips the scan when the occupancy count says the cache is
    // empty, so a count that drifts low would let lines survive a purge.
    // Seeded mix of fills, evictions, invalidations and flushes over 4x
    // the capacity; the count must equal a full recount after every
    // step.
    Cache c = smallCache(); // 16 lines
    Rng rng(0x0CC);
    unsigned flushes = 0, flushed = 0;
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.nextRange(64) * 64;
        const std::uint64_t op = rng.nextRange(100);
        if (op < 60) {
            if (CacheLine *line = c.lookup(a))
                line->dirty = true;
            else
                c.insert(a, 0, Domain::INSECURE);
        } else if (op < 90) {
            c.invalidateLine(a);
        } else {
            const unsigned before = c.validLines();
            const unsigned n = c.flushAll();
            EXPECT_EQ(n, before) << "i=" << i;
            ++flushes;
            flushed += n;
        }
        ASSERT_EQ(c.occupancy(), c.validLines()) << "i=" << i;
    }
    EXPECT_GT(c.stats().value("evictions"), 100u);
    EXPECT_GT(c.stats().value("invalidations"), 100u);
    EXPECT_EQ(c.stats().value("flushes"), flushes);
    EXPECT_EQ(c.stats().value("flushed_lines"), flushed);
}

TEST(Cache, FlushedCacheEvictsLikeAFreshOne)
{
    // A flush leaves the LRU stamps as they were. That is safe only
    // because a victim is chosen in a full set, whose every way was
    // touched by its fill after the flush. Pin it: after a flush, a
    // seeded sequence of fills and hits must evict exactly what a fresh
    // cache evicts.
    for (unsigned assoc : {2u, 3u, 4u}) {
        const unsigned bytes = 8 * assoc * 64; // 8 sets
        Cache used("u", bytes, assoc, 64);
        Cache fresh("f", bytes, assoc, 64);
        Rng warm(assoc);
        for (int i = 0; i < 2000; ++i) {
            const Addr a = warm.nextRange(96) * 64;
            if (!used.lookup(a))
                used.insert(a, 0, Domain::INSECURE);
        }
        used.flushAll();
        Rng replay(0xF1u + assoc);
        unsigned evictions = 0;
        for (int i = 0; i < 4000; ++i) {
            const Addr a = replay.nextRange(96) * 64;
            const bool hit = used.lookup(a) != nullptr;
            ASSERT_EQ(hit, fresh.lookup(a) != nullptr)
                << assoc << " i=" << i;
            if (hit)
                continue;
            const Eviction ev_used = used.insert(a, 0, Domain::INSECURE);
            const Eviction ev_fresh = fresh.insert(a, 0, Domain::INSECURE);
            ASSERT_EQ(ev_used.happened, ev_fresh.happened)
                << assoc << " i=" << i;
            ASSERT_EQ(ev_used.victim.lineAddr, ev_fresh.victim.lineAddr)
                << assoc << " i=" << i;
            evictions += ev_used.happened ? 1 : 0;
        }
        EXPECT_GT(evictions, 1000u) << assoc;
    }
}

TEST(Cache, MissRateComputation)
{
    Cache c = smallCache();
    c.lookup(0x0); // miss
    c.insert(0x0, 0, Domain::INSECURE);
    c.lookup(0x0); // hit
    c.lookup(0x0); // hit
    EXPECT_NEAR(c.missRate(), 1.0 / 3.0, 1e-9);
}

/** Property: after filling N distinct lines <= capacity with unique set
 *  mapping, all are resident (no spurious evictions). */
class CacheFillProperty
    : public testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheFillProperty, FullOccupancyWithoutConflicts)
{
    const auto [sets, assoc] = GetParam();
    Cache c("p", sets * assoc * 64, assoc, 64);
    for (unsigned s = 0; s < sets; ++s) {
        for (unsigned w = 0; w < assoc; ++w) {
            const Addr a = (static_cast<Addr>(w) * sets + s) * 64;
            EXPECT_FALSE(c.insert(a, 0, Domain::INSECURE).happened);
        }
    }
    EXPECT_EQ(c.validLines(), sets * assoc);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFillProperty,
    testing::Values(std::make_tuple(1u, 1u), std::make_tuple(8u, 2u),
                    std::make_tuple(64u, 4u), std::make_tuple(16u, 8u),
                    std::make_tuple(128u, 16u)));
