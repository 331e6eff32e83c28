/**
 * @file
 * Unit tests of the simulation substrate: RNG, Zipf sampling,
 * statistics, configuration, and logging helpers.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

using namespace ih;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextRange(17), 17u);
}

TEST(Rng, RangeCoversAllValues)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.nextRange(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusive)
{
    Rng r(3);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = r.nextBetween(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        hit_lo |= v == 5;
        hit_hi |= v == 9;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, copy);
}

TEST(Zipf, HotItemsDominateWithHighTheta)
{
    Rng r(19);
    ZipfSampler zipf(10000, 0.9);
    std::uint64_t top10 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        top10 += zipf.sample(r) < 10;
    // With theta=0.9 over 10000 items, the ten hottest draw ~21% of all
    // samples (H(10,0.9)/H(10000,0.9)); allow sampling noise.
    EXPECT_GT(static_cast<double>(top10) / n, 0.17);
    EXPECT_LT(static_cast<double>(top10) / n, 0.27);
}

TEST(Zipf, SamplesWithinPopulation)
{
    Rng r(23);
    ZipfSampler zipf(100, 0.5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.sample(r), 100u);
}

TEST(Zipf, LowerThetaIsFlatter)
{
    Rng r1(29), r2(29);
    ZipfSampler hot(10000, 0.9), flat(10000, 0.2);
    std::uint64_t hot_top = 0, flat_top = 0;
    for (int i = 0; i < 20000; ++i) {
        hot_top += hot.sample(r1) < 10;
        flat_top += flat.sample(r2) < 10;
    }
    EXPECT_GT(hot_top, flat_top * 2);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, StatGroupGetOrCreate)
{
    StatGroup g("test");
    g.counter("a").inc(3);
    g.counter("a").inc(2);
    EXPECT_EQ(g.value("a"), 5u);
    EXPECT_EQ(g.value("missing"), 0u);
    g.resetAll();
    EXPECT_EQ(g.value("a"), 0u);
}

TEST(Stats, GeomeanKnownValues)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Stats, SafeDiv)
{
    EXPECT_EQ(safeDiv(4.0, 2.0), 2.0);
    EXPECT_EQ(safeDiv(4.0, 0.0), 0.0);
}

TEST(Config, DefaultsValidate)
{
    SysConfig cfg;
    cfg.validate(); // must not exit
    EXPECT_EQ(cfg.numTiles(), 64u);
    EXPECT_EQ(cfg.l1Lines(), cfg.l1Bytes / cfg.lineBytes);
    EXPECT_EQ(cfg.linesPerPage(), cfg.pageBytes / cfg.lineBytes);
}

TEST(Config, SmallTestValidates)
{
    const SysConfig cfg = SysConfig::smallTest();
    EXPECT_EQ(cfg.numTiles(), 16u);
}

TEST(Config, SetOverrides)
{
    SysConfig cfg;
    cfg.set("meshWidth", "4").set("meshHeight", "4").set("numMcs", "2");
    cfg.set("numRegions", "4");
    EXPECT_EQ(cfg.numTiles(), 16u);
    cfg.validate();
}

TEST(Config, TlbWaysValidates)
{
    SysConfig cfg;
    cfg.set("tlbWays", "4");
    cfg.validate(); // 32 entries / 4 ways = 8 sets
    cfg.tlbWays = 3; // does not divide 32
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "tlbWays must divide tlbEntries");
}

TEST(ConfigDeathTest, UnknownKeyIsFatal)
{
    SysConfig cfg;
    EXPECT_EXIT(cfg.set("noSuchKey", "1"), testing::ExitedWithCode(1),
                "unknown config key");
}

TEST(ConfigDeathTest, BadGeometryIsFatal)
{
    SysConfig cfg;
    cfg.l1Bytes = 1000; // not a power of two
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "");
}

TEST(Log, Strprintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 3, "ok"), "x=3 y=ok");
    EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(Types, DomainHelpers)
{
    EXPECT_EQ(otherDomain(Domain::SECURE), Domain::INSECURE);
    EXPECT_EQ(otherDomain(Domain::INSECURE), Domain::SECURE);
    EXPECT_STREQ(domainName(Domain::SECURE), "secure");
    EXPECT_EQ(domainIndex(Domain::SECURE), 1u);
}

TEST(Types, CycleConversions)
{
    EXPECT_EQ(usToCycles(5.0), 5000u);
    EXPECT_NEAR(cyclesToMs(2'000'000), 2.0, 1e-9);
    EXPECT_NEAR(cyclesToUs(1500), 1.5, 1e-9);
}
