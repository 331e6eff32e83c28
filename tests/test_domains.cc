/**
 * @file
 * Determinism contract of the intra-run domain workers.
 *
 * The IRONHIDE_DOMAINS knob (effectiveDomains()) fans the
 * independent sub-simulations inside one experiment — the IRONHIDE
 * split-decision probes, each a complete short run on a fresh machine —
 * out over host workers. The contract is absolute: the knob buys wall
 * time only. Every simulated result — the split Decision (probe count
 * and charged cost included), every RunResult field, and the rendered
 * sweep JSON that fig6/fig7/abl_reconfig are built from — must be
 * byte-identical at domains=1 (today's serial path) and domains=N.
 * These tests pin that contract at the decision, experiment and
 * sweep-report levels.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace ih;

namespace
{

/** A fast app spec so probe-heavy IRONHIDE runs stay quick. */
AppSpec
tiny(const char *name)
{
    AppSpec spec = findApp(name, 0.05);
    spec.interactions = 4;
    spec.insecureThreads = 2;
    spec.secureThreads = 2;
    return spec;
}

void
expectSameDecision(const ReallocPredictor::Decision &a,
                   const ReallocPredictor::Decision &b)
{
    EXPECT_EQ(a.secureCores, b.secureCores);
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_DOUBLE_EQ(a.predicted, b.predicted);
}

} // namespace

class DomainsTest : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv("IRONHIDE_DOMAINS"); }
    void TearDown() override { unsetenv("IRONHIDE_DOMAINS"); }
};

TEST_F(DomainsTest, EffectiveDomainsPrefersValidEnvOverConfig)
{
    const SysConfig cfg = SysConfig::smallTest();
    EXPECT_EQ(effectiveDomains(cfg), 1u);

    setenv("IRONHIDE_DOMAINS", "4", 1);
    EXPECT_EQ(effectiveDomains(cfg), 4u);
    setenv("IRONHIDE_DOMAINS", "0", 1); // 0 = hardware concurrency
    EXPECT_GE(effectiveDomains(cfg), 1u);
    setenv("IRONHIDE_DOMAINS", "junk", 1); // warns, falls back to 1
    EXPECT_EQ(effectiveDomains(cfg), 1u);
    setenv("IRONHIDE_DOMAINS", "-2", 1); // strtoul would wrap; rejected
    EXPECT_EQ(effectiveDomains(cfg), 1u);
    setenv("IRONHIDE_DOMAINS", "4abc", 1);
    EXPECT_EQ(effectiveDomains(cfg), 1u);
    setenv("IRONHIDE_DOMAINS", "257", 1); // over the row's bound
    EXPECT_EQ(effectiveDomains(cfg), 1u);
    setenv("IRONHIDE_DOMAINS", "", 1); // empty = unset
    EXPECT_EQ(effectiveDomains(cfg), 1u);
}

TEST_F(DomainsTest, HeuristicDecisionBitIdenticalAcrossDomainCounts)
{
    const SysConfig cfg = SysConfig::smallTest();
    const AppSpec app = tiny("<AES, QUERY>");
    const ReallocPredictor::Decision serial =
        decideSplit(app, cfg, SplitPolicy::HEURISTIC, 2, 1);
    const ReallocPredictor::Decision par2 =
        decideSplit(app, cfg, SplitPolicy::HEURISTIC, 2, 2);
    const ReallocPredictor::Decision par4 =
        decideSplit(app, cfg, SplitPolicy::HEURISTIC, 2, 4);
    expectSameDecision(serial, par2);
    expectSameDecision(serial, par4);
    EXPECT_GT(serial.probes, 0u);
}

TEST_F(DomainsTest, OptimalDecisionBitIdenticalAcrossDomainCounts)
{
    const SysConfig cfg = SysConfig::smallTest();
    const AppSpec app = tiny("<AES, QUERY>");
    const ReallocPredictor::Decision serial =
        decideSplit(app, cfg, SplitPolicy::OPTIMAL, 2, 1);
    const ReallocPredictor::Decision par =
        decideSplit(app, cfg, SplitPolicy::OPTIMAL, 2, 4);
    expectSameDecision(serial, par);
    // 16 tiles: evens 2..14 plus the +/-1 refinement probes.
    EXPECT_GE(serial.probes, 7u);
}

TEST_F(DomainsTest, ProbeFailuresSurfaceIdenticallyAcrossDomainCounts)
{
    // A probe that throws must fail the decision the same way at every
    // domain count: the parallel pool captures worker failures and
    // rethrows only at the consumption point, so speculative probes of
    // never-consumed splits cannot abort a run the serial path would
    // have completed.
    AppSpec broken = tiny("<AES, QUERY>");
    broken.make = [](const SysConfig &) -> WorkloadPair {
        throw std::runtime_error("probe boom");
    };
    const SysConfig cfg = SysConfig::smallTest();
    for (unsigned domains : {1u, 4u}) {
        try {
            decideSplit(broken, cfg, SplitPolicy::HEURISTIC, 2, domains);
            FAIL() << "expected the probe failure at domains=" << domains;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "probe boom");
        }
    }
}

TEST_F(DomainsTest, SweepReportByteIdenticalAcrossDomainCounts)
{
    // The exact pipeline the fig6/fig7/abl_reconfig benches run —
    // SweepGrid -> runSweep -> sweepToJson ("sweep/v2", summary
    // included) — with IRONHIDE_DOMAINS as the only difference
    // between the two passes. The rendered reports must be
    // byte-identical: the domain workers may only ever overlap pure
    // probe evaluations, never change them.
    const auto reportAt = [](const char *domains) {
        setenv("IRONHIDE_DOMAINS", domains, 1);
        const SysConfig cfg = SysConfig::smallTest();
        IronhideOptions opts;
        opts.probeInteractions = 2; // keep the probe runs small
        const std::vector<SweepJob> jobs =
            SweepGrid()
                .config(cfg)
                .app(tiny("<AES, QUERY>"))
                .app(tiny("<SSSP, GRAPH>"))
                .archs({ArchKind::SGX_LIKE, ArchKind::MI6,
                        ArchKind::IRONHIDE})
                .options(opts)
                .jobs();
        return sweepToJson("domains_parity", jobs, runSweep(jobs, 1));
    };

    const std::string serial = reportAt("1");
    const std::string domains4 = reportAt("4");
    EXPECT_EQ(serial, domains4);
    // Sanity: the report actually carries IRONHIDE probe decisions.
    EXPECT_NE(serial.find("\"policy\":\"heuristic\""), std::string::npos);
    EXPECT_NE(serial.find("\"probes\""), std::string::npos);
}
