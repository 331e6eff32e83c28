#include "workloads/attacks.hh"

#include <algorithm>
#include <cmath>

#include "core/mi6.hh"
#include "core/secure_kernel.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace ih
{

const char *
attackChannelName(AttackChannel c)
{
    switch (c) {
      case AttackChannel::LLC_OCCUPANCY:
        return "llc_occupancy";
      case AttackChannel::TLB_PRIME_PROBE:
        return "tlb_prime_probe";
      case AttackChannel::NOC_LINK_TIMING:
        return "noc_link_timing";
      case AttackChannel::MC_CONTENTION:
        return "mc_contention";
    }
    return "?";
}

std::vector<AttackChannel>
standardAttackChannels()
{
    return {AttackChannel::LLC_OCCUPANCY, AttackChannel::TLB_PRIME_PROBE,
            AttackChannel::NOC_LINK_TIMING, AttackChannel::MC_CONTENTION};
}

// --------------------------------------------------------------------------
// AttackRig
// --------------------------------------------------------------------------

AttackRig::AttackRig(ArchKind kind, const SysConfig &cfg) : sys(cfg)
{
    attacker = &sys.createProcess("attacker", Domain::INSECURE, 1);
    victim = &sys.createProcess("victim", Domain::SECURE, 1);
    SecureKernel vendor(sys, MulticoreMi6::defaultVendorKey());
    vendor.provision(*victim);
    model = createModel(kind, sys);
    now = model->configure({attacker, victim}, 0);
}

void
AttackRig::victimPhase(const std::function<void(ExecContext &)> &fn)
{
    victimStart = model->enclaveEnter(*victim, now);
    ExecContext ctx(sys.engine(), *victim, 0, 1, victimCore(),
                    victimStart);
    fn(ctx);
    victimEnd = ctx.now();
    now = model->enclaveExit(*victim, victimEnd);
}

AccessResult
AttackRig::attackerAccessAt(VAddr va, MemOp op, Cycle when)
{
    return attackerAccessOn(attackerCore(), va, op, when);
}

AccessResult
AttackRig::attackerAccessOn(CoreId core, VAddr va, MemOp op, Cycle when)
{
    return sys.mem().access(core, attacker->space(), va, op, when,
                            attacker->cluster());
}

// --------------------------------------------------------------------------
// Shared victim workload: a secret-dependent burst
// --------------------------------------------------------------------------

namespace
{

/**
 * The victim's secret-dependent memory burst for the contention
 * channels: the secret bit selects a heavy streaming scan (1/16 of the
 * LLC) or a light one (1/16 of that, at least 8 lines). Every trial
 * scans a *fresh* buffer, so the burst's DRAM traffic does not fade as
 * the victim's caches warm up.
 */
void
victimBurst(AttackRig &rig, unsigned secret_bit)
{
    const SysConfig &cfg = rig.sys.config();
    const std::size_t heavy_lines =
        static_cast<std::size_t>(cfg.l2SliceLines()) * cfg.numTiles() / 16;
    const std::size_t lines =
        secret_bit ? heavy_lines : std::max<std::size_t>(heavy_lines / 16, 8);
    const std::size_t words = lines * (cfg.lineBytes / sizeof(std::uint64_t));
    rig.victimPhase([&](ExecContext &ctx) {
        SimArray<std::uint64_t> buf;
        buf.init(*rig.victim, words);
        buf.scan(ctx, 0, buf.size(), MemOp::LOAD);
    });
}

// --------------------------------------------------------------------------
// Channel 1: LLC occupancy prime+probe
// --------------------------------------------------------------------------

class LlcOccupancyAttack : public AttackScenario
{
  public:
    const char *name() const override { return "llc_occupancy"; }

    void
    setup(AttackRig &rig) override
    {
        // A buffer covering the *whole* LLC: under a partitioned L2 the
        // attacker can only ever occupy its own partition (the scan
        // reaches a self-evicting steady state there); under shared
        // hash homing it contends with the victim everywhere.
        const SysConfig &cfg = rig.sys.config();
        const std::size_t bytes =
            static_cast<std::size_t>(cfg.l2SliceBytes) * cfg.numTiles();
        prime_.init(*rig.attacker, bytes / sizeof(std::uint64_t));
    }

    void
    prime(AttackRig &rig) override
    {
        ExecContext ctx = rig.attackerCtx();
        prime_.scan(ctx, 0, prime_.size(), MemOp::LOAD);
        rig.now = ctx.now();
    }

    void
    victimExecute(AttackRig &rig, unsigned secret_bit) override
    {
        // Secret-dependent working-set size: a quarter-LLC scan evicts
        // a large share of the attacker's primed lines wherever homing
        // is shared; four pages barely dent it.
        const SysConfig &cfg = rig.sys.config();
        const std::size_t heavy =
            static_cast<std::size_t>(cfg.l2SliceBytes) * cfg.numTiles() / 4;
        const std::size_t light =
            static_cast<std::size_t>(cfg.pageBytes) * 4;
        const std::size_t words =
            (secret_bit ? heavy : light) / sizeof(std::uint64_t);
        rig.victimPhase([&](ExecContext &ctx) {
            SimArray<std::uint64_t> buf;
            buf.init(*rig.victim, words);
            buf.scan(ctx, 0, buf.size(), MemOp::LOAD);
        });
    }

    Observation
    probe(AttackRig &rig) override
    {
        // Occupancy census: how many of the attacker's own lines are
        // still resident, per L2 slice. Read-only (no stats, no LRU
        // movement) — the timing-channel equivalent would re-scan the
        // buffer and time each line; the census is the same information
        // without the megabytes of extra simulated traffic.
        MemorySystem &mem = rig.sys.mem();
        Observation obs;
        obs.reserve(mem.numTiles());
        for (CoreId s = 0; s < mem.numTiles(); ++s) {
            obs.push_back(static_cast<double>(
                mem.l2(s).validLinesOfProc(rig.attacker->id())));
        }
        return obs;
    }

  private:
    SimArray<std::uint64_t> prime_;
};

// --------------------------------------------------------------------------
// Channel 2: TLB prime+probe (set-associative TLB + way predictor)
// --------------------------------------------------------------------------

class TlbPrimeProbeAttack : public AttackScenario
{
  public:
    const char *name() const override { return "tlb_prime_probe"; }

    void
    tweakConfig(SysConfig &cfg) const override
    {
        // The paper's fully associative TLB has no set structure to
        // probe; the scenario targets the set-associative geometry
        // (PR 3's TLB + way predictor). Default to 4-way when the base
        // config is fully associative.
        if (cfg.tlbWays == 0)
            cfg.tlbWays = 4;
    }

    void
    setup(AttackRig &rig) override
    {
        const SysConfig &cfg = rig.sys.config();
        pages_ = cfg.tlbEntries; // exactly fills the TLB: ways per set
        perPage_ = cfg.pageBytes / sizeof(std::uint64_t);
        const std::size_t words =
            static_cast<std::size_t>(pages_) * perPage_;
        attackerPages_.init(*rig.attacker, words);
        victimPages_.init(*rig.victim, words);
    }

    void
    prime(AttackRig &rig) override
    {
        // Touch one line of each page: consecutive vpages fill every
        // TLB set with exactly `ways` attacker entries. Primed on the
        // core the attacker can time-share with the victim — on a
        // spatial architecture that is only its own pinned core.
        const CoreId core = rig.sharedCoreWithVictim();
        for (unsigned p = 0; p < pages_; ++p) {
            const AccessResult r = rig.attackerAccessOn(
                core,
                attackerPages_.addrOf(static_cast<std::size_t>(p) *
                                      perPage_),
                MemOp::LOAD, rig.now);
            rig.now = r.finish;
        }
    }

    void
    victimExecute(AttackRig &rig, unsigned secret_bit) override
    {
        // The secret selects which TLB sets the victim's translations
        // land in (even or odd sets). On a time-shared core those
        // fills evict the attacker's entries from exactly those sets.
        Tlb &tlb = rig.sys.mem().tlb(rig.victimCore());
        rig.victimPhase([&](ExecContext &ctx) {
            for (unsigned p = 0; p < pages_; ++p) {
                const std::size_t i =
                    static_cast<std::size_t>(p) * perPage_;
                if ((tlb.setOf(victimPages_.addrOf(i)) & 1u) ==
                    (secret_bit & 1u)) {
                    (void)victimPages_.read(ctx, i);
                }
            }
        });
    }

    Observation
    probe(AttackRig &rig) override
    {
        // Re-touch every primed page; a TLB miss marks a set the victim
        // displaced (the access result's tlbHit flag is the attacker's
        // own page-walk-latency measurement).
        const CoreId core = rig.sharedCoreWithVictim();
        Observation obs;
        obs.reserve(pages_);
        for (unsigned p = 0; p < pages_; ++p) {
            const AccessResult r = rig.attackerAccessOn(
                core,
                attackerPages_.addrOf(static_cast<std::size_t>(p) *
                                      perPage_),
                MemOp::LOAD, rig.now);
            rig.now = r.finish;
            obs.push_back(r.tlbHit ? 0.0 : 1.0);
        }
        return obs;
    }

  private:
    unsigned pages_ = 0;
    std::size_t perPage_ = 0;
    SimArray<std::uint64_t> attackerPages_;
    SimArray<std::uint64_t> victimPages_;
};

// --------------------------------------------------------------------------
// Channel 3: NoC link-contention timing
// --------------------------------------------------------------------------

class NocLinkTimingAttack : public AttackScenario
{
  public:
    const char *name() const override { return "noc_link_timing"; }

    void
    prime(AttackRig &rig) override
    {
        (void)rig; // nothing to prepare: the links are the structure
    }

    void
    victimExecute(AttackRig &rig, unsigned secret_bit) override
    {
        victimBurst(rig, secret_bit);
    }

    Observation
    probe(AttackRig &rig) override
    {
        // Time round trips between the attacker's farthest-apart cores
        // at fixed offsets into the probe window: while the victim's
        // burst keeps crossing shared links, the round trips stall on
        // reserved link slots; once it quiesces they run unloaded. The
        // *number* of slow probes encodes the burst duration.
        Network &net = rig.sys.network();
        const CoreId src = rig.attacker->cores().front();
        const CoreId dst = rig.attacker->cores().back();
        Observation obs;
        obs.reserve(PROBES);
        Cycle last = rig.now;
        for (unsigned k = 0; k < PROBES; ++k) {
            const Cycle at = rig.probeTime(k, STRIDE);
            const Cycle fin =
                net.roundTrip(src, dst, at, 1, 1, rig.attacker->cluster());
            obs.push_back(static_cast<double>(fin - at));
            last = std::max(last, fin);
        }
        rig.now = std::max(rig.now, last);
        return obs;
    }

  private:
    static constexpr unsigned PROBES = 16;
    static constexpr Cycle STRIDE = 4096;
};

// --------------------------------------------------------------------------
// Channel 4: DRAM / memory-controller contention
// --------------------------------------------------------------------------

class McContentionAttack : public AttackScenario
{
  public:
    const char *name() const override { return "mc_contention"; }

    void
    setup(AttackRig &rig) override
    {
        // One probe per allowed home slice: a full rotation of the
        // space's round-robin page placement per trial, so the probe
        // addresses' home-slice/region phase is identical every trial.
        probes_ = static_cast<unsigned>(
            rig.attacker->space().allowedSlices().size());
        perPage_ = rig.sys.config().pageBytes / sizeof(std::uint64_t);
    }

    void
    prime(AttackRig &rig) override
    {
        (void)rig; // the controllers' queues are the structure
    }

    void
    victimExecute(AttackRig &rig, unsigned secret_bit) override
    {
        victimBurst(rig, secret_bit);
    }

    Observation
    probe(AttackRig &rig) override
    {
        // Fresh-page reads: each probe touches a page never seen
        // before, so TLB walk, cache misses and the DRAM row miss
        // (pages span whole rows) cost the same every trial — the only
        // variable component is the controller queue wait behind the
        // victim's burst.
        SimArray<std::uint64_t> buf;
        buf.init(*rig.attacker,
                 static_cast<std::size_t>(probes_) * perPage_);
        Observation obs;
        obs.reserve(probes_);
        Cycle last = rig.now;
        for (unsigned k = 0; k < probes_; ++k) {
            const Cycle at = rig.probeTime(k, STRIDE);
            const AccessResult r = rig.attackerAccessAt(
                buf.addrOf(static_cast<std::size_t>(k) * perPage_),
                MemOp::LOAD, at);
            obs.push_back(static_cast<double>(r.finish - at));
            last = std::max(last, r.finish);
        }
        rig.now = std::max(rig.now, last);
        return obs;
    }

  private:
    unsigned probes_ = 0;
    std::size_t perPage_ = 0;
    static constexpr Cycle STRIDE = 4096;
};

} // namespace

std::unique_ptr<AttackScenario>
makeAttack(AttackChannel channel)
{
    switch (channel) {
      case AttackChannel::LLC_OCCUPANCY:
        return std::make_unique<LlcOccupancyAttack>();
      case AttackChannel::TLB_PRIME_PROBE:
        return std::make_unique<TlbPrimeProbeAttack>();
      case AttackChannel::NOC_LINK_TIMING:
        return std::make_unique<NocLinkTimingAttack>();
      case AttackChannel::MC_CONTENTION:
        return std::make_unique<McContentionAttack>();
    }
    fatal("unknown attack channel %u", static_cast<unsigned>(channel));
}

// --------------------------------------------------------------------------
// Trial schedule and analysis
// --------------------------------------------------------------------------

std::vector<unsigned>
balancedSecretBits(unsigned trials, std::uint64_t seed)
{
    IH_ASSERT(trials >= 4 && trials % 4 == 0,
              "attack trials must be a positive multiple of 4 (got %u)",
              trials);
    Rng rng(seed);
    std::vector<unsigned> bits;
    bits.reserve(trials);
    for (unsigned half = 0; half < 2; ++half) {
        std::vector<unsigned> part(trials / 2, 0);
        for (unsigned i = trials / 4; i < trials / 2; ++i)
            part[i] = 1;
        rng.shuffle(part);
        bits.insert(bits.end(), part.begin(), part.end());
    }
    return bits;
}

namespace
{

double
squaredDistance(const Observation &a, const Observation &b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = a[i] - b[i];
        d += x * x;
    }
    return d;
}

/** Binary entropy H2(e) in bits; 0 at e in {0, 1}. */
double
binaryEntropy(double e)
{
    if (e <= 0.0 || e >= 1.0)
        return 0.0;
    return -e * std::log2(e) - (1.0 - e) * std::log2(1.0 - e);
}

} // namespace

LeakageResult
analyzeTrials(const std::string &channel, const std::string &arch,
              const std::vector<TrialSample> &samples)
{
    const std::size_t n = samples.size();
    IH_ASSERT(n >= 4 && n % 2 == 0,
              "analyzeTrials needs an even trial count >= 4 (got %zu)", n);
    const std::size_t dim = samples[0].obs.size();
    const std::size_t half = n / 2;

    // Calibration: class-mean observations over the first half.
    Observation mean[2] = {Observation(dim, 0.0), Observation(dim, 0.0)};
    std::size_t count[2] = {0, 0};
    for (std::size_t i = 0; i < half; ++i) {
        const TrialSample &s = samples[i];
        IH_ASSERT(s.obs.size() == dim && s.bit <= 1,
                  "malformed trial %zu (dim %zu, bit %u)", i,
                  s.obs.size(), s.bit);
        ++count[s.bit];
        for (std::size_t d = 0; d < dim; ++d)
            mean[s.bit][d] += s.obs[d];
    }
    IH_ASSERT(count[0] > 0 && count[1] > 0,
              "calibration half missing a class (%zu/%zu)", count[0],
              count[1]);
    for (unsigned b = 0; b < 2; ++b) {
        for (std::size_t d = 0; d < dim; ++d)
            mean[b][d] /= static_cast<double>(count[b]);
    }

    // Evaluation: nearest class mean on the held-out half. Exact
    // distance ties (the zero-leakage case: both means identical) score
    // as a fair coin — accuracy 0.5 by construction, not by sampling.
    double correct = 0.0;
    for (std::size_t i = half; i < n; ++i) {
        const TrialSample &s = samples[i];
        IH_ASSERT(s.obs.size() == dim && s.bit <= 1,
                  "malformed trial %zu (dim %zu, bit %u)", i,
                  s.obs.size(), s.bit);
        const double d0 = squaredDistance(s.obs, mean[0]);
        const double d1 = squaredDistance(s.obs, mean[1]);
        if (d0 == d1)
            correct += 0.5;
        else if ((d0 < d1 ? 0u : 1u) == s.bit)
            correct += 1.0;
    }

    LeakageResult r;
    r.channel = channel;
    r.arch = arch;
    r.trials = static_cast<unsigned>(n);
    r.accuracy = correct / static_cast<double>(n - half);
    // BSC capacity of the distinguisher, clamped: at-or-below-chance
    // accuracy means the attacker learned nothing.
    r.leakBitsPerTrial = r.accuracy <= 0.5
                             ? 0.0
                             : 1.0 - binaryEntropy(1.0 - r.accuracy);
    r.signal = std::sqrt(squaredDistance(mean[0], mean[1]));
    double total_cycles = 0.0;
    for (const TrialSample &s : samples)
        total_cycles += static_cast<double>(s.cycles);
    r.meanTrialCycles = total_cycles / static_cast<double>(n);
    r.bitsPerSec = r.meanTrialCycles > 0.0
                       ? r.leakBitsPerTrial * 1e9 / r.meanTrialCycles
                       : 0.0;
    return r;
}

// --------------------------------------------------------------------------
// runAttack
// --------------------------------------------------------------------------

LeakageResult
runAttack(AttackChannel channel, ArchKind kind, const SysConfig &base_cfg,
          const AttackRunOptions &opts)
{
    std::unique_ptr<AttackScenario> scenario = makeAttack(channel);
    SysConfig cfg = base_cfg;
    scenario->tweakConfig(cfg);
    cfg.validate();

    AttackRig rig(kind, cfg);
    scenario->setup(rig);

    const std::vector<unsigned> bits =
        balancedSecretBits(opts.trials, kAttackSeed);

    // Two unrecorded warmup rounds (one per class): the attacker's
    // primed state and the allocators reach their steady state before
    // anything is measured.
    for (unsigned b : {0u, 1u}) {
        scenario->prime(rig);
        scenario->victimExecute(rig, b);
        (void)scenario->probe(rig);
    }

    std::vector<TrialSample> samples;
    samples.reserve(opts.trials);
    for (unsigned i = 0; i < opts.trials; ++i) {
        const Cycle t0 = rig.now;
        scenario->prime(rig);
        scenario->victimExecute(rig, bits[i]);
        Observation obs = scenario->probe(rig);
        samples.push_back({bits[i], std::move(obs), rig.now - t0});
    }
    return analyzeTrials(attackChannelName(channel), archName(kind),
                         samples);
}

} // namespace ih
