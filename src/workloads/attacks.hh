/**
 * @file
 * First-class microarchitectural attack scenarios with a quantitative
 * leakage metric.
 *
 * Every scenario follows the classic prime -> victim-execute -> probe
 * shape: an *insecure* attacker process prepares some shared
 * microarchitectural structure, a *secure* victim process executes one
 * of two workloads selected by a secret bit, and the attacker then
 * takes an observation vector of the structure. Repeating this over a
 * balanced, seeded sequence of secret bits yields a trial set from
 * which analyzeTrials() computes a distinguisher accuracy (nearest
 * class-mean classifier, calibrated on the first half of the trials and
 * evaluated on the held-out second half) and converts it into a leaked
 * bits-per-trial capacity (binary-symmetric-channel bound) plus a
 * bits-per-second estimate at the simulated 1 GHz clock.
 *
 * Four channels are modeled:
 *  - LLC_OCCUPANCY:   the attacker counts its own resident L2 lines per
 *                     slice after the victim ran (occupancy prime+probe,
 *                     the generalization of examples/prime_probe_attack).
 *  - TLB_PRIME_PROBE: the attacker fills the set-associative TLB and
 *                     probes which sets the victim's translations
 *                     evicted (only meaningful with tlbWays > 0; the
 *                     scenario forces 4-way when the config is fully
 *                     associative).
 *  - NOC_LINK_TIMING: the attacker times round trips across mesh links
 *                     the victim's traffic must cross.
 *  - MC_CONTENTION:   the attacker issues fresh-page DRAM reads and
 *                     observes memory-controller queue-delay shifts
 *                     caused by victim bursts.
 *
 * Determinism contract: a run is a pure function of
 * (channel, arch, config, options) — no wall clock, no global state —
 * so results are byte-identical across host thread counts
 * (bench/abl_attacks.cc and the CI determinism leg pin this).
 */

#ifndef IH_WORKLOADS_ATTACKS_HH
#define IH_WORKLOADS_ATTACKS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/security_model.hh"
#include "cpu/exec_engine.hh"

namespace ih
{

/** The microarchitectural channel a scenario exercises. */
enum class AttackChannel : std::uint8_t
{
    LLC_OCCUPANCY = 0,
    TLB_PRIME_PROBE,
    NOC_LINK_TIMING,
    MC_CONTENTION,
};

/** Printable channel name ("llc_occupancy", ...). */
const char *attackChannelName(AttackChannel c);

/** All four channels, in enum order (the canonical report order). */
std::vector<AttackChannel> standardAttackChannels();

/** Seed of every attack run's balanced secret-bit schedule. */
constexpr std::uint64_t kAttackSeed = 0xA77AC4ULL;

/** Options of one attack run. */
struct AttackRunOptions
{
    /** Recorded trials; must be a positive multiple of 4 so both the
     *  calibration and the evaluation half contain both classes. */
    unsigned trials = 24;
};

/** Leakage metrics of one (channel, arch) attack run. */
struct LeakageResult
{
    std::string channel;
    std::string arch;
    unsigned trials = 0;
    /** Held-out distinguisher accuracy in [0, 1]; 0.5 = blind guessing. */
    double accuracy = 0.0;
    /** Channel capacity in bits per trial (1 - H2(error), clamped to 0
     *  for accuracy <= 0.5). The CI-gated leakage metric. */
    double leakBitsPerTrial = 0.0;
    /** Capacity x trial rate at the simulated 1 GHz clock. */
    double bitsPerSec = 0.0;
    /** Euclidean distance between the two class-mean observations. */
    double signal = 0.0;
    double meanTrialCycles = 0.0;

    bool leaks() const { return leakBitsPerTrial > 0.0; }
};

/** One attacker observation: a vector of structure readings. */
using Observation = std::vector<double>;

/** One recorded trial (analyzeTrials() input; exposed for unit tests). */
struct TrialSample
{
    unsigned bit = 0;
    Observation obs;
    Cycle cycles = 0;
};

/**
 * Fold a trial set into leakage metrics: calibrate class means on the
 * first half, classify the second half by nearest mean (exact ties
 * score 0.5), convert the accuracy into a BSC capacity. All samples
 * must share one observation dimension and each half must contain both
 * classes (balancedSecretBits() guarantees this by construction).
 */
LeakageResult analyzeTrials(const std::string &channel,
                            const std::string &arch,
                            const std::vector<TrialSample> &samples);

/**
 * The victim's secret-bit schedule: each half of the trial sequence is
 * an independent seeded shuffle of trials/4 zeros and trials/4 ones, so
 * class balance holds per half, not just overall.
 */
std::vector<unsigned> balancedSecretBits(unsigned trials,
                                         std::uint64_t seed);

/**
 * One attacker/victim pair on a fresh machine under an architecture.
 *
 * The attacker is a 1-thread INSECURE process, the victim a 1-thread
 * SECURE process provisioned with the honest vendor key; the security
 * model places both and installs its partitions/checks. Time is a
 * single logical clock (now): victimPhase() brackets the victim's work
 * in the enclave entry/exit protocol, and the attacker probes either
 * concurrently with the victim window (spatial/no-protection models) or
 * after exit (MI6's exclusive secure execution), via probeTime().
 */
class AttackRig
{
  public:
    AttackRig(ArchKind kind, const SysConfig &cfg);

    System sys;
    std::unique_ptr<SecurityModel> model;
    Process *attacker = nullptr;
    Process *victim = nullptr;
    Cycle now = 0;
    Cycle victimStart = 0; ///< post-entry time of the last victim phase
    Cycle victimEnd = 0;   ///< pre-exit time of the last victim phase

    CoreId attackerCore() const { return attacker->cores().front(); }
    CoreId victimCore() const { return victim->cores().front(); }

    /** May the attacker run while the victim executes? */
    bool concurrentVictim() const
    {
        return !model->exclusiveSecureExecution();
    }

    /**
     * The core whose *private* structures (TLB, L1) the attacker can
     * share with the victim: under temporal architectures cores are
     * time-shared, so the scheduler may place the attacker on the
     * victim's core between enclave windows; a spatial architecture
     * pins the attacker inside its own cluster, out of reach.
     */
    CoreId
    sharedCoreWithVictim() const
    {
        return model->spatial() ? attackerCore() : victimCore();
    }

    /** Run @p fn as the victim inside an enclaveEnter/Exit bracket. */
    void victimPhase(const std::function<void(ExecContext &)> &fn);

    /** A fresh single-thread attacker context at the current time. */
    ExecContext
    attackerCtx()
    {
        return ExecContext(sys.engine(), *attacker, 0, 1, attackerCore(),
                           now);
    }

    /** One attacker memory access issued at an explicit time. */
    AccessResult attackerAccessAt(VAddr va, MemOp op, Cycle when);

    /** Like attackerAccessAt(), from an explicitly chosen core (the
     *  TLB scenario probes on sharedCoreWithVictim()). */
    AccessResult attackerAccessOn(CoreId core, VAddr va, MemOp op,
                                  Cycle when);

    /**
     * Issue time of probe @p k (spaced @p stride cycles apart): inside
     * the victim window for concurrent architectures, after exit
     * otherwise. Probing "into the past" of an already-executed victim
     * window is sound because the NoC links and memory controllers are
     * next-free-time reservation models — the attacker's late query at
     * time t observes exactly the contention a concurrent probe at t
     * would have seen.
     */
    Cycle
    probeTime(unsigned k, Cycle stride) const
    {
        const Cycle base = concurrentVictim() ? victimStart : now;
        return base + static_cast<Cycle>(k) * stride;
    }
};

/** One attack scenario: prime -> victim-execute -> probe. */
class AttackScenario
{
  public:
    virtual ~AttackScenario() = default;

    virtual const char *name() const = 0;

    /** Adjust the config the rig is built with (e.g. force a
     *  set-associative TLB). Default: no change. */
    virtual void
    tweakConfig(SysConfig &cfg) const
    {
        (void)cfg;
    }

    /** One-time allocation of attacker state (after the rig exists). */
    virtual void
    setup(AttackRig &rig)
    {
        (void)rig;
    }

    /** Attacker: prepare the probed structure. */
    virtual void prime(AttackRig &rig) = 0;

    /** Victim: execute the workload selected by @p secret_bit. */
    virtual void victimExecute(AttackRig &rig, unsigned secret_bit) = 0;

    /** Attacker: read the structure back as an observation vector. */
    virtual Observation probe(AttackRig &rig) = 0;
};

/** Construct the scenario for @p channel. */
std::unique_ptr<AttackScenario> makeAttack(AttackChannel channel);

/**
 * Run one full attack: build a fresh machine under @p kind (with the
 * scenario's config tweaks applied to @p base_cfg), run two unrecorded
 * warmup rounds (one per class, reaching cache/allocator steady state),
 * then opts.trials recorded rounds over the balanced secret-bit
 * schedule, and analyze. Pure function of its arguments.
 */
LeakageResult runAttack(AttackChannel channel, ArchKind kind,
                        const SysConfig &base_cfg,
                        const AttackRunOptions &opts = {});

} // namespace ih

#endif // IH_WORKLOADS_ATTACKS_HH
