/**
 * @file
 * Interactive applications: one insecure producer process + one secure
 * consumer process exchanging batches through the shared IPC buffer, and
 * the driver that sequences their phases under a security architecture.
 *
 * Every interaction runs the produce phase, performs the enclave entry
 * protocol (MI6: purge; SGX: constant cost; insecure and IRONHIDE:
 * nothing), runs the consume phase, and performs the exit protocol.
 * The producer pipelines ahead of the consumer, bounded by the IPC ring
 * depth. AppInstance::interact is that protocol, the one loop that both
 * InteractiveApp::run and SessionServer::serve drive.
 *
 * Under the *spatial* IRONHIDE architecture the processes run in their
 * own clusters. The one-time cluster reconfiguration happens at the end
 * of the warmup window, charged to the measured completion time.
 */

#ifndef IH_WORKLOADS_INTERACTIVE_APP_HH
#define IH_WORKLOADS_INTERACTIVE_APP_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/security_model.hh"
#include "workloads/workload.hh"

namespace ih
{

/** The two halves of an application (insecure owns the IPC streams). */
struct WorkloadPair
{
    std::unique_ptr<InteractiveWorkload> insecure;
    std::unique_ptr<InteractiveWorkload> secure;
};

/** Static description of one benchmark application. */
struct AppSpec
{
    std::string name;           ///< e.g. "<SSSP, GRAPH>"
    std::string insecureName;   ///< producer process name
    std::string secureName;     ///< consumer process name
    unsigned insecureThreads = 32;
    unsigned secureThreads = 32;
    std::uint64_t interactions = 100;
    bool osLevel = false;
    /**
     * Producer run-ahead bound. User-level producers (sensor feeds,
     * vision pipelines, query generators) stream asynchronously and may
     * run one batch ahead; OS-level interactions are synchronous RPCs
     * (the server blocks in the OCALL until the OS replies), i.e.
     * depth 1.
     */
    unsigned pipelineDepth = 2;
    /** Build both workloads (seeded deterministically). */
    std::function<WorkloadPair(const SysConfig &)> make;
};

/** The nine benchmark applications of the paper's evaluation. */
std::vector<AppSpec> standardApps(double scale);

/** Look up a standard app by name (fatal if absent). */
AppSpec findApp(const std::string &name, double scale);

/**
 * Simulated time of one sequence of interactions: when the producer and
 * the consumer are next free, and the consumer exits the IPC ring still
 * holds. The producer of interaction i waits for the exit of
 * interaction i - depth; a slot this clock never wrote reads 0, which
 * waits for nothing.
 */
struct InteractionClock
{
    InteractionClock(Cycle t, unsigned depth)
        : producer(t), consumer(t), exits(std::max(1u, depth), 0)
    {
    }

    /** When both sides are done. */
    Cycle now() const { return std::max(producer, consumer); }

    Cycle producer;
    Cycle consumer;
    std::vector<Cycle> exits; ///< slot i % depth: exit of interaction i
};

/**
 * One admitted application: its insecure producer and secure consumer
 * processes (the consumer provisioned with the vendor signature so
 * attestation passes), the IPC ring they share, and their workloads,
 * which allocate simulated memory only once the security model has
 * placed the processes.
 */
class AppInstance
{
  public:
    /** Admit @p spec: create the process pair, the IPC ring and the
     *  workloads. */
    AppInstance(System &sys, SecurityModel &model, const AppSpec &spec);

    /**
     * Set up the workloads' simulated memory. Call after the model's
     * configure() has placed the processes, so pages land in the right
     * regions and slices.
     */
    void setup();

    /** A clock starting at @p t with this app's ring depth. */
    InteractionClock clockAt(Cycle t) const;

    /**
     * Run interactions @p first .. @p first + @p count - 1 on @p clock:
     * produce, enclave entry, consume, enclave exit.
     * @return the instructions the consume phases retired.
     */
    std::uint64_t interact(std::uint64_t first, std::uint64_t count,
                           InteractionClock &clock);

    const AppSpec &spec() const { return spec_; }
    Process &insecureProc() { return *insecure_; }
    Process &secureProc() { return *secure_; }
    InteractiveWorkload &insecureWorkload() { return *wl_.insecure; }
    InteractiveWorkload &secureWorkload() { return *wl_.secure; }

  private:
    System &sys_;
    SecurityModel &model_;
    AppSpec spec_;
    Process *insecure_;
    Process *secure_;
    std::unique_ptr<IpcBuffer> ipc_;
    WorkloadPair wl_;
};

/** Execution options of one run. */
struct RunOptions
{
    std::uint64_t warmup = 8;     ///< untimed interactions
    std::optional<unsigned> reconfigTarget; ///< IRONHIDE rebind target
    std::uint64_t maxInteractions = 0;      ///< 0 = spec default
};

/** Measured outcome of one run. */
struct RunResult
{
    Cycle completion = 0;         ///< timed-region completion time
    Cycle purgeCycles = 0;        ///< purge overhead in the timed region
    Cycle transitionCycles = 0;   ///< total entry/exit overhead
    Cycle reconfigCycles = 0;     ///< one-time reconfiguration overhead
    std::uint64_t transitions = 0; ///< enclave entry+exit events (timed)
    double l1MissRate = 0.0;
    double l2MissRate = 0.0;
    double interactivityPerSec = 0.0; ///< transitions per simulated second
    unsigned secureCores = 0;     ///< secure-cluster size (spatial only)
    /**
     * Consume-phase instructions of *every* interaction, warmup
     * included; every other field describes only the timed region.
     */
    std::uint64_t instructions = 0;
    std::uint64_t isolationViolations = 0;
    std::uint64_t blockedAccesses = 0;

    double completionMs() const { return cyclesToMs(completion); }
};

/**
 * One application run alone on a system: admitted, placed by the model
 * (one configure() over its two processes) and set up at construction.
 */
class InteractiveApp
{
  public:
    InteractiveApp(System &sys, SecurityModel &model, const AppSpec &spec);

    /**
     * Execute the application on one clock: the warmup interactions,
     * the timed-region snapshot, the optional IRONHIDE reconfiguration
     * (only when an interaction remains to be timed), then the timed
     * interactions.
     */
    RunResult run(const RunOptions &opts = {});

    Process &insecureProc() { return app_.insecureProc(); }
    Process &secureProc() { return app_.secureProc(); }
    InteractiveWorkload &insecureWorkload() { return app_.insecureWorkload(); }
    InteractiveWorkload &secureWorkload() { return app_.secureWorkload(); }

  private:
    System &sys_;
    SecurityModel &model_;
    AppInstance app_;
};

} // namespace ih

#endif // IH_WORKLOADS_INTERACTIVE_APP_HH
