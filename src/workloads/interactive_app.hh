/**
 * @file
 * Interactive applications: one insecure producer process + one secure
 * consumer process exchanging batches through the shared IPC buffer, and
 * the driver that sequences their phases under a security architecture.
 *
 * Under a *temporal* architecture (insecure / SGX / MI6) the two
 * processes time-share the machine: each interaction runs the produce
 * phase, performs the enclave entry protocol (purge / constant cost /
 * nothing), runs the consume phase, and performs the exit protocol.
 *
 * Under the *spatial* IRONHIDE architecture the processes run
 * concurrently in their clusters: the producer pipelines ahead (bounded
 * by the IPC ring depth) while the consumer drains, and entry/exit are
 * free events. The one-time cluster reconfiguration happens at the end
 * of the warmup window, charged to the measured completion time.
 */

#ifndef IH_WORKLOADS_INTERACTIVE_APP_HH
#define IH_WORKLOADS_INTERACTIVE_APP_HH

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
    std::uint64_t instructions = 0;
    std::uint64_t isolationViolations = 0;
    std::uint64_t blockedAccesses = 0;

    double completionMs() const { return cyclesToMs(completion); }
};

/** One composed application bound to a system + security model. */
class InteractiveApp
{
  public:
    InteractiveApp(System &sys, SecurityModel &model, const AppSpec &spec);

    /** Execute the application. */
    RunResult run(const RunOptions &opts = {});

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

} // namespace ih

#endif // IH_WORKLOADS_INTERACTIVE_APP_HH
