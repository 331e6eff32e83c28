/**
 * @file
 * Session lifecycle for open-loop serving: a long-lived simulated
 * machine that turns a stream of session arrivals into continuous
 * enclave churn.
 *
 * Where InteractiveApp brackets one application's whole run between a
 * single configure() and teardown, the SessionServer keeps one System
 * plus one SecurityModel alive across an arbitrary arrival stream and
 * charges the enclave *lifecycle* per session: admission (attestation
 * was paid at configure; spatial models additionally purge the secure
 * cluster when the arriving session's app distrusts the previous one),
 * the IRONHIDE reconfiguration decision (rebinding the cluster split
 * to the arriving app's preferred split), the session's interactions
 * (AppInstance::interact, the loop InteractiveApp::run drives too), and
 * teardown (the next distrusting arrival's purge is exactly the
 * teardown scrub, charged where it is observable — on the critical path
 * of the *next* session).
 *
 * The server is a single-server FIFO queue in simulated time: sessions
 * are served in arrival order, each starting no earlier than both its
 * arrival and the previous session's finish. Each app's AppInstance is
 * built once and reused across sessions with a monotonically
 * increasing interaction index (the workloads are streaming
 * generators; the physical allocator is a bump allocator, so fresh
 * allocations per session would exhaust a region under sustained
 * churn — reuse plus the purge/rehome charges is the honest model).
 * Everything is simulated-time arithmetic on one machine: results are
 * pure functions of (config, arch, apps, schedule).
 */

#ifndef IH_CORE_SESSION_SERVER_HH
#define IH_CORE_SESSION_SERVER_HH

#include <memory>
#include <vector>

#include "core/security_model.hh"
#include "workloads/interactive_app.hh"

namespace ih
{

class Ironhide;

/** Serving-mode knobs. */
struct SessionOptions
{
    /** Interactions per session (the session "length"). */
    std::uint64_t interactionsPerSession = 4;
    /**
     * Per-app IRONHIDE split targets (empty = keep the configure-time
     * half split). Index-parallel to the app list; 0 entries mean "no
     * preference" for that app.
     */
    std::vector<unsigned> splits;
};

/** One simulated serving machine. */
class SessionServer
{
  public:
    SessionServer(const SysConfig &cfg, ArchKind kind,
                  const std::vector<AppSpec> &apps,
                  const SessionOptions &opts = {});

    /**
     * Serve one session of app @p appIndex arriving at @p arrival.
     * Sessions must be submitted in nondecreasing arrival order (FIFO
     * queue). @return the session's finish cycle; latency is
     * finish - arrival.
     */
    Cycle serve(std::size_t appIndex, Cycle arrival);

    /** When the server drains the queue submitted so far. */
    Cycle busyUntil() const { return busyUntil_; }

    // Lifecycle-event counters over every session served so far.
    std::uint64_t sessionsServed() const { return sessions_; }
    /** IRONHIDE cluster rebinds actually performed (split changed). */
    std::uint64_t reconfigEvents() const { return reconfigs_; }
    /** Secure-cluster purges between distrusting apps (spatial). */
    std::uint64_t appSwitchPurges() const { return switches_; }

    SecurityModel &model() { return *model_; }
    System &system() { return sys_; }

  private:
    System sys_;
    std::unique_ptr<SecurityModel> model_;
    Ironhide *ironhide_ = nullptr; ///< non-null when kind == IRONHIDE
    SessionOptions opts_;
    std::vector<AppInstance> apps_;
    /** Per app: the next interaction index, continued across sessions. */
    std::vector<std::uint64_t> next_;
    Cycle busyUntil_ = 0;
    std::ptrdiff_t lastApp_ = -1; ///< -1 until the first session
    std::uint64_t sessions_ = 0;
    std::uint64_t reconfigs_ = 0;
    std::uint64_t switches_ = 0;
};

} // namespace ih

#endif // IH_CORE_SESSION_SERVER_HH
