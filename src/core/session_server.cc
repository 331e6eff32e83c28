#include "core/session_server.hh"

#include <algorithm>

#include "core/ironhide.hh"
#include "sim/log.hh"

namespace ih
{

SessionServer::SessionServer(const SysConfig &cfg, ArchKind kind,
                             const std::vector<AppSpec> &apps,
                             const SessionOptions &opts)
    : sys_(cfg), model_(createModel(kind, sys_)), opts_(opts)
{
    IH_ASSERT(!apps.empty(), "serving needs at least one app");
    IH_ASSERT(opts_.splits.empty() || opts_.splits.size() == apps.size(),
              "splits (%zu) must be index-parallel to apps (%zu)",
              opts_.splits.size(), apps.size());

    // Admit every app's process pair up front, in app-index order, so
    // process ids — and with them every downstream simulated address —
    // are a pure function of the app list.
    apps_.reserve(apps.size());
    std::vector<Process *> procs;
    for (const AppSpec &spec : apps) {
        AppInstance &a = apps_.emplace_back(sys_, *model_, spec);
        procs.push_back(&a.insecureProc());
        procs.push_back(&a.secureProc());
    }
    next_.assign(apps.size(), 0);

    // One configure over the whole population: the models (IRONHIDE in
    // particular) *replace* their process list on configure, so a
    // per-app call would leave every earlier app unplaced. Must happen
    // before any workload allocates, so pages land in the right
    // regions/slices.
    model_->configure(procs, 0);
    if (kind == ArchKind::IRONHIDE) {
        ironhide_ = static_cast<Ironhide *>(model_.get());
        // Every session is its own invocation: the once-per-invocation
        // reconfiguration bound applies per session, not per machine
        // lifetime.
        ironhide_->setReconfigLimit(~0u);
    }

    for (AppInstance &a : apps_)
        a.setup();
}

Cycle
SessionServer::serve(std::size_t appIndex, Cycle arrival)
{
    IH_ASSERT(appIndex < apps_.size(), "app index %zu out of range",
              appIndex);
    Cycle t = std::max(arrival, busyUntil_);

    const bool appSwitch =
        lastApp_ >= 0 &&
        static_cast<std::size_t>(lastApp_) != appIndex;
    if (ironhide_) {
        // Enclave spawn on IRONHIDE: scrub the secure cluster when the
        // arriving app distrusts the previous one, then rebind the
        // cluster split to this app's preferred allocation (a no-op
        // when the split is already right).
        if (appSwitch) {
            t = ironhide_->secureAppSwitch(t);
            ++switches_;
        }
        const unsigned target =
            opts_.splits.empty() ? 0 : opts_.splits[appIndex];
        if (target != 0 && target != model_->secureCoreCount()) {
            t = model_->reconfigure(target, t);
            ++reconfigs_;
        }
    }

    // The session proper, continuing this app's interaction index so
    // back-to-back sessions keep streaming fresh inputs. Entry/exit are
    // charged per interaction by the model (MI6 purges, SGX constants,
    // IRONHIDE free) — that is the continuous churn cost this mode
    // exists to measure.
    const std::uint64_t n = std::max<std::uint64_t>(
        1, opts_.interactionsPerSession);
    AppInstance &app = apps_[appIndex];
    InteractionClock clock = app.clockAt(t);
    app.interact(next_[appIndex], n, clock);
    next_[appIndex] += n;

    busyUntil_ = clock.now();
    lastApp_ = static_cast<std::ptrdiff_t>(appIndex);
    ++sessions_;
    return busyUntil_;
}

} // namespace ih
