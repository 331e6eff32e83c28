#include "harness/isolate.hh"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/journal.hh"
#include "harness/report.hh"
#include "sim/log.hh"

namespace ih
{

// --------------------------------------------------------------------------
// Fault injection
// --------------------------------------------------------------------------

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &one : splitOn(spec, ',')) {
        if (one.empty())
            continue;
        const std::vector<std::string> t = splitOn(one, ':');
        std::uint64_t job = 0;
        if (t.size() < 3 || t[0] != "job" || !parseU64(t[1], job))
            throw std::runtime_error("bad fault spec '" + one +
                                     "' (want job:<id>:<fault>)");
        FaultSpec f;
        if (t.size() == 3 && t[2] == "crash") {
            f.kind = FaultKind::CRASH;
        } else if (t.size() == 3 && t[2] == "fail") {
            f.kind = FaultKind::FAIL;
        } else if (t.size() == 3 && t[2] == "kill") {
            f.kind = FaultKind::KILL;
        } else if (t.size() == 3 && t[2] == "nondet") {
            f.kind = FaultKind::NONDET;
        } else if (t.size() == 4 && t[2] == "hang_ms" &&
                   parseU64(t[3], f.ms)) {
            f.kind = FaultKind::HANG_MS;
        } else {
            throw std::runtime_error("unknown fault '" + one + "'");
        }
        if (!plan.faults_.emplace(job, f).second)
            throw std::runtime_error(
                "duplicate fault for job " + t[1]);
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *env = knobText(Knob::FAULT_INJECT);
    if (!env)
        return {};
    try {
        FaultPlan plan = parse(env);
        warn("IH_FAULT_INJECT active: injecting faults (%s)", env);
        return plan;
    } catch (const std::exception &e) {
        fatal("invalid IH_FAULT_INJECT: %s", e.what());
    }
}

FaultSpec
FaultPlan::at(std::size_t job) const
{
    const auto it = faults_.find(job);
    return it == faults_.end() ? FaultSpec{} : it->second;
}

void
triggerFault(const FaultSpec &fault)
{
    switch (fault.kind) {
      case FaultKind::NONE:
      case FaultKind::NONDET: // handled by the supervisor protocol
        return;
      case FaultKind::CRASH:
        ::raise(SIGSEGV);
        std::abort(); // not reached unless SIGSEGV is blocked
      case FaultKind::KILL:
        std::_Exit(37);
      case FaultKind::HANG_MS:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fault.ms));
        return;
      case FaultKind::FAIL:
        throw std::runtime_error("injected failure");
    }
}

// --------------------------------------------------------------------------
// Supervisor
// --------------------------------------------------------------------------

namespace
{

void
writeAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // parent vanished; nothing sensible left to do
        }
        off += static_cast<std::size_t>(n);
    }
}

/**
 * The child side of one attempt. Never returns; never touches stdio
 * (the parent's buffers were duplicated by fork — _Exit leaves them
 * to the parent to flush exactly once).
 */
[[noreturn]] void
childRun(int fd, std::size_t job_id, unsigned attempt,
         const std::function<std::string(std::size_t)> &fn,
         const std::function<std::string(const std::string &)> &perturb,
         const FaultSpec &fault)
{
    std::string payload;
    int code = 0;
    try {
        triggerFault(fault);
        payload = fn(job_id);
        if (fault.kind == FaultKind::NONDET && attempt == 1) {
            // Emit a complete-but-perturbed payload, then die: the
            // retry's clean payload checksums differently, tripping
            // the determinism gate this fault exists to test.
            writeAll(fd, perturb(payload));
            ::close(fd);
            ::raise(SIGBUS);
            std::abort();
        }
    } catch (const std::exception &e) {
        payload = std::string("ERR|") + e.what();
        code = 3;
    } catch (...) {
        payload = "ERR|unknown exception";
        code = 3;
    }
    writeAll(fd, payload);
    ::close(fd);
    std::_Exit(code);
}

using Clock = std::chrono::steady_clock;

struct Child
{
    pid_t pid = -1;
    int fd = -1;
    std::size_t idx = 0;    ///< index into jobIds/cells
    unsigned attempt = 1;
    bool hasDeadline = false;
    bool killedForTimeout = false;
    Clock::time_point deadline;
    std::string buf;        ///< payload accumulated so far
};

} // namespace

std::vector<RawIsolatedCell>
superviseRawJobs(const std::vector<std::size_t> &jobIds,
                 const std::function<std::string(std::size_t)> &fn,
                 const PayloadJournal::Validator &validate,
                 const std::function<std::string(const std::string &)>
                     &perturb,
                 const IsolateConfig &cfg, const FaultPlan &faults,
                 const std::function<void(std::size_t idx,
                                          const RawIsolatedCell &)> &onDone)
{
    const std::size_t n = jobIds.size();
    std::vector<RawIsolatedCell> cells(n);
    /** Checksum of any complete payload a prior attempt produced. */
    std::vector<std::string> prevSum(n);

    std::vector<Child> active;
    std::size_t next = 0;
    std::size_t completed = 0;
    const unsigned workers = cfg.workers ? cfg.workers : 1;

    const auto spawn = [&](std::size_t idx, unsigned attempt) {
        int fds[2];
        if (::pipe(fds) != 0)
            fatal("--isolate: pipe() failed: %s", std::strerror(errno));
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("--isolate: fork() failed: %s", std::strerror(errno));
        if (pid == 0) {
            ::close(fds[0]);
            childRun(fds[1], jobIds[idx], attempt, fn, perturb,
                     faults.at(jobIds[idx]));
        }
        ::close(fds[1]);
        Child c;
        c.pid = pid;
        c.fd = fds[0];
        c.idx = idx;
        c.attempt = attempt;
        if (cfg.timeoutMs > 0) {
            c.hasDeadline = true;
            c.deadline = Clock::now() +
                         std::chrono::milliseconds(cfg.timeoutMs);
        }
        active.push_back(std::move(c));
    };

    // Terminal bookkeeping for one finished attempt; returns true when
    // the cell is done (success or retries exhausted), false to retry.
    const auto settle = [&](const Child &c, int status) {
        RawIsolatedCell &cell = cells[c.idx];
        cell.attempts = c.attempt;

        const bool decodable = validate(c.buf);
        const std::string sum =
            decodable ? checksumHex(c.buf) : std::string();

        std::string error;
        if (c.killedForTimeout) {
            error = strprintf("timed out after %" PRIu64 " ms",
                              cfg.timeoutMs);
        } else if (WIFSIGNALED(status)) {
            error = strprintf("child killed by signal %d",
                              WTERMSIG(status));
        } else if (WIFEXITED(status) && WEXITSTATUS(status) == 3 &&
                   c.buf.rfind("ERR|", 0) == 0) {
            error = c.buf.substr(4);
        } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
            error = strprintf("child exited with code %d",
                              WEXITSTATUS(status));
        } else if (!decodable) {
            error = "child produced an undecodable result payload";
        }

        if (error.empty()) {
            // Success — but only if it agrees with every complete
            // payload an earlier attempt produced. A retry that
            // "passes" with different bytes is a determinism
            // violation, which is an error in its own right.
            if (!prevSum[c.idx].empty() && prevSum[c.idx] != sum) {
                cell.ok = false;
                cell.error = strprintf(
                    "retry checksum mismatch: attempt %u disagrees "
                    "with an earlier attempt (determinism violation)",
                    c.attempt);
                return true;
            }
            cell.ok = true;
            cell.timedOut = false;
            cell.error.clear();
            cell.payload = c.buf;
            return true;
        }

        if (!sum.empty())
            prevSum[c.idx] = sum;
        cell.ok = false;
        cell.timedOut = c.killedForTimeout;
        cell.error = error;
        return c.attempt > cfg.retries; // done when retries exhausted
    };

    while (completed < n) {
        while (active.size() < workers && next < n)
            spawn(next++, 1);

        // Nearest deadline bounds the poll.
        int timeout = -1;
        const Clock::time_point now = Clock::now();
        for (const Child &c : active) {
            if (!c.hasDeadline || c.killedForTimeout)
                continue;
            const auto ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    c.deadline - now)
                    .count();
            const int t = ms < 0 ? 0 : static_cast<int>(ms) + 1;
            if (timeout < 0 || t < timeout)
                timeout = t;
        }

        std::vector<struct pollfd> pfds(active.size());
        for (std::size_t i = 0; i < active.size(); ++i)
            pfds[i] = {active[i].fd, POLLIN, 0};
        if (::poll(pfds.data(), pfds.size(), timeout) < 0 &&
            errno != EINTR)
            fatal("--isolate: poll() failed: %s", std::strerror(errno));

        // Enforce expired deadlines (the EOF arrives on the next pass).
        const Clock::time_point after = Clock::now();
        for (Child &c : active) {
            if (c.hasDeadline && !c.killedForTimeout &&
                after >= c.deadline) {
                ::kill(c.pid, SIGKILL);
                c.killedForTimeout = true;
            }
        }

        // Drain readable pipes; settle children at EOF.
        for (std::size_t i = active.size(); i-- > 0;) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Child &c = active[i];
            char buf[4096];
            const ssize_t got = ::read(c.fd, buf, sizeof(buf));
            if (got < 0) {
                if (errno == EINTR)
                    continue;
                fatal("--isolate: read() failed: %s",
                      std::strerror(errno));
            }
            if (got > 0) {
                c.buf.append(buf, static_cast<std::size_t>(got));
                continue;
            }
            // EOF: reap and classify.
            ::close(c.fd);
            int status = 0;
            while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
            }
            const Child done_child = std::move(c);
            active.erase(active.begin() +
                         static_cast<std::ptrdiff_t>(i));
            if (settle(done_child, status)) {
                ++completed;
                if (onDone)
                    onDone(done_child.idx, cells[done_child.idx]);
            } else {
                spawn(done_child.idx, done_child.attempt + 1);
            }
        }
    }
    return cells;
}

} // namespace ih
