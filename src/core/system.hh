/**
 * @file
 * The simulated machine: configuration, mesh, network, memory hierarchy,
 * cores/execution engine, processes, and the security audit log, bundled
 * into one object with a stable construction order. A System plus a
 * SecurityModel plus an InteractiveApp is a complete experiment.
 */

#ifndef IH_CORE_SYSTEM_HH
#define IH_CORE_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/audit_log.hh"
#include "cpu/exec_engine.hh"
#include "cpu/process.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "sim/config.hh"

namespace ih
{

/** One simulated multicore machine. */
class System
{
  public:
    explicit System(const SysConfig &cfg);

    /** Create and register a process. */
    Process &createProcess(const std::string &name, Domain domain,
                           unsigned threads);

    SysConfig &config() { return cfg_; }
    const SysConfig &config() const { return cfg_; }
    Topology &topology() { return topo_; }
    Network &network() { return net_; }
    MemorySystem &mem() { return mem_; }
    ExecEngine &engine() { return engine_; }
    AuditLog &audit() { return audit_; }

    const std::vector<std::unique_ptr<Process>> &processes() const
    {
        return procs_;
    }
    unsigned numTiles() const { return topo_.numTiles(); }

    /** Tiles [0, n) — the row-major prefix used as the secure cluster. */
    std::vector<CoreId> prefixTiles(unsigned n) const;

    /** Tiles [n, total) — the suffix used as the insecure cluster. */
    std::vector<CoreId> suffixTiles(unsigned n) const;

  private:
    SysConfig cfg_;
    Topology topo_;
    Network net_;
    MemorySystem mem_;
    ExecEngine engine_;
    AuditLog audit_;
    std::vector<std::unique_ptr<Process>> procs_;
};

} // namespace ih

#endif // IH_CORE_SYSTEM_HH
