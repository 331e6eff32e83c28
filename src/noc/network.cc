#include "noc/network.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

Network::Network(const SysConfig &cfg, const Topology &topo)
    : cfg_(cfg), topo_(topo), router_(topo),
      link_free_(static_cast<std::size_t>(topo.numTiles()) * 4, 0),
      stats_("noc"),
      statPackets_(stats_.counter("packets")),
      statFlits_(stats_.counter("flits")),
      statIsolationViolations_(stats_.counter("isolation_violations")),
      statLinkStallCycles_(stats_.counter("link_stall_cycles")),
      statTotalLatency_(stats_.counter("total_latency"))
{
}

void
Network::resetLinkState()
{
    std::fill(link_free_.begin(), link_free_.end(), 0);
}

} // namespace ih
