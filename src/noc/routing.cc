#include "noc/routing.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ih
{

std::vector<CoreId>
Router::path(CoreId src, CoreId dst, RouteOrder order) const
{
    Coord cur = topo_.coordOf(src);
    const Coord end = topo_.coordOf(dst);

    std::vector<CoreId> out;
    out.reserve(static_cast<std::size_t>(topo_.hopDistance(src, dst)) + 1);
    out.push_back(src);

    auto step_x = [&]() {
        while (cur.x != end.x) {
            cur.x += (end.x > cur.x) ? 1 : -1;
            out.push_back(topo_.tileAt(cur));
        }
    };
    auto step_y = [&]() {
        while (cur.y != end.y) {
            cur.y += (end.y > cur.y) ? 1 : -1;
            out.push_back(topo_.tileAt(cur));
        }
    };

    if (order == RouteOrder::XY) {
        step_x();
        step_y();
    } else {
        step_y();
        step_x();
    }
    return out;
}

bool
Router::pathContained(const std::vector<CoreId> &p,
                      const ClusterRange &cluster) const
{
    for (CoreId t : p) {
        if (!cluster.contains(t))
            return false;
    }
    return true;
}

} // namespace ih
