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

RouteOrder
Router::selectOrder(CoreId src, const ClusterRange &cluster) const
{
    const unsigned width = topo_.width();
    const Coord src_c = topo_.coordOf(src);
    // The boundary row is the row the cluster only partially owns (if
    // any). For a prefix cluster that is the row of its last tile when
    // the cluster does not end at a row boundary; for a suffix cluster,
    // the row of its first tile when it does not start at one.
    const bool starts_aligned = cluster.first % width == 0;
    const bool ends_aligned = (cluster.first + cluster.count) % width == 0;

    if (!ends_aligned) {
        const Coord last_c = topo_.coordOf(cluster.last());
        if (src_c.y == last_c.y && cluster.contains(src))
            return RouteOrder::YX;
    }
    if (!starts_aligned) {
        const Coord first_c = topo_.coordOf(cluster.first);
        if (src_c.y == first_c.y && cluster.contains(src))
            return RouteOrder::YX;
    }
    return RouteOrder::XY;
}

bool
Router::orderedRouteContained(const Coord &s, const Coord &d,
                              RouteOrder order,
                              const ClusterRange &cluster) const
{
    const CoreId w = topo_.width();
    const auto id = [w](int x, int y) {
        return static_cast<CoreId>(y) * w + static_cast<CoreId>(x);
    };
    const int min_x = std::min(s.x, d.x);
    const int max_x = std::max(s.x, d.x);
    const int min_y = std::min(s.y, d.y);
    const int max_y = std::max(s.y, d.y);
    // The route is one horizontal segment (in the turn row) and one
    // vertical segment (in the turn column); min/max tile ids over the
    // route are the min/max over the four segment endpoints.
    CoreId min_id;
    CoreId max_id;
    if (order == RouteOrder::XY) {
        min_id = std::min(id(min_x, s.y), id(d.x, min_y));
        max_id = std::max(id(max_x, s.y), id(d.x, max_y));
    } else {
        min_id = std::min(id(s.x, min_y), id(min_x, d.y));
        max_id = std::max(id(s.x, max_y), id(max_x, d.y));
    }
    return cluster.contains(min_id) && cluster.contains(max_id);
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
