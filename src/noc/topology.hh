/**
 * @file
 * 2-D mesh topology: tile coordinates, row-major tile ids, and memory
 * controller attachment points.
 *
 * Memory controllers sit on the top and bottom edges of the mesh, half on
 * each edge, attached by a dedicated link to an edge router. Their
 * attachment columns are the *extreme corner columns* of each edge
 * (columns 0,1,... on the top edge; columns W-1,W-2,... on the bottom
 * edge). This placement is security-driven: cluster allocations are a
 * row-major prefix (secure, from the top-left) and suffix (insecure, to
 * the bottom-right) of the tile id space, so even a two-core secure
 * cluster still contains the attachment routers of both of its memory
 * controllers and memory traffic never leaves the cluster.
 */

#ifndef IH_NOC_TOPOLOGY_HH
#define IH_NOC_TOPOLOGY_HH

#include <cstdlib>
#include <vector>

#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace ih
{

/** Mesh coordinate of a router/tile. */
struct Coord
{
    int x = 0;
    int y = 0;

    bool operator==(const Coord &o) const { return x == o.x && y == o.y; }
    bool operator!=(const Coord &o) const { return !(*this == o); }
};

/** Geometry of the mesh and the MC attachment points. */
class Topology
{
  public:
    explicit Topology(const SysConfig &cfg);

    unsigned width() const { return width_; }
    unsigned height() const { return height_; }
    unsigned numTiles() const { return width_ * height_; }
    unsigned numMcs() const { return static_cast<unsigned>(mcTiles_.size()); }

    // coordOf/tileAt/hopDistance are defined inline: the routing walks
    // call them on every packet, and an out-of-line call per hop costs
    // more than the arithmetic itself.

    /** Coordinate of tile @p id (row-major). */
    Coord
    coordOf(CoreId id) const
    {
        IH_DEBUG_ASSERT(id < numTiles(), "tile id %u out of range", id);
        return {static_cast<int>(id % width_),
                static_cast<int>(id / width_)};
    }

    /** Tile id at coordinate @p c. */
    CoreId
    tileAt(Coord c) const
    {
        IH_DEBUG_ASSERT(c.x >= 0 && c.x < static_cast<int>(width_) &&
                            c.y >= 0 && c.y < static_cast<int>(height_),
                        "coordinate (%d,%d) outside mesh", c.x, c.y);
        return static_cast<CoreId>(c.y) * width_ +
               static_cast<CoreId>(c.x);
    }

    /** Edge router a memory controller attaches to. */
    CoreId mcAttachTile(McId mc) const;

    /** Manhattan hop distance between two tiles. */
    unsigned
    hopDistance(CoreId a, CoreId b) const
    {
        const Coord ca = coordOf(a);
        const Coord cb = coordOf(b);
        return static_cast<unsigned>(std::abs(ca.x - cb.x) +
                                     std::abs(ca.y - cb.y));
    }

  private:
    unsigned width_;
    unsigned height_;
    std::vector<CoreId> mcTiles_;
};

} // namespace ih

#endif // IH_NOC_TOPOLOGY_HH
