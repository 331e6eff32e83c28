/**
 * @file
 * Artificial Bee Colony mission planner (secure consumer).
 *
 * A real ABC optimizer: employed bees perturb their food source and keep
 * improvements; onlooker bees choose sources fitness-proportionally and
 * perturb again; exhausted sources are abandoned by scouts. The fitness
 * function is the path cost of a candidate waypoint vector over the cost
 * field derived from the VISION frame (the advanced-driver-assistance
 * scenario of the paper).
 */

#ifndef IH_WORKLOADS_ABC_HH
#define IH_WORKLOADS_ABC_HH

#include "workloads/vision.hh"
#include "workloads/workload.hh"

namespace ih
{

/** ABC sizing. */
struct AbcParams
{
    unsigned colony = 48;   ///< food sources (= employed bees)
    unsigned dims = 24;     ///< waypoints per candidate path
    unsigned scoutLimit = 8;

    AbcParams
    scaled(double s) const
    {
        AbcParams p = *this;
        p.colony = std::max(8u, static_cast<unsigned>(colony * s));
        p.dims = std::max(4u, static_cast<unsigned>(dims * s));
        return p;
    }
};

/** Secure ABC mission-planning workload. */
class AbcWorkload : public InteractiveWorkload
{
  public:
    AbcWorkload(VisionWorkload &vision, const AbcParams &p);

    void setup(Process &proc, IpcBuffer &ipc) override;
    void beginPhase(PhaseKind kind, std::uint64_t interaction,
                    unsigned num_threads) override;
    bool step(ExecContext &ctx) override;

  private:
    /** Evaluate candidate @p bee (simulated reads of the cost field). */
    double evaluate(ExecContext &ctx, unsigned bee);

    /** Perturb one dimension of @p bee and greedily accept. */
    void perturb(ExecContext &ctx, unsigned bee);

    VisionWorkload &vision_;
    AbcParams p_;
    SimArray<double> solutions_;    ///< colony x dims waypoint matrix
    SimArray<double> fitness_;      ///< per food source
    SimArray<std::uint32_t> trials_;
    SimArray<std::uint32_t> costField_; ///< derived from the IPC frame
    std::vector<std::size_t> beeCursor_;
    std::vector<std::size_t> beeEnd_;
    std::vector<unsigned> stage_; ///< 0 ingest, 1 employed, 2 onlooker
};

} // namespace ih

#endif // IH_WORKLOADS_ABC_HH
