/**
 * @file
 * The insecure baseline: every process shares every resource, the
 * default hash-for-homing policy spreads all data over all L2 slices,
 * and enclave transitions cost nothing. This is the normalization
 * baseline of Figure 1(a) and provides no protection whatsoever.
 */

#ifndef IH_CORE_INSECURE_HH
#define IH_CORE_INSECURE_HH

#include "core/security_model.hh"

namespace ih
{

/** No-protection baseline. */
class InsecureBaseline : public SecurityModel
{
  public:
    explicit InsecureBaseline(System &sys);

    Cycle configure(const std::vector<Process *> &procs, Cycle t) override;

  protected:
    /** The same sharing under another name (SgxLike). */
    InsecureBaseline(System &sys, std::string name);
};

} // namespace ih

#endif // IH_CORE_INSECURE_HH
