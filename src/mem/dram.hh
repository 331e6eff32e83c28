/**
 * @file
 * DRAM device timing behind one memory controller: a set of banks with
 * open-row (row-buffer) state. An access to the open row of a bank pays
 * the row-hit latency; anything else closes/opens rows and pays the full
 * access latency. closeAllRows() models the state loss caused by a
 * controller purge.
 */

#ifndef IH_MEM_DRAM_HH
#define IH_MEM_DRAM_HH

#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ih
{

/** Open-row DRAM timing model for one controller's channel. */
class Dram
{
  public:
    /** Banks per channel and bytes per row are fixed device parameters. */
    static constexpr unsigned NUM_BANKS = 8;
    static constexpr Addr ROW_BYTES = 2048;

    Dram(std::string name, const SysConfig &cfg);

    /** Latency of accessing @p pa (updates row-buffer state). */
    Cycle access(Addr pa);

    /** Close every row buffer (controller purge / power event). */
    void closeAllRows();

    /** Bank index of @p pa. */
    static unsigned bankOf(Addr pa);

    /** Row index of @p pa within its bank. */
    static std::uint64_t rowOf(Addr pa);

    StatGroup &stats() { return stats_; }

  private:
    const SysConfig &cfg_;
    std::vector<std::int64_t> openRow_; ///< -1 == closed
    StatGroup stats_;
    // Per-access counters bound once (StatGroup references are stable).
    Counter &statRowHits_;
    Counter &statRowMisses_;
    /** Bound by the first closeAllRows(), so a channel never purged
     *  lists no row_purges entry. */
    Counter *statRowPurges_ = nullptr;
};

} // namespace ih

#endif // IH_MEM_DRAM_HH
