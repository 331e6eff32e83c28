/**
 * @file
 * Deterministic fork-join primitive for independent simulation jobs.
 *
 * The harness's one level of host-side parallelism — the sweep
 * workers, each claiming whole cells (a split decision's probes run on
 * the worker that claimed its cell) — needs one contract: run N
 * independent closures on up to K threads such that nothing observable
 * depends on the schedule. parallelForIndex() is that contract in one
 * place:
 *
 *  - indices are claimed in ascending order from a shared counter, so
 *    results land wherever the caller's closure writes them and the
 *    worker interleaving is unobservable;
 *  - failure semantics are canonical: when invocations throw, the
 *    exception that propagates to the caller is the one with the
 *    *smallest index* — exactly what a serial `for` loop would have
 *    produced — regardless of which worker happened to fail first in
 *    wall-clock time. (A sweep that kept whichever exception won the
 *    wall-clock race could surface different errors run to run.)
 *
 * The canonical-failure guarantee relies on the closures being
 * deterministic per index: any job below a thrown index has been
 * claimed (claims are sequential) and either completed or produced the
 * lower-index error itself, so the minimum over thrown indices equals
 * the serial first failure. Jobs above the smallest failing index may
 * be skipped, as in a serial loop.
 */

#ifndef IH_HARNESS_PARALLEL_HH
#define IH_HARNESS_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace ih
{

/**
 * Invoke @p fn(i) for every i in [0, n), fanning out over up to
 * @p workers threads (values 0 and 1 run inline on the caller's
 * thread). Blocks until all claimed invocations finished. Exceptions
 * propagate with canonical (smallest-index-wins) semantics; indices
 * after the smallest failing one may not run.
 */
void parallelForIndex(std::size_t n, unsigned workers,
                      const std::function<void(std::size_t)> &fn);

} // namespace ih

#endif // IH_HARNESS_PARALLEL_HH
