/**
 * @file
 * System configuration for the simulated multicore.
 *
 * Defaults model a Tile-Gx72-class machine scaled to 64 tiles arranged as
 * an 8x8 2-D mesh with four edge memory controllers, matching the
 * evaluation platform of the IRONHIDE paper (the paper evaluates 64 cores
 * split 32/32 initially). The simulated clock is 1 GHz.
 */

#ifndef IH_SIM_CONFIG_HH
#define IH_SIM_CONFIG_HH

#include <cstdint>

#include "sim/types.hh"

namespace ih
{

/**
 * The phase-execution engine `ExecEngine::runPhase` implements: SERIAL,
 * one global (time, thread) service order with every memory access
 * charged exactly where it happens. It is the only engine. The enum and
 * SysConfig::engine remain so a caller can state which timing model it
 * measures (perfbench/ih_perfbench.cc refuses anything but SERIAL).
 */
enum class EngineKind : std::uint8_t
{
    SERIAL = 0,
};

/** Machine-wide configuration knobs. */
struct SysConfig
{
    // --- Topology ------------------------------------------------------
    unsigned meshWidth = 8;     ///< tiles per row
    unsigned meshHeight = 8;    ///< tiles per column
    unsigned numMcs = 4;        ///< memory controllers (on top/bottom edges)
    unsigned numRegions = 8;    ///< physically isolated DRAM regions

    // --- Caches ----------------------------------------------------------
    // The cache capacities are scaled down together with the workload
    // working sets (the simulated inputs are ~10x smaller than the
    // paper's) so that the capacity-pressure regime of the evaluation is
    // preserved: working sets comfortably exceed the private L1s and
    // stress a *partitioned* (halved) shared L2.
    unsigned lineBytes = 64;
    unsigned l1Bytes = 16 * 1024;      ///< private L1D per tile
    unsigned l1Assoc = 4;
    unsigned l2SliceBytes = 32 * 1024; ///< shared L2 slice per tile
    unsigned l2Assoc = 8;
    unsigned tlbEntries = 32;          ///< private per-core TLB
    /** TLB associativity; 0 = fully associative (the paper's model). */
    unsigned tlbWays = 0;
    unsigned pageBytes = 4096;

    // --- Latencies (cycles @ 1 GHz) -------------------------------------
    Cycle l1Latency = 2;
    Cycle l2Latency = 10;
    Cycle dramLatency = 150;       ///< bank access after queueing
    Cycle dramRowHitLatency = 50;  ///< open-row access
    Cycle hopLatency = 3;          ///< per mesh hop (router + link)
    Cycle mcServiceInterval = 8;   ///< min spacing between MC issues
    Cycle tlbMissLatency = 60;     ///< page-walk cost on TLB miss

    // --- Security cost model --------------------------------------------
    /** SGX entry/exit constant cost (pipeline flush + crypto/integrity):
     *  5 us per the paper's own model of HotCalls measurements. */
    Cycle sgxEnterExitCycles = usToCycles(5.0);
    /** Core pipeline flush cost (drain + refill), charged where a model
     *  flushes the pipeline outside of the SGX constant. */
    Cycle pipelineFlushCycles = 200;
    /** Per-entry TLB invalidate cost during a purge. */
    Cycle tlbPurgePerEntry = 2;
    /**
     * Per-line cost of the L1 flush-and-invalidate (reading a dummy
     * buffer of L1 size through the memory system). The flush engine
     * streams the buffer with enough memory-level parallelism to hide
     * DRAM latency, so the per-line cost approaches the controller
     * service interval rather than the full serialized miss latency.
     */
    Cycle l1PurgePerLine = 40;
    /** Memory-fence base cost when draining MC queues. */
    Cycle mcDrainBase = 100;
    /** Secure-kernel attestation cost per secure process admission. */
    Cycle attestCycles = usToCycles(10.0);
    /** Cost per page re-homed during IRONHIDE reconfiguration
     *  (unmap + set-home + remap of a 4 KiB page over the NoC). */
    Cycle rehomePerPage = 1500;

    // --- Misc -------------------------------------------------------------
    std::uint64_t seed = 0xC0FFEE;
    // Host parallelism is not configuration: the intra-run probe
    // workers come from the IRONHIDE_DOMAINS knob (effectiveDomains()).

    /** The phase engine (fixed: see EngineKind). */
    static constexpr EngineKind engine = EngineKind::SERIAL;

    /** Number of tiles in the machine. */
    unsigned numTiles() const { return meshWidth * meshHeight; }

    /** L1 line capacity. */
    unsigned l1Lines() const { return l1Bytes / lineBytes; }

    /** L2 slice line capacity. */
    unsigned l2SliceLines() const { return l2SliceBytes / lineBytes; }

    /** Lines per page. */
    unsigned linesPerPage() const { return pageBytes / lineBytes; }

    /** Validate invariants (power-of-two sizes, mesh vs MC count, ...). */
    void validate() const;

    /** A small 4x4 configuration used by unit tests. */
    static SysConfig smallTest();
};

} // namespace ih

#endif // IH_SIM_CONFIG_HH
