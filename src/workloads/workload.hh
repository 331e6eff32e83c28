/**
 * @file
 * Workload-side abstractions for the execution-driven simulation.
 *
 * An InteractiveWorkload is one process's half of an interactive
 * application. The application driver announces each phase
 * (beginPhase) and the engine then repeatedly calls step() for every
 * thread until the phase's work is exhausted. Workloads are algorithm
 * implementations whose every data-structure access is replayed into
 * the timing model through the ExecContext.
 *
 * A simulated number depends on a workload's host data only where a
 * value reaches an address, a branch, a loop bound or a compute()
 * count. Host values exist only there, in a SimArray; every other
 * array is a SimRegion, which reserves and touches simulated memory
 * and holds no host values. The compute() charges model the arithmetic
 * whose results nothing reads.
 */

#ifndef IH_WORKLOADS_WORKLOAD_HH
#define IH_WORKLOADS_WORKLOAD_HH

#include <vector>

#include "cpu/exec_engine.hh"
#include "cpu/ipc_buffer.hh"
#include "cpu/process.hh"

namespace ih
{

/** Which half of an interaction a phase implements. */
enum class PhaseKind : std::uint8_t
{
    PRODUCE = 0, ///< the insecure process's side of interaction i
    CONSUME = 1, ///< the secure process's side of interaction i
};

/** One process's half of an interactive application. */
class InteractiveWorkload : public SteppableTask
{
  public:
    /** Allocate simulated state. Called once, before any phase. */
    virtual void setup(Process &proc, IpcBuffer &ipc) = 0;

    /**
     * Begin the phase of kind @p kind for interaction @p interaction,
     * to be executed by @p num_threads threads.
     */
    virtual void beginPhase(PhaseKind kind, std::uint64_t interaction,
                            unsigned num_threads) = 0;

    // bool step(ExecContext&) — inherited; returns false when the
    // calling thread has no more work in the current phase.
};

/**
 * A typed array living only in simulated memory: a virtual range whose
 * lines the timing model tracks, with no host values. Every operation
 * issues the simulated loads/stores of its elements and returns the
 * AccessResult of the last access it issued.
 */
template <typename T>
class SimRegion
{
  public:
    /** Reserve @p n elements in @p proc's address space. */
    void
    init(Process &proc, std::size_t n)
    {
        reserve(proc.space(), n, false);
    }

    /** Reserve @p n elements in the IPC buffer owner's space. */
    void
    initShared(IpcBuffer &ipc, std::size_t n)
    {
        reserve(ipc.space(), n, true);
    }

    /** Simulated load of element @p i. */
    AccessResult
    load(ExecContext &ctx, std::size_t i)
    {
        return touch(ctx, i, MemOp::LOAD);
    }

    /** Simulated read-modify-write of element @p i: a load, then a
     *  store. */
    AccessResult
    update(ExecContext &ctx, std::size_t i)
    {
        touch(ctx, i, MemOp::LOAD);
        return touch(ctx, i, MemOp::STORE);
    }

    /**
     * Stream @p count elements starting at @p begin, issuing one
     * simulated access per touched cache line (dense kernels touch
     * memory at line granularity; modelling every element would only
     * multiply simulation cost without changing cache behaviour).
     * An empty scan issues nothing and returns a default AccessResult.
     */
    AccessResult
    scan(ExecContext &ctx, std::size_t begin, std::size_t count, MemOp op)
    {
        if (count == 0)
            return {};
        constexpr std::size_t LINE = 64;
        constexpr std::size_t per_line =
            sizeof(T) >= LINE ? 1 : LINE / sizeof(T);
        // First touch at begin, then one per line boundary: the division
        // is by a compile-time constant and runs once, not per line.
        const std::size_t end = begin + count;
        AccessResult last = touch(ctx, begin, op);
        for (std::size_t i = (begin / per_line + 1) * per_line; i < end;
             i += per_line) {
            last = touch(ctx, i, op);
        }
        return last;
    }

    std::size_t size() const { return size_; }
    VAddr addrOf(std::size_t i) const { return base_ + i * sizeof(T); }

  protected:
    AccessResult
    touch(ExecContext &ctx, std::size_t i, MemOp op)
    {
        IH_ASSERT(space_ != nullptr, "SimRegion used before init()");
        IH_ASSERT(i < size_,
                  "SimRegion index %zu out of range (size %zu, base %llx, "
                  "elem %zu)",
                  i, size_, static_cast<unsigned long long>(base_),
                  sizeof(T));
        if (shared_)
            return ctx.accessShared(*space_, addrOf(i), op);
        return ctx.access(*space_, addrOf(i), op);
    }

  private:
    void
    reserve(AddressSpace &space, std::size_t n, bool shared)
    {
        space_ = &space;
        size_ = n;
        base_ = space.reserveRange(n * sizeof(T));
        shared_ = shared;
    }

    AddressSpace *space_ = nullptr;
    VAddr base_ = 0;
    std::size_t size_ = 0;
    bool shared_ = false;
};

/**
 * A SimRegion plus the host values of its elements, for data whose
 * values steer the simulation (addresses, branches, loop bounds,
 * compute() counts). The value operations issue exactly the region's
 * traffic.
 */
template <typename T>
class SimArray : public SimRegion<T>
{
  public:
    /** Allocate @p n elements in @p proc's address space. */
    void
    init(Process &proc, std::size_t n, T fill = T())
    {
        SimRegion<T>::init(proc, n);
        data_.assign(n, fill);
    }

    /** Allocate @p n elements in the IPC buffer owner's space. */
    void
    initShared(IpcBuffer &ipc, std::size_t n, T fill = T())
    {
        SimRegion<T>::initShared(ipc, n);
        data_.assign(n, fill);
    }

    /** Simulated load; returns the host value. */
    const T &
    read(ExecContext &ctx, std::size_t i)
    {
        this->load(ctx, i);
        return data_[i];
    }

    /** Simulated store of @p v. */
    void
    write(ExecContext &ctx, std::size_t i, const T &v)
    {
        this->touch(ctx, i, MemOp::STORE);
        data_[i] = v;
    }

    /** Simulated read-modify-write via @p fn. */
    template <typename Fn>
    void
    update(ExecContext &ctx, std::size_t i, Fn fn)
    {
        SimRegion<T>::update(ctx, i);
        fn(data_[i]);
    }

    /**
     * Raw host-side storage (no simulated traffic). Hot workload kernels
     * index this directly so the per-element math does not re-derive
     * offsets through host(); the simulated accesses still come from
     * explicit scan()/read()/write() calls.
     */
    T *hostData() { return data_.data(); }
    const T *hostData() const { return data_.data(); }

    /** Host-side access (no simulated traffic; for setup/verification). */
    T &host(std::size_t i) { return data_[i]; }
    const T &host(std::size_t i) const { return data_[i]; }

  private:
    std::vector<T> data_;
};

/**
 * Helper for splitting @p total work items across @p threads: the
 * half-open range of thread @p t.
 */
struct WorkRange
{
    std::size_t begin;
    std::size_t end;

    static WorkRange
    of(std::size_t total, unsigned threads, unsigned t)
    {
        const std::size_t per = (total + threads - 1) / threads;
        const std::size_t b = std::min<std::size_t>(total, per * t);
        const std::size_t e = std::min<std::size_t>(total, b + per);
        return {b, e};
    }

    std::size_t size() const { return end - begin; }
};

} // namespace ih

#endif // IH_WORKLOADS_WORKLOAD_HH
