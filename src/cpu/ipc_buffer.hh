/**
 * @file
 * The shared inter-process communication buffer.
 *
 * Following MI6/HotCalls, secure and insecure processes exchange data
 * through a shared memory region allocated in the *insecure* process's
 * address space (and therefore in insecure DRAM regions / L2 slices).
 * The secure process is allowed to access it — the shared data is
 * considered insecure and no secure data ever leaves the secure
 * partitions — so IPC traffic is the one kind of packet permitted to
 * cross the cluster boundary under IRONHIDE.
 *
 * The buffer is a ring of fixed-size slots, each with a header line
 * (sequence/flag words) and a payload. Workloads read and write it with
 * ordinary loads/stores through the execution context.
 */

#ifndef IH_CPU_IPC_BUFFER_HH
#define IH_CPU_IPC_BUFFER_HH

#include "cpu/process.hh"
#include "sim/types.hh"

namespace ih
{

/** Shared ring buffer between one insecure and one secure process. */
class IpcBuffer
{
  public:
    /**
     * @param owner      the *insecure* process whose space hosts the ring
     * @param slots      ring depth
     * @param slot_bytes payload bytes per slot
     */
    IpcBuffer(Process &owner, unsigned slots, unsigned slot_bytes);

    /** Address space hosting the buffer (the insecure owner's). */
    AddressSpace &space() { return owner_->space(); }

    /** Virtual address of slot @p i's header word. */
    VAddr headerAddr(unsigned i) const;

    /** Virtual address of byte @p off in slot @p i's payload. */
    VAddr payloadAddr(unsigned i, unsigned off) const;

    unsigned slots() const { return slots_; }

    /** Slot used by interaction @p idx (ring indexing). */
    unsigned slotOf(std::uint64_t idx) const
    {
        return static_cast<unsigned>(idx % slots_);
    }

  private:
    Process *owner_;
    unsigned slots_;
    unsigned slotBytes_;
    VAddr base_;
    static constexpr unsigned HEADER_BYTES = 64; // one line
};

} // namespace ih

#endif // IH_CPU_IPC_BUFFER_HH
