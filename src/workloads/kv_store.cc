#include "workloads/kv_store.hh"

namespace ih
{

KvStoreWorkload::KvStoreWorkload(OsServiceWorkload &os,
                                 std::size_t capacity)
    : os_(os), capacity_(capacity)
{
    IH_ASSERT((capacity & (capacity - 1)) == 0,
              "hash table capacity must be a power of two");
}

std::uint64_t
KvStoreWorkload::hashKey(std::uint64_t key)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 8; ++i) {
        h ^= (key >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
KvStoreWorkload::setup(Process &proc, IpcBuffer &ipc)
{
    (void)ipc;
    slots_.init(proc, capacity_, 0);
    values_.init(proc, capacity_ * 8, 0); // 64 B per value
    // Pre-populate half the key space (steady-state cache).
    for (std::uint64_t k = 1; k <= os_.params().keySpace / 2; ++k) {
        std::size_t i = hashKey(k) & (capacity_ - 1);
        while (slots_.host(i) != 0)
            i = (i + 1) & (capacity_ - 1);
        slots_.host(i) = k;
        values_.host(i * 8) = k * 3;
    }
}

void
KvStoreWorkload::beginPhase(PhaseKind kind, std::uint64_t interaction,
                            unsigned num_threads)
{
    IH_ASSERT(kind == PhaseKind::CONSUME, "the server is the consumer");
    (void)interaction;
    const std::size_t total = os_.requests().size();
    cursor_.assign(num_threads, 0);
    limit_.assign(num_threads, 0);
    for (unsigned t = 0; t < num_threads; ++t) {
        const WorkRange r = WorkRange::of(total, num_threads, t);
        cursor_[t] = r.begin;
        limit_[t] = r.end;
    }
}

bool
KvStoreWorkload::step(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    if (cursor_[t] >= limit_[t])
        return false;

    const std::size_t r = cursor_[t]++;
    const ClientRequest req = os_.requests().read(ctx, r);
    const std::uint64_t key = req.key + 1; // 0 is the empty marker

    // Linear probe.
    std::size_t i = hashKey(key) & (capacity_ - 1);
    unsigned probes = 0;
    bool found = false;
    while (probes < 16) {
        const std::uint64_t slot_key = slots_.read(ctx, i);
        ++probes;
        if (slot_key == key) {
            found = true;
            break;
        }
        if (slot_key == 0)
            break;
        i = (i + 1) & (capacity_ - 1);
    }
    ctx.compute(30 + probes * 6);

    if (req.kind == 1 || !found) {
        // SET (or insert-on-miss): write the 64-byte value.
        slots_.write(ctx, i, key);
        values_.scan(ctx, i * 8, 8, MemOp::STORE);
        for (unsigned w = 0; w < 8; ++w)
            values_.host(i * 8 + w) = key + w;
        ctx.compute(40);
    } else {
        values_.scan(ctx, i * 8, 8, MemOp::LOAD);
        ctx.compute(25);
    }

    // Emit the response syscall (writev) for this request.
    const std::size_t sc_slot = r % os_.syscalls().size();
    os_.syscalls().write(ctx, sc_slot,
                         SyscallRecord{4 /* writev */, req.size, key});
    // Consume the OS's return value for the previous batch.
    const std::uint64_t ret = os_.sysRets().read(ctx, sc_slot);
    ctx.compute(20 + (ret & 0x3));
    return cursor_[t] < limit_[t];
}

} // namespace ih
