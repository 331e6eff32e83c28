#include "workloads/aes_service.hh"

namespace ih
{

Aes256::Key
AesServiceWorkload::serviceKey()
{
    Aes256::Key key{};
    for (unsigned i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(0x42 + i * 3);
    return key;
}

AesServiceWorkload::AesServiceWorkload(QueryGenWorkload &gen)
    : gen_(gen), cipher_(serviceKey())
{
}

void
AesServiceWorkload::setup(Process &proc, IpcBuffer &ipc)
{
    (void)ipc;
    tables_.init(proc, 4 * 256);
    sbox_.init(proc, 256);
}

void
AesServiceWorkload::beginPhase(PhaseKind kind, std::uint64_t interaction,
                               unsigned num_threads)
{
    IH_ASSERT(kind == PhaseKind::CONSUME, "AES is the consumer");
    interaction_ = interaction;
    cursor_.assign(num_threads, 0);
    limit_.assign(num_threads, 0);
    const std::size_t q = gen_.queries().size();
    for (unsigned t = 0; t < num_threads; ++t) {
        const WorkRange r = WorkRange::of(q, num_threads, t);
        cursor_[t] = r.begin;
        limit_[t] = r.end;
    }
}

bool
AesServiceWorkload::step(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    if (cursor_[t] >= limit_[t])
        return false;

    const std::size_t q = cursor_[t]++;
    QueryRecord rec = gen_.queries().read(ctx, q);

    // CTR keystream: each block's T-table walk is replayed into the
    // cache model at the true indices.
    const Aes256::LookupHook hook = [&](unsigned table, unsigned index) {
        if (table < 4)
            tables_.read(ctx, static_cast<std::size_t>(table) * 256 +
                                  index);
        else
            sbox_.read(ctx, index);
    };

    std::uint64_t counter =
        (interaction_ << 16) | static_cast<std::uint64_t>(q) << 4;
    for (unsigned off = 0; off < sizeof(rec.payload); off += 16) {
        Aes256::Block ctr_block{};
        for (int i = 0; i < 8; ++i)
            ctr_block[8 + i] =
                static_cast<std::uint8_t>(counter >> (56 - 8 * i));
        const Aes256::Block ks = cipher_.encryptBlockTraced(ctr_block,
                                                            hook);
        for (unsigned i = 0; i < 16; ++i)
            rec.payload[off + i] ^= ks[i];
        ++counter;
        ctx.compute(60); // XOR + scheduling arithmetic
    }

    gen_.results().write(ctx, q, rec);
    return cursor_[t] < limit_[t];
}

} // namespace ih
