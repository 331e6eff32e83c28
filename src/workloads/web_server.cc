#include "workloads/web_server.hh"

namespace ih
{

WebServerWorkload::WebServerWorkload(OsServiceWorkload &os,
                                     const WebParams &p)
    : os_(os), p_(p)
{
}

void
WebServerWorkload::setup(Process &proc, IpcBuffer &ipc)
{
    (void)ipc;
    metadata_.init(proc, p_.numPages);
    docs_.init(proc,
               static_cast<std::size_t>(p_.numPages) * p_.pageBytes);
    for (unsigned pg = 0; pg < p_.numPages; ++pg)
        metadata_.host(pg) = (static_cast<std::uint64_t>(p_.pageBytes)
                              << 32) |
                             (pg * 2654435761u);
}

void
WebServerWorkload::beginPhase(PhaseKind kind, std::uint64_t interaction,
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
WebServerWorkload::step(ExecContext &ctx)
{
    const unsigned t = ctx.threadIndex();
    if (cursor_[t] >= limit_[t])
        return false;

    const std::size_t r = cursor_[t]++;
    const ClientRequest req = os_.requests().read(ctx, r);

    // Request parsing + routing.
    ctx.compute(120);
    const unsigned page =
        static_cast<unsigned>(req.key % p_.numPages);
    const std::uint64_t meta = metadata_.read(ctx, page);
    const auto len = static_cast<std::uint32_t>(meta >> 32);

    // Stream one chunk of the page body into the response (http_load
    // fetches are random, so consecutive fetches share little state).
    const std::size_t base =
        static_cast<std::size_t>(page) * p_.pageBytes;
    docs_.scan(ctx, base, std::min<std::size_t>(len, p_.pageBytes),
               MemOp::LOAD);
    ctx.compute(p_.pageBytes / 8); // checksumming / chunked encoding

    // writev of the response, fcntl to re-arm the connection.
    const std::size_t sc0 = (2 * r) % os_.syscalls().size();
    const std::size_t sc1 = (2 * r + 1) % os_.syscalls().size();
    os_.syscalls().write(ctx, sc0,
                         SyscallRecord{4 /* writev */, len, req.key});
    os_.syscalls().write(ctx, sc1,
                         SyscallRecord{2 /* fcntl */, 0, req.key});
    const std::uint64_t ret = os_.sysRets().read(ctx, sc0);
    ctx.compute(20 + (ret & 0x3));
    return cursor_[t] < limit_[t];
}

} // namespace ih
