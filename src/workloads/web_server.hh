/**
 * @file
 * LIGHTTPD-style secure static web server.
 *
 * Serves page-fetch requests from an in-memory document store: parse the
 * request, look the page up in a metadata hash, stream the page body
 * (random page popularity makes this the low-L2-locality workload of
 * Figure 7), and hand the response to the OS as a writev batch. Driven
 * at one fetched page per interaction, like http_load's concurrent
 * client connections.
 */

#ifndef IH_WORKLOADS_WEB_SERVER_HH
#define IH_WORKLOADS_WEB_SERVER_HH

#include "workloads/os_service.hh"

namespace ih
{

/** Web server sizing. */
struct WebParams
{
    unsigned numPages = 2048;
    unsigned pageBytes = 2048; ///< scaled from the paper's 20 KB pages

    WebParams
    scaled(double s) const
    {
        WebParams p = *this;
        p.numPages = std::max(64u, static_cast<unsigned>(numPages * s));
        return p;
    }
};

/** Secure lighttpd-like server. */
class WebServerWorkload : public InteractiveWorkload
{
  public:
    WebServerWorkload(OsServiceWorkload &os, const WebParams &p);

    void setup(Process &proc, IpcBuffer &ipc) override;
    void beginPhase(PhaseKind kind, std::uint64_t interaction,
                    unsigned num_threads) override;
    bool step(ExecContext &ctx) override;

  private:
    OsServiceWorkload &os_;
    WebParams p_;
    SimArray<std::uint64_t> metadata_;   ///< per-page (size, checksum)
    SimRegion<std::uint8_t> docs_;       ///< page bodies
    std::vector<std::size_t> cursor_;
    std::vector<std::size_t> limit_;
};

} // namespace ih

#endif // IH_WORKLOADS_WEB_SERVER_HH
