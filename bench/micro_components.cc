/**
 * @file
 * Microbenchmarks of the simulator substrates: cache lookup/insert,
 * mesh routing, network traversal, directory math, SHA-256, AES-256,
 * and Zipf sampling. These guard the simulator's own performance
 * (host-side), since every experiment replays tens of millions of
 * accesses through these paths.
 *
 * Self-timed harness (no external benchmark library): each benchmark
 * runs in doubling batches until it accumulates enough wall time for a
 * stable ns/op reading, and an empty-asm sink keeps the optimizer from
 * deleting the measured work. `--json <path>` writes a
 * "BENCH_micro/v1" report — unlike the figure benches this report
 * *is* host timing (that is the quantity under test), so its numbers
 * are machine-specific and never byte-compared.
 *
 * Knobs: IRONHIDE_MICRO_MS (min measured milliseconds per benchmark,
 * default 20).
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "crypto/aes256.hh"
#include "crypto/sha256.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "noc/network.hh"
#include "sim/config.hh"
#include "sim/rng.hh"

using namespace ih;

namespace
{

/** Keep @p value (and everything feeding it) alive past the optimizer. */
template <typename T>
inline void
sink(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

struct MicroResult
{
    std::string name;
    double nsPerOp = 0.0;
    std::uint64_t iterations = 0;
    double bytesPerOp = 0.0; ///< 0 = no throughput view
};

/**
 * Time @p body(iters) in doubling batches until one batch spans at
 * least the configured minimum wall time, then report that batch.
 * The setup (captured by the closure) runs once, outside the timing.
 */
MicroResult
runMicro(const std::string &name,
         const std::function<void(std::uint64_t iters)> &body,
         double bytes_per_op = 0.0)
{
    const double min_ms = knobReal(Knob::MICRO_MS);
    using Clock = std::chrono::steady_clock;
    std::uint64_t iters = 64;
    for (;;) {
        const auto t0 = Clock::now();
        body(iters);
        const auto t1 = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (ms >= min_ms || iters >= (1ULL << 40)) {
            MicroResult r;
            r.name = name;
            r.nsPerOp = ms * 1e6 / static_cast<double>(iters);
            r.iterations = iters;
            r.bytesPerOp = bytes_per_op;
            return r;
        }
        // Jump straight near the target once a measurable reading
        // exists; otherwise keep doubling.
        if (ms > 0.1) {
            const double factor = min_ms / ms * 1.2;
            iters = static_cast<std::uint64_t>(
                static_cast<double>(iters) * (factor > 2.0 ? factor : 2.0));
        } else {
            iters *= 2;
        }
    }
}

std::vector<MicroResult>
runAll()
{
    std::vector<MicroResult> out;

    {
        Cache cache("bm", 16 * 1024, 4, 64);
        for (Addr a = 0; a < 16 * 1024; a += 64)
            cache.insert(a, 0, Domain::INSECURE);
        out.push_back(runMicro("cache_lookup_hit", [&](std::uint64_t n) {
            Addr a = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                sink(cache.lookup(a));
                a = (a + 64) & (16 * 1024 - 1);
            }
        }));
    }

    {
        Cache cache("bm", 16 * 1024, 4, 64);
        out.push_back(runMicro("cache_insert_evict", [&](std::uint64_t n) {
            Addr a = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                if (!cache.findLine(a))
                    sink(cache.insert(a, 0, Domain::INSECURE));
                a += 64 * 257; // stride through sets
            }
        }));
    }

    {
        SysConfig cfg;
        cfg.validate();
        Topology topo(cfg);
        Router router(topo);
        const ClusterRange cl{0, 32};
        out.push_back(runMicro("route_path", [&](std::uint64_t n) {
            CoreId s = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                sink(router.path(s % 32, (s * 7 + 3) % 32,
                                 router.selectOrder(s % 32, cl)));
                ++s;
            }
        }));
    }

    {
        SysConfig cfg;
        cfg.validate();
        Topology topo(cfg);
        Network net(cfg, topo);
        const ClusterRange whole{0, topo.numTiles()};
        out.push_back(runMicro("network_traverse", [&](std::uint64_t n) {
            Cycle t = 0;
            CoreId s = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                t = net.traverse(s % 64, (s * 13 + 5) % 64, t, 5, whole);
                ++s;
                sink(t);
            }
        }));
    }

    out.push_back(runMicro("directory_sharers", [](std::uint64_t n) {
        std::uint64_t mask = 0xDEADBEEFCAFEF00DULL;
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            Directory::forEachSharer(mask, [&](CoreId c) { acc += c; });
            mask = (mask << 1) | (mask >> 63);
            sink(acc);
        }
    }));

    out.push_back(runMicro(
        "sha256_1KiB",
        [](std::uint64_t n) {
            std::uint8_t buf[1024] = {42};
            for (std::uint64_t i = 0; i < n; ++i)
                sink(Sha256::hash(buf, sizeof(buf)));
        },
        1024.0));

    {
        Aes256::Key key{};
        for (unsigned i = 0; i < key.size(); ++i)
            key[i] = static_cast<std::uint8_t>(i);
        const Aes256 aes(key);
        out.push_back(runMicro(
            "aes256_block",
            [&](std::uint64_t n) {
                Aes256::Block block{};
                for (std::uint64_t i = 0; i < n; ++i) {
                    block = aes.encryptBlock(block);
                    sink(block);
                }
            },
            16.0));
    }

    {
        Rng rng(7);
        ZipfSampler zipf(65536, 0.9);
        out.push_back(runMicro("zipf_sample", [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                sink(zipf.sample(rng));
        }));
    }

    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = jsonReportPath(argc, argv);
    printBanner("Simulator-component microbenchmarks",
                "Host-side ns/op of the substrates every experiment "
                "replays millions of\ntimes: caches, routing, NoC, "
                "directory, crypto, sampling.");

    const std::vector<MicroResult> results = runAll();

    Table table({"benchmark", "ns/op", "ops/s", "MB/s"});
    for (const MicroResult &r : results) {
        const double ops = 1e9 / r.nsPerOp;
        table.addRow({r.name, Table::num(r.nsPerOp, 1),
                      Table::num(ops, 0),
                      r.bytesPerOp > 0.0
                          ? Table::num(ops * r.bytesPerOp / 1e6, 1)
                          : std::string("-")});
    }
    table.print();

    if (json_path) {
        JsonWriter w;
        w.beginObject();
        w.key("schema").value("BENCH_micro/v1");
        w.key("bench").value("micro_components");
        w.key("results").beginArray();
        for (const MicroResult &r : results) {
            w.beginObject();
            w.key("name").value(r.name);
            w.key("ns_per_op").value(r.nsPerOp);
            w.key("iterations").value(r.iterations);
            if (r.bytesPerOp > 0.0)
                w.key("bytes_per_op").value(r.bytesPerOp);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        writeTextFile(json_path, w.str() + "\n");
        std::printf("wrote JSON report: %s\n", json_path);
    }
    return 0;
}
