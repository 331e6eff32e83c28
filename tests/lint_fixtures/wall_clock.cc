// Seeded violations: three host time/entropy sources. Simulated
// results must be a pure function of (config, seed); any of these makes
// them a function of the host too.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>

namespace fixture
{

std::uint64_t
hostTaintedSeed()
{
    const auto t =
        std::chrono::steady_clock::now(); // VIOLATION: wall clock
    const int r = std::rand();            // VIOLATION: libc rand
    std::random_device rd;                // VIOLATION: host entropy
    return static_cast<std::uint64_t>(
               t.time_since_epoch().count()) +
           static_cast<std::uint64_t>(r) + rd();
}

} // namespace fixture
