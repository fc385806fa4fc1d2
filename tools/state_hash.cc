/**
 * @file
 * Trajectory fingerprint tool: steps every benchmark scene at worker
 * counts 0, 1, 2 and 3 (serial plus every lane count up to 4 cpus,
 * none oversubscribed) and prints one FNV-1a hash of the final dynamic
 * state (body poses, velocities and sleep state, joint break
 * bookkeeping, cloth particles) per run, via the library's
 * worldStateHash (parallax/snapshot.hh).
 *
 * Unlike captureState() — whose bytes embed the WorldConfig,
 * including the worker count — this hash covers only quantities the
 * deterministic-mode guarantee promises are bitwise identical for
 * any number of workers, so equal hashes across the w= column are
 * exactly that promise, and equal hashes across code versions mean a
 * refactor did not move a single bit. Record the output before a
 * change, `diff` it after: the first differing line names the run
 * that diverged.
 *
 * Run: ./build/tools/state_hash [steps] [scale] [--simd=BACKEND]
 *
 * steps (default 300) must be a positive integer and scale (default
 * 0.12) a finite number > 0; anything else exits with status 2.
 *
 * --simd selects the kernel backend (scalar, the bitwise reference,
 * or native — SIMD; PAX_SIMD sets the default). The header line
 * names the backend actually running, since scalar and native
 * fingerprints are not comparable: native relaxation sweeps in
 * color-major order, so its trajectories are tolerance-bounded, not
 * bitwise, against scalar.
 */

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "parallax.hh"
#include "workload/benchmarks.hh"

using namespace parallax;

namespace
{

/** Fold one per-run hash into the running combined FNV-1a. */
std::uint64_t
fold(std::uint64_t combined, std::uint64_t h)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&h);
    for (std::size_t i = 0; i < sizeof(h); ++i) {
        combined ^= p[i];
        combined *= 0x100000001b3ull;
    }
    return combined;
}

/** Report a malformed argument and exit with status 2. */
[[noreturn]] void
rejectArg(const char *name, const char *value, const char *what)
{
    std::fprintf(stderr, "invalid %s value '%s' (expected %s)\n", name,
                 value, what);
    std::exit(2);
}

/** Parse all of `text` as a decimal int > 0. */
bool
parsePositiveInt(const char *text, int &out)
{
    if (*text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (*end != '\0' || errno != 0 || v <= 0 || v > INT_MAX)
        return false;
    out = static_cast<int>(v);
    return true;
}

/** Parse all of `text` as a finite double > 0. */
bool
parsePositiveFinite(const char *text, double &out)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno != 0 ||
        !std::isfinite(v) || v <= 0)
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    SimdBackend simd = simdBackendFromEnv(SimdBackend::Scalar);
    constexpr const char simdFlag[] = "--simd=";
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], simdFlag,
                         sizeof(simdFlag) - 1) == 0) {
            const char *value = argv[i] + sizeof(simdFlag) - 1;
            if (!parseSimdBackend(value, simd)) {
                std::fprintf(stderr,
                             "unrecognized --simd value '%s' "
                             "(expected scalar or native)\n",
                             value);
                return 2;
            }
            setenv("PAX_SIMD",
                   simd == SimdBackend::Native ? "native"
                                               : "scalar",
                   1);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    int steps = 300;
    if (argc > 1 && !parsePositiveInt(argv[1], steps))
        rejectArg("steps", argv[1], "a positive integer");
    double scale = 0.12;
    if (argc > 2 && !parsePositiveFinite(argv[2], scale))
        rejectArg("scale", argv[2], "a finite number > 0");
    const unsigned worker_counts[] = {0, 1, 2, 3};

    // Name the backend actually running (native silently degrades to
    // scalar on hosts without SIMD support) so recorded fingerprints
    // are self-describing.
    std::printf("backend %s\n", kernelBackendFor(simd).name());

    std::uint64_t combined = 0xcbf29ce484222325ull;
    for (BenchmarkId id : allBenchmarks) {
        for (unsigned workers : worker_counts) {
            WorldConfig config;
            config.workerThreads = workers;
            config.deterministic = true;
            config.simdBackend = simd;
            std::unique_ptr<World> world =
                buildBenchmark(id, config, scale);
            for (int i = 0; i < steps; ++i)
                world->step();
            const std::uint64_t h = worldStateHash(*world);
            combined = fold(combined, h);
            std::printf("%-11s w=%u %016llx\n",
                        benchmarkInfo(id).shortName, workers,
                        static_cast<unsigned long long>(h));
        }
    }
    std::printf("combined %016llx\n",
                static_cast<unsigned long long>(combined));
    return 0;
}
