/**
 * @file
 * csync-trace — the trace front-end's toolbox:
 *
 *   csync-trace gen -o out.ctrace --kernel mix --threads 8 \
 *               --events 100000 --seed 1
 *   csync-trace info trace.ctrace
 *   csync-trace validate trace.ctrace
 *
 * gen renders a seeded synthetic pthread-style kernel into the
 * `.ctrace` format (byte-reproducible for a given parameter set);
 * info prints the header and thread table; validate streams every
 * event through the reader's integrity checks.
 *
 * Exit codes: 0 success / trace valid; 1 invalid trace; 2 usage or
 * I/O error.
 */

#include <cstdio>
#include <string>

#include "harness/cli_args.hh"
#include "trace/gen.hh"
#include "trace/reader.hh"

using namespace csync;
using namespace csync::trace;
using harness::parseUnsignedArg;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s gen -o FILE [options]   generate a synthetic "
        "trace\n"
        "       %s info FILE               print header and thread "
        "table\n"
        "       %s validate FILE           stream-check every event\n"
        "\n"
        "gen options:\n"
        "  -o, --out FILE       output trace file (required)\n"
        "  --kernel NAME        synthetic kernel (default mix)\n"
        "  --threads N          trace threads (default 4)\n"
        "  --events N           approximate total events (default "
        "10000)\n"
        "  --seed N             generation seed (default 1)\n"
        "  --chunk-events N     events per chunk (default 4096)\n"
        "  --list-kernels       list kernel names and exit\n",
        argv0, argv0, argv0);
    return 2;
}

int
cliError(const std::string &msg)
{
    std::fprintf(stderr, "csync-trace: %s\n", msg.c_str());
    return 2;
}

int
doGen(int argc, char **argv)
{
    GenParams p;
    std::string out_path, err;

    auto next_arg = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "csync-trace: %s needs a value\n",
                         flag);
            return nullptr;
        }
        return argv[++i];
    };

    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = nullptr;
        if (a == "-o" || a == "--out") {
            if (!(v = next_arg(i, "--out")))
                return 2;
            out_path = v;
        } else if (a == "--kernel") {
            if (!(v = next_arg(i, "--kernel")))
                return 2;
            p.kernel = v;
        } else if (a == "--threads") {
            if (!(v = next_arg(i, "--threads")))
                return 2;
            if (!parseUnsignedArg(a, v, &p.threads, &err))
                return cliError(err);
        } else if (a == "--events") {
            if (!(v = next_arg(i, "--events")))
                return 2;
            if (!parseUnsignedArg(a, v, &p.events, &err))
                return cliError(err);
        } else if (a == "--seed") {
            if (!(v = next_arg(i, "--seed")))
                return 2;
            if (!parseUnsignedArg(a, v, &p.seed, &err))
                return cliError(err);
        } else if (a == "--chunk-events") {
            if (!(v = next_arg(i, "--chunk-events")))
                return 2;
            if (!parseUnsignedArg(a, v, &p.chunkEvents, &err, 1))
                return cliError(err);
        } else if (a == "--list-kernels") {
            for (const auto &k : genKernelNames())
                std::printf("%s\n", k.c_str());
            return 0;
        } else {
            return cliError("unknown gen option " + a);
        }
    }
    if (out_path.empty())
        return cliError("gen needs an output file (-o FILE)");

    if (!generateTrace(p, out_path, &err))
        return cliError(err);

    TraceReader r;
    if (!r.open(out_path, &err))
        return cliError("generated trace failed to open: " + err);
    std::printf("%s: kernel %s, %u threads, %llu events, seed %llu\n",
                out_path.c_str(), p.kernel.c_str(),
                r.header().numThreads,
                (unsigned long long)r.header().totalEvents,
                (unsigned long long)p.seed);
    return 0;
}

void
printFlags(std::uint32_t flags)
{
    std::printf("flags:       0x%x (%slocks, %sbarriers, %sdeps)\n",
                flags, (flags & kFlagHasLocks) ? "" : "no ",
                (flags & kFlagHasBarriers) ? "" : "no ",
                (flags & kFlagHasDeps) ? "" : "no ");
}

int
doInfo(const std::string &path)
{
    TraceReader r;
    std::string err;
    if (!r.open(path, &err)) {
        std::fprintf(stderr, "csync-trace: %s\n", err.c_str());
        return 1;
    }
    const TraceHeader &h = r.header();
    std::printf("trace:       %s\n", path.c_str());
    std::printf("version:     %u\n", h.version);
    std::printf("threads:     %u\n", h.numThreads);
    std::printf("events:      %llu\n",
                (unsigned long long)h.totalEvents);
    std::printf("chunks:      %u\n", h.chunkCount);
    printFlags(h.flags);
    for (unsigned t = 0; t < h.numThreads; ++t) {
        std::printf("  thread %-3u %llu events\n", t,
                    (unsigned long long)r.threadEvents(t));
    }
    return 0;
}

int
doValidate(const std::string &path)
{
    TraceReader r;
    std::string err;
    if (!r.open(path, &err)) {
        std::fprintf(stderr, "csync-trace: %s\n", err.c_str());
        return 1;
    }
    TraceStats stats;
    if (!r.validate(&err, &stats)) {
        std::fprintf(stderr, "csync-trace: %s\n", err.c_str());
        return 1;
    }
    std::printf("%s: valid, %llu events\n", path.c_str(),
                (unsigned long long)stats.total);
    for (unsigned k = 0; k < kNumEventKinds; ++k) {
        if (stats.byKind[k]) {
            std::printf("  %-8s %llu\n", eventKindName(EventKind(k)),
                        (unsigned long long)stats.byKind[k]);
        }
    }
    std::printf("  peak resident chunk bytes: %llu\n",
                (unsigned long long)r.maxResidentPayloadBytes());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h") {
        usage(argv[0]);
        return 0;
    }
    if (cmd == "gen")
        return doGen(argc, argv);
    if (cmd == "info" || cmd == "validate") {
        if (argc != 3)
            return cliError(cmd + " needs exactly one trace file");
        return cmd == "info" ? doInfo(argv[2]) : doValidate(argv[2]);
    }
    std::fprintf(stderr, "csync-trace: unknown command %s\n",
                 cmd.c_str());
    return usage(argv[0]);
}
