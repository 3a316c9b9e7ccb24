/**
 * @file
 * csync-mc — the model-checking driver.  Three subcommands:
 *
 *   csync-mc explore [--protocols A,B|all] [--bound smoke|deep] [...]
 *       exhaustively enumerate bounded interleavings per protocol,
 *       reporting a minimal replayable counterexample on violation;
 *   csync-mc fuzz [--seeds N] [--ops N] [...]
 *       differential trace fuzzing over protocol pairs and Bitar
 *       feature ablations;
 *   csync-mc replay FILE [-o FILE]
 *       re-run a dumped trace (a bare trace object, or any document
 *       with a "trace" member — explore counterexamples and fuzz
 *       mismatch entries replay directly) and print the verdict.
 *
 * All output is JSON in the same dialect as csync-sweep campaigns.
 * Exit codes: 0 clean, 1 violations or mismatches, 2 usage/I-O error.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/campaign_io.hh"
#include "harness/cli_args.hh"
#include "mc/explorer.hh"
#include "mc/fuzzer.hh"
#include "sim/logging.hh"
#include "system/topology.hh"

using namespace csync;
using namespace csync::mc;
using harness::parseUnsignedArg;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s explore [options]    exhaustive interleaving search\n"
        "       %s fuzz [options]       differential trace fuzzing\n"
        "       %s replay FILE [-o F]   re-run a dumped trace\n"
        "\n"
        "explore options:\n"
        "  --protocols A,B,... | all   protocols to search (default:\n"
        "                              all shipped protocols)\n"
        "  --bound smoke|deep          preset bounds (default smoke:\n"
        "                              2 caches, 1 block, depth 4;\n"
        "                              deep: 3 caches, 2 blocks, 6)\n"
        "  --caches N / --blocks N / --depth N   override one bound\n"
        "  --no-locks / --no-evicts    drop op classes from the alphabet\n"
        "  --topology NAME             interconnect preset (default\n"
        "                              single_bus; clustered_2x1 puts\n"
        "                              the cluster snoop filters under\n"
        "                              the search)\n"
        "\n"
        "fuzz options:\n"
        "  --seeds N                   seeds per pair (default 64)\n"
        "  --ops N                     ops per trace (default 24)\n"
        "  --caches N / --blocks N     trace shape (default 2 / 2)\n"
        "\n"
        "common options:\n"
        "  -o, --out FILE              JSON output (default stdout)\n"
        "  -q, --quiet                 no progress on stderr\n"
        "\n"
        "exit codes: 0 clean, 1 violation/mismatch found, 2 usage/IO\n",
        argv0, argv0, argv0);
    return 2;
}

int
cliError(const std::string &msg)
{
    std::fprintf(stderr, "csync-mc: %s\n", msg.c_str());
    return 2;
}

int
emit(const harness::Json &doc, const std::string &out_path)
{
    std::string text = doc.dump(0) + "\n";
    if (out_path.empty()) {
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    std::string err;
    if (!harness::writeFile(out_path, text, &err))
        return cliError(err);
    return 0;
}

harness::Json
boundsToJson(const ExploreBounds &b)
{
    harness::Json j = harness::Json::object();
    j.set("caches", b.caches);
    j.set("blocks", b.blocks);
    j.set("depth", b.depth);
    j.set("lock_ops", b.lockOps);
    j.set("evict_ops", b.evictOps);
    // Rides along only when non-default, keeping the committed golden
    // mc output byte-identical.
    if (b.topology != "single_bus")
        j.set("topology", b.topology);
    return j;
}

int
doExplore(const std::vector<std::string> &args)
{
    ExploreBounds bounds = ExploreBounds::smoke();
    std::vector<std::string> protocols;
    std::string out_path;
    bool quiet = false;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&]() -> const std::string * {
            return i + 1 < args.size() ? &args[++i] : nullptr;
        };
        const std::string *v;
        std::string err;
        if (a == "--protocols") {
            if (!(v = value()) || !harness::splitList(*v, &protocols))
                return cliError("--protocols needs a comma list");
        } else if (a == "--bound") {
            if (!(v = value()))
                return cliError("--bound needs smoke|deep");
            if (*v == "smoke")
                bounds = ExploreBounds::smoke();
            else if (*v == "deep")
                bounds = ExploreBounds::deep();
            else
                return cliError("unknown bound '" + *v + "'");
        } else if (a == "--caches") {
            if (!(v = value()))
                return cliError("--caches needs a number");
            if (!parseUnsignedArg(a, *v, &bounds.caches, &err))
                return cliError(err);
        } else if (a == "--blocks") {
            if (!(v = value()))
                return cliError("--blocks needs a number");
            if (!parseUnsignedArg(a, *v, &bounds.blocks, &err))
                return cliError(err);
        } else if (a == "--depth") {
            if (!(v = value()))
                return cliError("--depth needs a number");
            if (!parseUnsignedArg(a, *v, &bounds.depth, &err))
                return cliError(err);
        } else if (a == "--no-locks") {
            bounds.lockOps = false;
        } else if (a == "--no-evicts") {
            bounds.evictOps = false;
        } else if (a == "--topology") {
            if (!(v = value()))
                return cliError("--topology needs a preset name");
            TopologyConfig dummy;
            if (!TopologyConfig::fromName(*v, &dummy)) {
                std::string names;
                for (const auto &n : TopologyConfig::names())
                    names += (names.empty() ? "" : ", ") + n;
                return cliError("unknown topology '" + *v +
                                "' (known: " + names + ")");
            }
            bounds.topology = *v;
        } else if (a == "-o" || a == "--out") {
            if (!(v = value()))
                return cliError("-o needs a path");
            out_path = *v;
        } else if (a == "-q" || a == "--quiet") {
            quiet = true;
        } else {
            return cliError("unknown explore option '" + a + "'");
        }
    }
    if (protocols.empty() ||
        (protocols.size() == 1 && protocols[0] == "all")) {
        protocols = StateExplorer::shippedProtocols();
    }
    if (bounds.caches == 0 || bounds.blocks == 0 || bounds.depth == 0)
        return cliError("bounds must be nonzero");

    harness::Json results = harness::Json::array();
    unsigned violations = 0;
    for (const std::string &proto : protocols) {
        ExploreResult res;
        try {
            ScopedFatalThrow guard;
            StateExplorer explorer(bounds);
            res = explorer.explore(proto);
        } catch (const FatalError &e) {
            return cliError(e.what());
        }
        harness::Json row = harness::Json::object();
        row.set("protocol", res.protocol);
        row.set("clean", res.clean());
        row.set("states_visited", res.statesVisited);
        row.set("states_deduped", res.statesDeduped);
        if (res.violationFound) {
            ++violations;
            row.set("violation", res.violation);
            row.set("counterexample", traceToJson(res.counterexample));
            row.set("counterexample_verdict",
                    verdictToJson(res.counterexampleVerdict));
        }
        if (!quiet) {
            std::fprintf(stderr,
                         "csync-mc: explore %-16s %-9s %8llu states "
                         "(%llu deduped)\n",
                         res.protocol.c_str(),
                         res.clean() ? "clean" : "VIOLATION",
                         (unsigned long long)res.statesVisited,
                         (unsigned long long)res.statesDeduped);
        }
        results.push(std::move(row));
    }

    harness::Json doc = harness::Json::object();
    doc.set("csync_mc", 1);
    doc.set("mode", "explore");
    doc.set("bound", boundsToJson(bounds));
    doc.set("results", std::move(results));
    int rc = emit(doc, out_path);
    if (rc)
        return rc;
    return violations ? 1 : 0;
}

int
doFuzz(const std::vector<std::string> &args)
{
    unsigned seeds = 64;
    DifferentialFuzzer::Options opts;
    std::string out_path;
    bool quiet = false;

    const std::map<std::string, unsigned *> numbers = {
        {"--seeds", &seeds},
        {"--ops", &opts.ops},
        {"--caches", &opts.caches},
        {"--blocks", &opts.blocks},
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&]() -> const std::string * {
            return i + 1 < args.size() ? &args[++i] : nullptr;
        };
        const std::string *v;
        std::string err;
        if (auto num = numbers.find(a); num != numbers.end()) {
            if (!(v = value()))
                return cliError(a + " needs a nonzero number");
            if (!parseUnsignedArg(a, *v, num->second, &err, 1))
                return cliError(err);
        } else if (a == "-o" || a == "--out") {
            if (!(v = value()))
                return cliError("-o needs a path");
            out_path = *v;
        } else if (a == "-q" || a == "--quiet") {
            quiet = true;
        } else {
            return cliError("unknown fuzz option '" + a + "'");
        }
    }

    DifferentialFuzzer fuzzer(opts);
    std::vector<FuzzPair> pairs = DifferentialFuzzer::defaultPairs();
    harness::Json mismatches = harness::Json::array();
    std::uint64_t reports = 0;
    std::uint64_t divergences = 0;
    unsigned bad = 0;

    for (const FuzzPair &pair : pairs) {
        for (unsigned s = 1; s <= seeds; ++s) {
            FuzzReport rep;
            try {
                ScopedFatalThrow guard;
                rep = fuzzer.runPair(s, pair);
            } catch (const FatalError &e) {
                return cliError(e.what());
            }
            ++reports;
            divergences += rep.diverged ? 1 : 0;
            if (rep.mismatch) {
                ++bad;
                harness::Json row = harness::Json::object();
                row.set("seed", rep.seed);
                row.set("pair", pair.label());
                row.set("detail", rep.detail);
                row.set("verdict_a", verdictToJson(rep.verdictA));
                row.set("verdict_b", verdictToJson(rep.verdictB));
                row.set("trace", traceToJson(rep.trace));
                mismatches.push(std::move(row));
            }
        }
        if (!quiet) {
            std::fprintf(stderr, "csync-mc: fuzz %-40s %u seeds\n",
                         pair.label().c_str(), seeds);
        }
    }

    harness::Json doc = harness::Json::object();
    doc.set("csync_mc", 1);
    doc.set("mode", "fuzz");
    doc.set("seeds", seeds);
    doc.set("ops", opts.ops);
    doc.set("caches", opts.caches);
    doc.set("blocks", opts.blocks);
    doc.set("reports", reports);
    doc.set("expected_divergences", divergences);
    doc.set("mismatches", std::move(mismatches));
    int rc = emit(doc, out_path);
    if (rc)
        return rc;
    if (!quiet) {
        std::fprintf(stderr,
                     "csync-mc: %llu diffs, %u mismatches, "
                     "%llu expected divergences\n",
                     (unsigned long long)reports, bad,
                     (unsigned long long)divergences);
    }
    return bad ? 1 : 0;
}

int
doReplay(const std::vector<std::string> &args)
{
    std::string in_path;
    std::string out_path;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "-o" || a == "--out") {
            if (i + 1 >= args.size())
                return cliError("-o needs a path");
            out_path = args[++i];
        } else if (!a.empty() && a[0] == '-') {
            return cliError("unknown replay option '" + a + "'");
        } else if (in_path.empty()) {
            in_path = a;
        } else {
            return cliError("replay takes one trace file");
        }
    }
    if (in_path.empty())
        return cliError("replay needs a trace file");

    std::string text, err;
    if (!harness::readFile(in_path, &text, &err))
        return cliError(err);
    harness::Json doc = harness::Json::parse(text, &err);
    if (!err.empty())
        return cliError(in_path + ": " + err);
    // Accept a bare trace, a replay/fuzz doc with a "trace" member, an
    // explore doc (first counterexample), or a fuzz doc (first
    // mismatch) — so any csync-mc output replays directly.
    const harness::Json *tj = &doc;
    if (doc.has("trace")) {
        tj = &doc["trace"];
    } else if (doc.has("results") && doc["results"].isArray()) {
        for (std::size_t i = 0; i < doc["results"].size(); ++i) {
            const harness::Json &row = doc["results"].at(i);
            if (row.has("counterexample")) {
                tj = &row["counterexample"];
                break;
            }
        }
    } else if (doc.has("mismatches") && doc["mismatches"].isArray() &&
               doc["mismatches"].size() > 0 &&
               doc["mismatches"].at(0).has("trace")) {
        tj = &doc["mismatches"].at(0)["trace"];
    }
    DirectedTrace trace;
    if (!traceFromJson(*tj, &trace, &err))
        return cliError(in_path + ": " + err);

    ReplayVerdict v;
    try {
        ScopedFatalThrow guard;
        v = replayTrace(trace);
    } catch (const FatalError &e) {
        return cliError(e.what());
    }

    harness::Json out = harness::Json::object();
    out.set("csync_mc", 1);
    out.set("mode", "replay");
    out.set("trace", traceToJson(trace));
    out.set("result", verdictToJson(v));
    int rc = emit(out, out_path);
    if (rc)
        return rc;
    return v.clean() ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "explore")
        return doExplore(args);
    if (cmd == "fuzz")
        return doFuzz(args);
    if (cmd == "replay")
        return doReplay(args);
    return usage(argv[0]);
}
