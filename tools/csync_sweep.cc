/**
 * @file
 * csync-sweep — the batch experiment driver.  Expands a declarative
 * sweep spec (JSON file and/or command-line axes) into a job grid, runs
 * it on a worker pool, writes one JSON document per campaign (plus
 * optional CSV), and implements the regression gate:
 *
 *   csync-sweep --protocols bitar,goodman --workloads random_sharing \
 *               --procs 2,4 --jobs 4 -o campaign.json
 *   csync-sweep --spec sweep.json -o new.json
 *   csync-sweep --compare old.json new.json --tolerance 0.5
 *
 * Campaigns stream every finished row to an append-only journal
 * (`<out>.journal.jsonl`, or --journal FILE), so an interrupted run —
 * Ctrl-C, OOM kill, power loss — can be picked up with `--resume` and
 * still produce a byte-identical campaign document.  `--shard i/N`
 * runs a deterministic slice of the grid and `csync-sweep merge`
 * reassembles shard journals into the one canonical campaign.
 *
 * Exit codes: 0 success / no drift; 1 drift or failed jobs; 2 usage or
 * I/O error; 3 interrupted (a resume invocation is printed).
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "coherence/protocol.hh"
#include "harness/campaign.hh"
#include "harness/campaign_io.hh"
#include "harness/cli_args.hh"
#include "harness/compare.hh"
#include "harness/journal.hh"
#include "harness/runner_proc.hh"
#include "harness/sweep.hh"
#include "harness/workload_factory.hh"
#include "mem/arbitration.hh"

using namespace csync;
using namespace csync::harness;

namespace
{

/** Set by SIGINT/SIGTERM; workers drain instead of starting new jobs. */
std::atomic<bool> g_stop{false};

extern "C" void
onSignal(int)
{
    // Second signal: the user really means it — abandon the drain.
    if (g_stop.exchange(true))
        std::_Exit(130);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s [options]                  run a campaign\n"
        "       %s --compare OLD NEW [opts]   diff two campaigns\n"
        "       %s merge J1 J2 ... -o OUT     merge shard journals\n"
        "       %s --list                     list axes values\n"
        "\n"
        "campaign options:\n"
        "  --spec FILE          sweep spec JSON (axes below override "
        "it)\n"
        "  --protocols A,B,...  protocol axis\n"
        "  --workloads A,B,...  workload axis\n"
        "  --topology A,B,...   topology axis (default single_bus)\n"
        "  --topology-spec F,.. declarative topology spec files; with\n"
        "                       no --topology they replace single_bus\n"
        "  --arbitration A,...  bus arbitration axis (default "
        "round_robin)\n"
        "  --procs N,M,...      processor-count axis (default 4)\n"
        "  --block-words N,...  block-size axis, bus words (default 4)\n"
        "  --frames N,...       cache-frames axis (default 128)\n"
        "  --seeds N,...        seed axis (default 1)\n"
        "  --fault-rates R,...  fault-injection rate axis (default 0)\n"
        "  --fault-seeds N,...  fault PRNG seed axis (default 1)\n"
        "  --fault-kinds A,...  fault kinds to inject (default: all)\n"
        "  --ops N              memory ops per processor (default "
        "2000)\n"
        "  --max-ticks N        per-job simulated-time budget\n"
        "  --jobs N             worker threads (default: all cores)\n"
        "  --sim-threads N      event-engine threads per job (default\n"
        "                       1 = the serial engine; >1 shards\n"
        "                       partitionable jobs by interconnect\n"
        "                       domain, results identical either way)\n"
        "  -o, --out FILE       campaign JSON output (default stdout)\n"
        "  --csv FILE           also export rows as CSV\n"
        "  --name NAME          campaign name in the manifest\n"
        "  -q, --quiet          no per-job progress on stderr\n"
        "\n"
        "resilience options:\n"
        "  --journal FILE       stream rows to FILE as they finish\n"
        "                       (default <out>.journal.jsonl; an\n"
        "                       explicit --journal is kept afterwards)\n"
        "  --resume FILE        continue an interrupted journal; the\n"
        "                       spec comes from its header, so axis\n"
        "                       flags cannot be combined with it\n"
        "  --shard I/N          run only this deterministic 1-of-N\n"
        "                       slice of the grid (see 'merge')\n"
        "  --wall-deadline MS   per-job wall-clock deadline (besides\n"
        "                       the simulated-time budget)\n"
        "  --retries N          retry wall_timeout/crashed jobs up to\n"
        "                       N extra times (default 0)\n"
        "  --retry-backoff MS   first retry delay, doubling each\n"
        "                       retry (default 100)\n"
        "  --isolate            run each job in a forked child, so a\n"
        "                       crashing simulation becomes a\n"
        "                       \"crashed\" row with its stderr tail\n"
        "\n"
        "compare options:\n"
        "  --tolerance PCT      allowed relative drift per stat "
        "(default 0)\n",
        argv0, argv0, argv0, argv0);
    return 2;
}

int
cliError(const std::string &msg)
{
    std::fprintf(stderr, "csync-sweep: %s\n", msg.c_str());
    return 2;
}

int
doList()
{
    std::printf("protocols:");
    for (const auto &p : ProtocolRegistry::names())
        std::printf(" %s", p.c_str());
    std::printf("\nworkloads:");
    for (const auto &w : workloadNames())
        std::printf(" %s", w.c_str());
    std::printf("\ntopologies:");
    for (const auto &t : TopologyConfig::names())
        std::printf(" %s", t.c_str());
    std::printf("\narbitrations:");
    for (const auto &a : ArbitrationRegistry::names())
        std::printf(" %s", a.c_str());
    std::printf("\n");
    return 0;
}

int
doCompare(const std::string &old_path, const std::string &new_path,
          double tolerance_pct)
{
    auto load = [](const std::string &path, CampaignResult *out,
                   std::string *err) {
        std::string text;
        if (!readFile(path, &text, err))
            return false;
        Json doc = Json::parse(text, err);
        if (!err->empty()) {
            *err = path + ": " + *err;
            return false;
        }
        if (!campaignFromJson(doc, out, err)) {
            *err = path + ": " + *err;
            return false;
        }
        return true;
    };

    CampaignResult oldc, newc;
    std::string err;
    if (!load(old_path, &oldc, &err) || !load(new_path, &newc, &err))
        return cliError(err);

    CompareOptions opts;
    opts.tolerancePct = tolerance_pct;
    CompareReport rep = compareCampaigns(oldc, newc, opts);
    std::fputs(rep.text.c_str(), stdout);
    return rep.ok ? 0 : 1;
}

/** Write the finalized campaign (and optional CSV) where asked. */
int
emitCampaign(const CampaignResult &final, const std::string &out_path,
             const std::string &csv_path)
{
    std::string err;
    std::string doc = campaignToJson(final).dump(0) + "\n";
    if (out_path.empty()) {
        std::fputs(doc.c_str(), stdout);
    } else if (!writeFile(out_path, doc, &err)) {
        return cliError(err);
    }
    if (!csv_path.empty()) {
        std::ostringstream csv;
        campaignToCsv(final, csv);
        if (!writeFile(csv_path, csv.str(), &err))
            return cliError(err);
    }
    return final.failures() ? 1 : 0;
}

/**
 * `csync-sweep merge J1 J2 ... -o OUT`: join shard journals into the
 * one canonical campaign document.  Every journal must describe the
 * same campaign (same name, spec, and grid size); the merged grid must
 * be complete — a missing row means a shard was forgotten, and is an
 * error rather than a silently short campaign.
 */
int
doMerge(const std::vector<std::string> &paths,
        const std::string &out_path, const std::string &csv_path)
{
    if (paths.empty())
        return cliError("merge needs at least one journal file");

    JournalData first;
    std::string err;
    if (!loadJournal(paths[0], &first, &err))
        return cliError(err);
    std::string ref_spec = first.header.spec.dump(-1);
    std::map<std::string, JobResult> by_id = first.byId;

    for (std::size_t i = 1; i < paths.size(); ++i) {
        JournalData data;
        if (!loadJournal(paths[i], &data, &err))
            return cliError(err);
        if (data.header.name != first.header.name ||
            data.header.jobs != first.header.jobs ||
            data.header.spec.dump(-1) != ref_spec) {
            return cliError(csprintf(
                "%s describes a different campaign than %s "
                "(name/spec/grid mismatch)", paths[i].c_str(),
                paths[0].c_str()));
        }
        for (auto &kv : data.byId)
            by_id.emplace(kv.first, std::move(kv.second));
    }

    SweepSpec spec;
    if (!SweepSpec::fromJson(first.header.spec, &spec, &err))
        return cliError(paths[0] + ": spec: " + err);
    std::vector<JobSpec> grid;
    if (!spec.expand(&grid, &err))
        return cliError(paths[0] + ": spec: " + err);
    if (grid.size() != first.header.jobs) {
        return cliError(csprintf(
            "%s: header says %zu jobs but the spec expands to %zu "
            "(journal from a different build?)", paths[0].c_str(),
            first.header.jobs, grid.size()));
    }

    std::vector<std::string> missing;
    CampaignResult final = finalizeCampaign(first.header.name,
                                            first.header.spec, grid,
                                            by_id, &missing);
    if (!missing.empty()) {
        std::string sample;
        for (std::size_t i = 0; i < missing.size() && i < 4; ++i)
            sample += (i ? ", " : "") + missing[i];
        return cliError(csprintf(
            "%zu of %zu jobs have no journaled row (first: %s) — "
            "is a shard journal missing?", missing.size(), grid.size(),
            sample.c_str()));
    }
    return emitCampaign(final, out_path, csv_path);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "merge") {
        std::vector<std::string> journals;
        std::string out_path, csv_path;
        for (int i = 2; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "-o" || a == "--out") {
                if (i + 1 >= argc)
                    return cliError("--out needs a value");
                out_path = argv[++i];
            } else if (a == "--csv") {
                if (i + 1 >= argc)
                    return cliError("--csv needs a value");
                csv_path = argv[++i];
            } else if (a == "--help" || a == "-h") {
                usage(argv[0]);
                return 0;
            } else if (!a.empty() && a[0] == '-') {
                return cliError("merge: unknown option " + a);
            } else {
                journals.push_back(a);
            }
        }
        return doMerge(journals, out_path, csv_path);
    }

    std::string spec_path, out_path, csv_path, name;
    std::string journal_path, resume_path, shard_text;
    std::string compare_old, compare_new;
    bool compare_mode = false, list_mode = false, quiet = false;
    bool isolate = false;
    double tolerance = 0.0;
    double wall_deadline = 0.0, retry_backoff = 100.0;
    unsigned jobs = 0, retries = 0;
    // Execution knob like --jobs, not a campaign axis: it never enters
    // job names, fingerprints, or the finalized document, so a resumed
    // or re-run campaign is byte-identical at any --sim-threads.
    unsigned sim_threads = 1;
    SweepSpec cli; // axes given on the command line
    bool have_protocols = false, have_workloads = false;
    bool have_traces = false, have_topos = false, have_arbs = false;
    bool have_topo_specs = false;
    bool have_procs = false, have_bw = false, have_frames = false;
    bool have_seeds = false, have_ops = false, have_ticks = false;
    bool have_frates = false, have_fseeds = false, have_fkinds = false;
    std::string err;

    auto next_arg = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "csync-sweep: %s needs a value\n",
                         flag);
            return nullptr;
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = nullptr;
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else if (a == "--list") {
            list_mode = true;
        } else if (a == "--compare") {
            if (i + 2 >= argc)
                return cliError("--compare needs OLD and NEW files");
            compare_mode = true;
            compare_old = argv[++i];
            compare_new = argv[++i];
        } else if (a == "--tolerance") {
            if (!(v = next_arg(i, "--tolerance")))
                return 2;
            if (!parseDoubleArg(a, v, &tolerance, &err))
                return cliError(err);
        } else if (a == "--spec") {
            if (!(v = next_arg(i, "--spec")))
                return 2;
            spec_path = v;
        } else if (a == "--protocols") {
            if (!(v = next_arg(i, "--protocols")))
                return 2;
            have_protocols = splitList(v, &cli.protocols);
        } else if (a == "--workloads") {
            if (!(v = next_arg(i, "--workloads")))
                return 2;
            have_workloads = splitList(v, &cli.workloads);
        } else if (a == "--trace") {
            if (!(v = next_arg(i, "--trace")))
                return 2;
            have_traces = splitList(v, &cli.traces);
            if (!have_traces)
                return cliError("--trace: empty list");
        } else if (a == "--topology") {
            if (!(v = next_arg(i, "--topology")))
                return 2;
            have_topos = splitList(v, &cli.topologies);
            if (!have_topos)
                return cliError("--topology: empty list");
        } else if (a == "--topology-spec") {
            if (!(v = next_arg(i, "--topology-spec")))
                return 2;
            have_topo_specs = splitList(v, &cli.topologySpecs);
            if (!have_topo_specs)
                return cliError("--topology-spec: empty list");
        } else if (a == "--arbitration") {
            if (!(v = next_arg(i, "--arbitration")))
                return 2;
            have_arbs = splitList(v, &cli.arbitrations);
            if (!have_arbs)
                return cliError("--arbitration: empty list");
        } else if (a == "--procs") {
            if (!(v = next_arg(i, "--procs")))
                return 2;
            if (!parseListArg(a, v, &cli.processorCounts, &err))
                return cliError(err);
            have_procs = true;
        } else if (a == "--block-words") {
            if (!(v = next_arg(i, "--block-words")))
                return 2;
            if (!parseListArg(a, v, &cli.blockWords, &err))
                return cliError(err);
            have_bw = true;
        } else if (a == "--frames") {
            if (!(v = next_arg(i, "--frames")))
                return 2;
            if (!parseListArg(a, v, &cli.frames, &err))
                return cliError(err);
            have_frames = true;
        } else if (a == "--seeds") {
            if (!(v = next_arg(i, "--seeds")))
                return 2;
            if (!parseListArg(a, v, &cli.seeds, &err))
                return cliError(err);
            have_seeds = true;
        } else if (a == "--fault-rates") {
            if (!(v = next_arg(i, "--fault-rates")))
                return 2;
            if (!parseListArg(a, v, &cli.faultRates, &err))
                return cliError(err);
            have_frates = true;
        } else if (a == "--fault-seeds") {
            if (!(v = next_arg(i, "--fault-seeds")))
                return 2;
            if (!parseListArg(a, v, &cli.faultSeeds, &err))
                return cliError(err);
            have_fseeds = true;
        } else if (a == "--fault-kinds") {
            if (!(v = next_arg(i, "--fault-kinds")))
                return 2;
            have_fkinds = splitList(v, &cli.faultKinds);
            if (!have_fkinds)
                return cliError("--fault-kinds: empty list");
        } else if (a == "--ops") {
            if (!(v = next_arg(i, "--ops")))
                return 2;
            if (!parseUnsignedArg(a, v, &cli.opsPerProcessor, &err))
                return cliError(err);
            have_ops = true;
        } else if (a == "--max-ticks") {
            if (!(v = next_arg(i, "--max-ticks")))
                return 2;
            if (!parseUnsignedArg(a, v, &cli.maxTicks, &err))
                return cliError(err);
            have_ticks = true;
        } else if (a == "--jobs") {
            if (!(v = next_arg(i, "--jobs")))
                return 2;
            if (!parseUnsignedArg(a, v, &jobs, &err))
                return cliError(err);
        } else if (a == "--sim-threads") {
            if (!(v = next_arg(i, "--sim-threads")))
                return 2;
            if (!parseUnsignedArg(a, v, &sim_threads, &err, 1,
                                  SystemConfig::kMaxSimThreads))
                return cliError(err);
        } else if (a == "-o" || a == "--out") {
            if (!(v = next_arg(i, "--out")))
                return 2;
            out_path = v;
        } else if (a == "--csv") {
            if (!(v = next_arg(i, "--csv")))
                return 2;
            csv_path = v;
        } else if (a == "--name") {
            if (!(v = next_arg(i, "--name")))
                return 2;
            name = v;
        } else if (a == "--journal") {
            if (!(v = next_arg(i, "--journal")))
                return 2;
            journal_path = v;
        } else if (a == "--resume") {
            if (!(v = next_arg(i, "--resume")))
                return 2;
            resume_path = v;
        } else if (a == "--shard") {
            if (!(v = next_arg(i, "--shard")))
                return 2;
            shard_text = v;
        } else if (a == "--wall-deadline") {
            if (!(v = next_arg(i, "--wall-deadline")))
                return 2;
            if (!parseDoubleArg(a, v, &wall_deadline, &err))
                return cliError(err);
        } else if (a == "--retries") {
            if (!(v = next_arg(i, "--retries")))
                return 2;
            if (!parseUnsignedArg(a, v, &retries, &err))
                return cliError(err);
        } else if (a == "--retry-backoff") {
            if (!(v = next_arg(i, "--retry-backoff")))
                return 2;
            if (!parseDoubleArg(a, v, &retry_backoff, &err))
                return cliError(err);
        } else if (a == "--isolate") {
            isolate = true;
        } else if (a == "-q" || a == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "csync-sweep: unknown option %s\n",
                         a.c_str());
            return usage(argv[0]);
        }
    }

    if (list_mode)
        return doList();
    if (compare_mode)
        return doCompare(compare_old, compare_new, tolerance);
    if (isolate && !childIsolationSupported())
        return cliError("--isolate is not supported on this platform");

    bool any_axis = have_protocols || have_workloads || have_traces ||
                    have_topos || have_topo_specs || have_arbs ||
                    have_procs || have_bw ||
                    have_frames || have_seeds || have_ops || have_ticks ||
                    have_frates || have_fseeds || have_fkinds;
    if (!resume_path.empty() &&
        (any_axis || !spec_path.empty() || !name.empty() ||
         !shard_text.empty() || !journal_path.empty())) {
        return cliError("--resume takes the campaign (spec, name, "
                        "shard, journal) from the journal header; it "
                        "cannot be combined with axis, --spec, --name, "
                        "--shard, or --journal flags");
    }

    // Assemble the spec and shard: from the resumed journal's header,
    // or from --spec plus command-line axis overrides.
    SweepSpec spec;
    Shard shard;
    JournalData resumed;
    if (!resume_path.empty()) {
        if (!loadJournal(resume_path, &resumed, &err))
            return cliError(err);
        if (resumed.truncatedTail && !quiet) {
            std::fprintf(stderr, "csync-sweep: %s: dropped a torn "
                         "trailing line (interrupted mid-write)\n",
                         resume_path.c_str());
        }
        if (!SweepSpec::fromJson(resumed.header.spec, &spec, &err))
            return cliError(resume_path + ": spec: " + err);
        if (!resumed.header.shard.empty() &&
            !parseShard(resumed.header.shard, &shard, &err)) {
            return cliError(resume_path + ": " + err);
        }
        journal_path = resume_path;
    } else {
        if (!spec_path.empty()) {
            std::string text;
            if (!readFile(spec_path, &text, &err))
                return cliError(err);
            Json doc = Json::parse(text, &err);
            if (!err.empty())
                return cliError(spec_path + ": " + err);
            if (!SweepSpec::fromJson(doc, &spec, &err))
                return cliError(spec_path + ": " + err);
        }
        if (have_protocols)
            spec.protocols = cli.protocols;
        if (have_workloads)
            spec.workloads = cli.workloads;
        if (have_traces)
            spec.traces = cli.traces;
        if (have_topos)
            spec.topologies = cli.topologies;
        if (have_topo_specs) {
            spec.topologySpecs = cli.topologySpecs;
            // Same rule as the JSON axis: naming only spec files
            // replaces the (untouched) default single_bus entry
            // rather than adding to it.
            if (!have_topos &&
                spec.topologies ==
                    std::vector<std::string>{"single_bus"}) {
                spec.topologies.clear();
            }
        }
        if (have_arbs)
            spec.arbitrations = cli.arbitrations;
        if (have_procs)
            spec.processorCounts = cli.processorCounts;
        if (have_bw)
            spec.blockWords = cli.blockWords;
        if (have_frames)
            spec.frames = cli.frames;
        if (have_seeds)
            spec.seeds = cli.seeds;
        if (have_frates)
            spec.faultRates = cli.faultRates;
        if (have_fseeds)
            spec.faultSeeds = cli.faultSeeds;
        if (have_fkinds)
            spec.faultKinds = cli.faultKinds;
        if (have_ops)
            spec.opsPerProcessor = cli.opsPerProcessor;
        if (have_ticks)
            spec.maxTicks = cli.maxTicks;
        if (!name.empty())
            spec.name = name;
        if (!shard_text.empty() &&
            !parseShard(shard_text, &shard, &err)) {
            return cliError(err);
        }
    }
    if (spec.protocols.empty())
        return cliError("no protocol axis (--protocols or --spec); "
                        "try --list");
    if (spec.workloads.empty() && spec.traces.empty())
        return cliError("no workload or trace axis (--workloads, "
                        "--trace, or --spec); try --list");

    std::vector<JobSpec> full_grid;
    if (!spec.expand(&full_grid, &err))
        return cliError(err);
    // Applied after expansion: an execution knob, invisible to job
    // names, fingerprints, and the finalized document.
    for (auto &job : full_grid)
        job.config.simThreads = sim_threads;
    if (!resume_path.empty() &&
        full_grid.size() != resumed.header.jobs) {
        return cliError(csprintf(
            "%s: header says %zu jobs but the spec expands to %zu "
            "(journal from a different build?)", resume_path.c_str(),
            resumed.header.jobs, full_grid.size()));
    }

    // This invocation's slice of the grid, with each job's stable ID.
    std::vector<JobSpec> shard_grid;
    std::vector<std::string> shard_ids;
    for (const auto &job : full_grid) {
        std::string id = jobId(job);
        if (!shardContains(shard, id))
            continue;
        shard_grid.push_back(job);
        shard_ids.push_back(std::move(id));
    }

    // Rows already journaled stay as-is; only the rest run.
    std::map<std::string, JobResult> by_id = std::move(resumed.byId);
    std::vector<JobSpec> pending;
    std::map<std::string, std::string> id_by_name;
    for (std::size_t i = 0; i < shard_grid.size(); ++i) {
        if (by_id.count(shard_ids[i]))
            continue;
        pending.push_back(shard_grid[i]);
        id_by_name[shard_grid[i].name] = shard_ids[i];
    }

    // The journal: resumed in place, or created fresh (an explicit
    // --journal path survives the run; the auto-derived one is removed
    // once the campaign document is safely written).
    bool auto_journal = false;
    if (resume_path.empty() && journal_path.empty() &&
        !out_path.empty()) {
        journal_path = out_path + ".journal.jsonl";
        auto_journal = true;
    }
    JournalWriter journal;
    if (!journal_path.empty()) {
        JournalHeader header;
        header.name = spec.name;
        header.spec = resume_path.empty() ? spec.toJson()
                                          : resumed.header.spec;
        header.jobs = full_grid.size();
        header.shard = shard.whole() ? "" : shard.str();
        if (resume_path.empty() || resumed.truncatedTail) {
            // Fresh journal — or a torn one, rewritten from its valid
            // rows so the append point is a clean line boundary again.
            if (!journal.create(journal_path, header, &err))
                return cliError(err);
            for (const auto &kv : by_id) {
                if (!journal.add(kv.first, kv.second, &err))
                    return cliError(err);
            }
        } else if (!journal.append(journal_path, &err)) {
            return cliError(err);
        }
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    CampaignRunner::Options opts;
    opts.jobs = jobs;
    opts.wallDeadlineMs = wall_deadline;
    opts.maxRetries = retries;
    opts.retryBackoffMs = retry_backoff;
    opts.isolate = isolate;
    opts.stop = &g_stop;
    opts.onJobDone = [&](std::size_t done, std::size_t total,
                         const JobResult &row) {
        if (!quiet) {
            std::fprintf(stderr, "[%3zu/%zu] %-40s %-7s %10llu ticks "
                         "%8.1f ms\n", done, total, row.name.c_str(),
                         row.status.c_str(),
                         (unsigned long long)row.ticks, row.wallMs);
        }
        if (journal.isOpen() && row.status != "skipped") {
            std::string jerr;
            if (!journal.add(id_by_name[row.name], row, &jerr)) {
                std::fprintf(stderr, "csync-sweep: warning: %s\n",
                             jerr.c_str());
            }
        }
    };
    if (!quiet) {
        std::fprintf(stderr, "csync-sweep: %zu jobs to run (%zu of "
                     "%zu already journaled)\n", pending.size(),
                     shard_grid.size() - pending.size(),
                     shard_grid.size());
    }

    CampaignRunner runner;
    CampaignResult result = runner.run(pending, opts);
    for (auto &row : result.rows) {
        if (row.status != "skipped")
            by_id.emplace(id_by_name[row.name], std::move(row));
    }
    journal.close();

    if (result.interrupted || g_stop.load()) {
        std::fprintf(stderr, "csync-sweep: interrupted — %zu of %zu "
                     "rows journaled\n",
                     by_id.size(), shard_grid.size());
        if (!journal_path.empty()) {
            std::string resume_cmd = csprintf(
                "%s --resume %s", argv[0], journal_path.c_str());
            if (!out_path.empty())
                resume_cmd += " -o " + out_path;
            if (!csv_path.empty())
                resume_cmd += " --csv " + csv_path;
            std::fprintf(stderr, "csync-sweep: resume with: %s\n",
                         resume_cmd.c_str());
        } else {
            std::fprintf(stderr, "csync-sweep: no journal was kept "
                         "(pass -o or --journal to enable resume)\n");
        }
        return 3;
    }

    std::vector<std::string> missing;
    std::string final_name = resume_path.empty() ? spec.name
                                                 : resumed.header.name;
    Json final_spec = resume_path.empty() ? spec.toJson()
                                          : resumed.header.spec;
    CampaignResult final = finalizeCampaign(final_name, final_spec,
                                            shard_grid, by_id,
                                            &missing);
    if (!missing.empty()) {
        return cliError(csprintf(
            "%zu jobs finished without a row (first: %s)",
            missing.size(), missing[0].c_str()));
    }

    int rc = emitCampaign(final, out_path, csv_path);
    if (rc == 2)
        return rc;
    if (auto_journal)
        std::remove(journal_path.c_str());
    if (!quiet) {
        std::fprintf(stderr,
                     "csync-sweep: %zu jobs, %u failures, %u workers, "
                     "%.1f ms wall\n", final.rows.size(),
                     final.failures(), result.workers, result.wallMs);
    }
    return rc;
}
