/**
 * @file
 * model_check: mc::StateExplorer on bitar (lock ops on) and illinois at
 * 2 caches, 1 block, depth 6 — between the CI smoke bound (depth 4) and
 * the nightly deep bound (3 caches, 2 blocks).  Every state builds a
 * fresh System through TraceReplayer and replays its prefix, so
 * construction, the directed step-and-settle replay and the digest
 * dominate.  One exploration pass over both protocols is one job.  The
 * explorer takes no seed; the seed only picks the replay probe's
 * prefixes.
 */

#include "mc/explorer.hh"
#include "probes.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace csync;

namespace
{

const char *const kProtocols[] = {"bitar", "illinois"};

mc::ExploreBounds
bounds()
{
    mc::ExploreBounds b;
    b.caches = 2;
    b.blocks = 1;
    b.depth = 6;
    b.lockOps = true;
    b.evictOps = true;
    return b;
}

} // anonymous namespace

void
runModelCheck(const RunOptions &opt, Result &res)
{
    // Set-up: the explorer and the first state's machine.
    repeatSetup(res, [&] {
        mc::StateExplorer ex(bounds());
        TraceReplayer first(explorerShape(kProtocols[0], bounds().caches));
    });

    mc::StateExplorer ex(bounds());
    std::vector<mc::ExploreResult> first;
    double states = 0;
    repeatFor(opt, res, 3, [&](unsigned k, bool traced) {
        SpanRecorder *rec = traced ? opt.rec : nullptr;
        auto t0 = std::chrono::steady_clock::now();
        Span pass(rec, "mc.pass", -1, k);
        std::vector<mc::ExploreResult> results;
        for (const char *p : kProtocols) {
            Span s(rec, "mc.explore", pass.index(), k);
            results.push_back(ex.explore(p));
        }
        pass.close();
        double ms = secondsSince(t0) * 1e3;

        for (std::size_t i = 0; i < results.size(); ++i) {
            const mc::ExploreResult &r = results[i];
            res.checks.check(
                r.clean() && (first.empty() ||
                              r.statesVisited == first[i].statesVisited),
                r.protocol + ": " + (r.clean() ? "states visited changed"
                                               : r.violation));
        }
        if (first.empty())
            first = results;
        if (opt.rec)
            (traced ? res.tracedMs : res.untracedMs).push_back(ms);
        if (traced)
            return;
        for (const auto &r : results)
            states += double(r.statesVisited);
        res.jobMs.push_back(ms);
        res.addRound(1, ms / 1e3);
    });

    double visited = 0, deduped = 0;
    for (const auto &r : first) {
        visited += double(r.statesVisited);
        deduped += double(r.statesDeduped);
    }
    Summary s = summarize(res.jobMs);
    res.note("states_per_s", ratio(states, res.busySeconds), "1/s");
    res.note("job_ms_p50", s.p50, "ms");
    res.note("job_ms_p90", s.p90, "ms");
    res.note("job_samples", double(s.samples), "count");
    res.note("states_per_pass", visited, "count");

    if (!opt.rec)
        return;
    const SpanRecorder &rec = *opt.rec;
    res.layer["mc.states_visited"] = visited;
    res.layer["mc.states_deduped"] = deduped;
    res.layer["mc.explore_s"] = medianUs(rec, "mc.pass") / 1e6;
    for (const char *p : kProtocols) {
        probeReplay(p, bounds().caches, bounds().blocks, bounds().depth, 400,
                    opt.seed, res.checks, opt.rec, -1);
    }
    res.layer["system.replay_construct_us"] =
        medianUs(rec, "system.replay_construct");
    res.layer["system.replay_step_us"] = medianUs(rec, "system.replay_step");
    res.layer["system.replay_digest_us"] =
        medianUs(rec, "system.replay_digest");
    // Every explored state is one System construction.
    res.layer["system.construct_us"] = res.layer["system.replay_construct_us"];
}

} // namespace perfbench
