#include "harness/sweep.hh"

#include <algorithm>

#include "coherence/protocol.hh"
#include "harness/workload_factory.hh"
#include "mem/arbitration.hh"
#include "sim/logging.hh"
#include "system/topology_spec.hh"
#include "trace/reader.hh"

namespace csync
{
namespace harness
{

namespace
{

bool
parseError(std::string *err, const std::string &what)
{
    if (err)
        *err = "sweep spec: " + what;
    return false;
}

/** Read a JSON array of strings into @p out. */
bool
stringAxis(const Json &doc, const char *key,
           std::vector<std::string> *out, std::string *err)
{
    const Json &v = doc[key];
    if (v.isNull())
        return true;
    if (!v.isArray())
        return parseError(err, csprintf("\"%s\" must be an array of "
                                        "strings", key));
    out->clear();
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (!v.at(i).isString()) {
            return parseError(err, csprintf("\"%s\"[%zu] is not a string",
                                            key, i));
        }
        out->push_back(v.at(i).asString());
    }
    return true;
}

/** Read a JSON array of unsigned integers, or for T = double of
 *  non-negative reals (fault rates), into @p out. */
template <typename T>
bool
numberAxis(const Json &doc, const char *key, std::vector<T> *out,
           std::string *err)
{
    const Json &v = doc[key];
    if (v.isNull())
        return true;
    if (!v.isArray())
        return parseError(err, csprintf("\"%s\" must be an array of "
                                        "numbers", key));
    out->clear();
    for (std::size_t i = 0; i < v.size(); ++i) {
        const Json &e = v.at(i);
        std::string what = csprintf("\"%s\"[%zu]", key, i), why;
        T n = 0;
        if constexpr (std::is_floating_point_v<T>) {
            if (!e.isNumber() || e.asNumber() < 0) {
                return parseError(err,
                                  what + " is not a non-negative number");
            }
            n = e.asNumber();
        } else if (!readUnsigned(e, what, &n, &why)) {
            return parseError(err, why);
        }
        out->push_back(n);
    }
    return true;
}

template <typename T>
bool
scalarNumber(const Json &doc, const char *key, T *out, std::string *err)
{
    const Json &v = doc[key];
    std::string why;
    if (!v.isNull() &&
        !readUnsigned(v, csprintf("\"%s\"", key), out, &why)) {
        return parseError(err, why);
    }
    return true;
}

/** "traces/foo.ctrace" -> "foo": the job-name tag of a trace path. */
std::string
traceStem(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::string ext = ".ctrace";
    if (stem.size() > ext.size() &&
        stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
        stem.resize(stem.size() - ext.size());
    }
    return stem;
}

} // anonymous namespace

bool
SweepSpec::fromJson(const Json &doc, SweepSpec *out, std::string *err)
{
    if (!doc.isObject())
        return parseError(err, "document is not a JSON object");

    static const char *known[] = {
        "name", "protocols", "workloads", "traces", "topologies",
        "topology_specs", "arbitrations", "processors", "block_words",
        "frames", "seeds",
        "ops_per_processor", "max_ticks", "ways", "enable_checker",
        "fault_rates", "fault_seeds", "fault_kinds", "fault",
    };
    for (const auto &kv : doc.members()) {
        if (std::find_if(std::begin(known), std::end(known),
                         [&](const char *k) { return kv.first == k; }) ==
            std::end(known)) {
            return parseError(err, csprintf("unknown key \"%s\"",
                                            kv.first.c_str()));
        }
    }

    SweepSpec spec;
    if (doc.has("name")) {
        if (!doc["name"].isString())
            return parseError(err, "\"name\" must be a string");
        spec.name = doc["name"].asString();
    }
    if (!stringAxis(doc, "protocols", &spec.protocols, err) ||
        !stringAxis(doc, "workloads", &spec.workloads, err) ||
        !stringAxis(doc, "traces", &spec.traces, err) ||
        !stringAxis(doc, "topologies", &spec.topologies, err) ||
        !stringAxis(doc, "topology_specs", &spec.topologySpecs, err) ||
        !stringAxis(doc, "arbitrations", &spec.arbitrations, err) ||
        !numberAxis(doc, "processors", &spec.processorCounts, err) ||
        !numberAxis(doc, "block_words", &spec.blockWords, err) ||
        !numberAxis(doc, "frames", &spec.frames, err) ||
        !numberAxis(doc, "seeds", &spec.seeds, err) ||
        !scalarNumber(doc, "ops_per_processor", &spec.opsPerProcessor,
                      err) ||
        !scalarNumber(doc, "max_ticks", &spec.maxTicks, err) ||
        !scalarNumber(doc, "ways", &spec.ways, err)) {
        return false;
    }
    if (doc.has("enable_checker")) {
        if (!doc["enable_checker"].isBool())
            return parseError(err, "\"enable_checker\" must be a bool");
        spec.enableChecker = doc["enable_checker"].asBool();
    }
    if (!numberAxis(doc, "fault_rates", &spec.faultRates, err) ||
        !numberAxis(doc, "fault_seeds", &spec.faultSeeds, err) ||
        !stringAxis(doc, "fault_kinds", &spec.faultKinds, err)) {
        return false;
    }
    if (doc.has("fault")) {
        std::string ferr;
        if (!FaultPlan::fromJson(doc["fault"], &spec.faultBase, &ferr))
            return parseError(err, ferr);
    }
    // Naming only spec files replaces the default single_bus entry —
    // mirroring how the workloads/traces axes compose.
    if (doc.has("topology_specs") && !doc.has("topologies"))
        spec.topologies.clear();
    if (spec.protocols.empty())
        return parseError(err, "\"protocols\" axis is missing or empty");
    if (spec.workloads.empty() && spec.traces.empty()) {
        return parseError(
            err, "\"workloads\" and \"traces\" axes are both missing "
                 "or empty (one is needed)");
    }
    *out = std::move(spec);
    return true;
}

bool
SweepSpec::expand(std::vector<JobSpec> *out, std::string *err) const
{
    auto axisError = [&](const std::string &what) {
        if (err)
            *err = "sweep spec: " + what;
        return false;
    };

    if (protocols.empty() || (workloads.empty() && traces.empty()) ||
        (topologies.empty() && topologySpecs.empty()) ||
        arbitrations.empty() || processorCounts.empty() ||
        blockWords.empty() || frames.empty() || seeds.empty() ||
        faultRates.empty() || faultSeeds.empty()) {
        return axisError("every axis needs at least one value");
    }
    // Vet the arbitration axis up front (csync-sweep exits 2 on a typo).
    for (const auto &a : arbitrations) {
        if (!ArbitrationRegistry::known(a)) {
            std::string known;
            for (const auto &n : ArbitrationRegistry::names())
                known += std::string(known.empty() ? "" : ", ") + n;
            return axisError(csprintf(
                "unknown arbitration '%s' (known: %s)", a.c_str(),
                known.c_str()));
        }
    }
    // Vet the topology axis up front (csync-sweep exits 2 on a typo).
    std::vector<std::pair<std::string, TopologyConfig>> topos;
    for (const auto &t : topologies) {
        TopologyConfig tc;
        if (!TopologyConfig::fromName(t, &tc)) {
            std::string known;
            for (const auto &n : TopologyConfig::names())
                known += std::string(known.empty() ? "" : ", ") + n;
            return axisError(csprintf(
                "unknown topology '%s' (known presets: %s; or pass a "
                "declarative spec file via \"topology_specs\" / "
                "--topology-spec)",
                t.c_str(), known.c_str()));
        }
        topos.emplace_back(t, std::move(tc));
    }
    // Spec files expand like presets, tagged by their declared name;
    // parsed and validated up front like every other axis.
    for (const auto &path : topologySpecs) {
        TopologyConfig tc;
        std::string terr;
        if (!topologyFromSpecFile(path, &tc, &terr))
            return axisError(terr);
        for (const auto &entry : topos) {
            if (entry.first == tc.preset) {
                return axisError(csprintf(
                    "topology spec %s declares name '%s', which "
                    "collides with another topology axis entry",
                    path.c_str(), tc.preset.c_str()));
            }
        }
        std::string tag = tc.preset;
        topos.emplace_back(std::move(tag), std::move(tc));
    }
    // Vet the fault axes up front so a campaign never discovers a bad
    // kind or rate 500 jobs in (and csync-sweep exits 2, not 1).
    FaultPlan faultTemplate = faultBase;
    if (!faultKinds.empty())
        faultTemplate.kinds = faultKinds;
    for (double rate : faultRates) {
        FaultPlan plan = faultTemplate;
        plan.rate = rate;
        std::string why;
        if (!plan.check(&why))
            return axisError(why);
    }
    auto registered = ProtocolRegistry::names();
    for (const auto &p : protocols) {
        if (std::find(registered.begin(), registered.end(), p) ==
            registered.end()) {
            std::string known;
            for (const auto &r : registered)
                known += std::string(known.empty() ? "" : ", ") + r;
            return axisError(csprintf("unknown protocol '%s' (known: %s)",
                                      p.c_str(), known.c_str()));
        }
    }
    for (const auto &w : workloads) {
        if (!workloadKnown(w)) {
            std::string msg;
            makeWorkload(w, WorkloadSlot{}, &msg);
            return axisError(msg);
        }
    }
    // Vet the trace axis up front too: a missing or corrupt trace file
    // is a usage error, not 500 error rows.
    for (const auto &t : traces) {
        trace::TraceReader reader;
        std::string terr;
        if (!reader.open(t, &terr))
            return axisError(terr);
    }
    // Traces expand like workloads; their job tag is the file stem.
    std::vector<std::pair<std::string, std::string>> runs; // recipe,tag
    for (const auto &w : workloads)
        runs.emplace_back(w, w);
    for (const auto &t : traces)
        runs.emplace_back(std::string(kTraceRecipePrefix) + t,
                          "trace:" + traceStem(t));

    out->clear();
    for (const auto &proto : protocols) {
        for (const auto &[wl, wl_tag] : runs) {
          for (const auto &[topo, topo_cfg] : topos) {
            // Single-bus job names carry no topology segment, so rows of
            // pre-topology campaigns keep comparing.
            std::string topo_tag =
                topo == "single_bus" ? "" : "/" + topo;
            for (const auto &arb : arbitrations) {
              // Likewise, round-robin jobs carry no arbitration segment.
              std::string arb_tag =
                  arb == "round_robin" ? "" : "/" + arb;
            for (unsigned procs : processorCounts) {
                for (unsigned bw : blockWords) {
                    for (unsigned fr : frames) {
                        for (std::uint64_t seed : seeds) {
                          for (double frate : faultRates) {
                            for (std::uint64_t fseed : faultSeeds) {
                              JobSpec job;
                              job.name = csprintf(
                                  "%s/%s%s%s/p%u/bw%u/f%u/s%llu",
                                  proto.c_str(), wl_tag.c_str(),
                                  topo_tag.c_str(), arb_tag.c_str(),
                                  procs, bw, fr,
                                  (unsigned long long)seed);
                              if (frate > 0.0) {
                                  job.name += csprintf(
                                      "/fr%g/fs%llu", frate,
                                      (unsigned long long)fseed);
                              }
                              job.config.name = "system";
                              job.config.protocol = proto;
                              job.config.topology = topo_cfg;
                              job.config.arbitration = arb;
                              job.config.numProcessors = procs;
                              job.config.cache.geom.blockWords = bw;
                              job.config.cache.geom.frames = fr;
                              job.config.cache.geom.ways = ways;
                              job.config.enableChecker = enableChecker;
                              job.config.fault = faultTemplate;
                              job.config.fault.rate = frate;
                              job.config.fault.seed = fseed;
                              job.workload = wl;
                              job.seed = seed;
                              job.ops = opsPerProcessor;
                              job.maxTicks = maxTicks;
                              out->push_back(std::move(job));
                              // Fault-free jobs are one row regardless
                              // of how many fault seeds the grid names.
                              if (frate == 0.0)
                                  break;
                            }
                          }
                        }
                    }
                }
            }
            }
          }
        }
    }
    return true;
}

Json
SweepSpec::toJson() const
{
    Json doc = Json::object();
    doc.set("name", name);
    auto strings = [](const std::vector<std::string> &v) {
        Json a = Json::array();
        for (const auto &s : v)
            a.push(s);
        return a;
    };
    auto numbers = [](const auto &v) {
        Json a = Json::array();
        for (auto n : v)
            a.push(double(n));
        return a;
    };
    doc.set("protocols", strings(protocols));
    doc.set("workloads", strings(workloads));
    // Omitted when empty so pre-trace manifests stay identical.
    if (!traces.empty())
        doc.set("traces", strings(traces));
    // Omitted on the default so pre-topology manifests stay identical.
    // Alongside spec files the default must be spelled out, though:
    // fromJson treats an absent "topologies" next to "topology_specs"
    // as "specs only".
    if (!topologies.empty() &&
        (topologies != std::vector<std::string>{"single_bus"} ||
         !topologySpecs.empty())) {
        doc.set("topologies", strings(topologies));
    }
    if (!topologySpecs.empty())
        doc.set("topology_specs", strings(topologySpecs));
    // Omitted on the default so pre-arbitration manifests stay identical.
    if (arbitrations != std::vector<std::string>{"round_robin"})
        doc.set("arbitrations", strings(arbitrations));
    doc.set("processors", numbers(processorCounts));
    doc.set("block_words", numbers(blockWords));
    doc.set("frames", numbers(frames));
    doc.set("seeds", numbers(seeds));
    doc.set("ops_per_processor", double(opsPerProcessor));
    doc.set("max_ticks", double(maxTicks));
    doc.set("ways", ways);
    doc.set("enable_checker", enableChecker);
    doc.set("fault_rates", numbers(faultRates));
    doc.set("fault_seeds", numbers(faultSeeds));
    doc.set("fault_kinds", strings(faultKinds));
    doc.set("fault", faultBase.toJson());
    return doc;
}

} // namespace harness
} // namespace csync
