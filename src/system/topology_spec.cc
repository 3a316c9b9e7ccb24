#include "system/topology_spec.hh"

#include <fstream>
#include <sstream>

#include "harness/json.hh"
#include "sim/logging.hh"

namespace csync
{

using harness::Json;

namespace
{

/** Default address stride of one cluster when a spec omits "ranges"
 *  (matches the canned clustered presets). */
constexpr Addr kDefaultClusterStride = 0x1000'0000;

bool
specError(std::string *err, std::string msg)
{
    if (err)
        *err = "topology spec: " + std::move(msg);
    return false;
}

/** Parse a carries mask: "all", "sync", "data", or a class array. */
bool
parseCarries(const Json &v, unsigned *out, std::string *err)
{
    auto one = [&](const std::string &s, unsigned *bit) {
        if (s == "all") {
            *bit = kAllTraffic;
            return true;
        }
        if (s == "sync") {
            *bit = trafficClassBit(TrafficClass::Sync);
            return true;
        }
        if (s == "data") {
            *bit = trafficClassBit(TrafficClass::Data);
            return true;
        }
        return false;
    };
    if (v.isString()) {
        if (!one(v.asString(), out)) {
            return specError(err, csprintf("unknown traffic class \"%s\"",
                                           v.asString().c_str()));
        }
        return true;
    }
    if (v.isArray()) {
        unsigned mask = 0;
        for (std::size_t i = 0; i < v.size(); ++i) {
            unsigned bit = 0;
            if (!v.at(i).isString() || !one(v.at(i).asString(), &bit))
                return specError(err, "\"carries\" lists class names");
            mask |= bit;
        }
        *out = mask;
        return true;
    }
    return specError(err, "\"carries\" must be a class name or list");
}

/** Parse a switch/cluster entry's ranges array into @p sw. */
bool
parseRanges(const Json &v, SwitchSpec *sw, std::string *err)
{
    if (!v.isArray() || v.size() == 0)
        return specError(err, "\"ranges\" must be a non-empty array");
    for (std::size_t i = 0; i < v.size(); ++i) {
        const Json &r = v.at(i);
        if (!r.isArray() || r.size() != 2)
            return specError(err, "each range is a [lo, hi) pair");
        AddrRange range;
        std::string why;
        if (!readAddress(r.at(0), csprintf("\"ranges\"[%zu][0]", i), &range.lo,
                         &why) ||
            !readAddress(r.at(1), csprintf("\"ranges\"[%zu][1]", i), &range.hi,
                         &why)) {
            return specError(err, why);
        }
        sw->ranges.push_back(range);
    }
    return true;
}

/** Parse one entry of "switches"/"clusters" into @p sw (shared
 *  fields: name, carries, ranges, arbitration). */
bool
parseSwitchEntry(const Json &v, const char *what, std::size_t idx,
                 SwitchSpec *sw, std::string *err)
{
    if (!v.isObject())
        return specError(err, csprintf("%s[%zu] must be an object", what,
                                       idx));
    for (const auto &kv : v.members()) {
        if (kv.first != "name" && kv.first != "carries" &&
            kv.first != "ranges" && kv.first != "arbitration" &&
            kv.first != "l2_policy" && kv.first != "snoop_filter") {
            return specError(err, csprintf("%s[%zu]: unknown key \"%s\"",
                                           what, idx, kv.first.c_str()));
        }
    }
    if (!v.has("name") || !v["name"].isString())
        return specError(err,
                         csprintf("%s[%zu] needs a \"name\"", what, idx));
    sw->name = v["name"].asString();
    sw->carries = kAllTraffic;
    if (v.has("carries") && !parseCarries(v["carries"], &sw->carries, err))
        return false;
    if (v.has("arbitration")) {
        if (!v["arbitration"].isString())
            return specError(err, "\"arbitration\" must be a string");
        sw->arbitration = v["arbitration"].asString();
    }
    if (v.has("ranges") && !parseRanges(v["ranges"], sw, err))
        return false;
    return true;
}

/** Parse an "l2_policy" value into ClusterSpec::inclusive. */
bool
parseL2Policy(const Json &v, bool *inclusive, std::string *err)
{
    if (!v.isString())
        return specError(err, "\"l2_policy\" must be a string");
    const std::string &s = v.asString();
    if (s == "inclusive") {
        *inclusive = true;
        return true;
    }
    if (s == "exclusive") {
        *inclusive = false;
        return true;
    }
    return specError(err, csprintf("\"l2_policy\" is \"inclusive\" or "
                                   "\"exclusive\", not \"%s\"",
                                   s.c_str()));
}

} // anonymous namespace

bool
topologyFromSpec(const Json &doc, TopologyConfig *out, std::string *err)
{
    if (!doc.isObject())
        return specError(err, "document is not a JSON object");
    for (const auto &kv : doc.members()) {
        if (kv.first != "name" && kv.first != "levels" &&
            kv.first != "clusters" && kv.first != "switches") {
            return specError(err, csprintf("unknown key \"%s\"",
                                           kv.first.c_str()));
        }
    }
    if (!doc.has("name") || !doc["name"].isString() ||
        doc["name"].asString().empty()) {
        return specError(err, "spec needs a non-empty \"name\"");
    }
    bool hierarchical = doc.has("clusters");
    if (hierarchical == doc.has("switches")) {
        return specError(err, "spec needs exactly one of \"clusters\" "
                              "(hierarchical) or \"switches\" (flat)");
    }

    TopologyConfig topo;
    topo.preset = doc["name"].asString();
    topo.switches.clear();

    // The levels array declares the tree top-down.  The private L1
    // level is implicit; a flat spec has just the bus level, and a
    // hierarchical one a root level plus a cluster level whose policy
    // fields are the per-cluster defaults.
    bool def_inclusive = true;
    bool def_filter = true;
    if (doc.has("levels")) {
        const Json &levels = doc["levels"];
        if (!levels.isArray())
            return specError(err, "\"levels\" must be an array");
        bool saw_root = false, saw_cluster = false;
        for (std::size_t i = 0; i < levels.size(); ++i) {
            const Json &lv = levels.at(i);
            if (!lv.isObject() || !lv.has("kind") || !lv["kind"].isString())
                return specError(err, "each level needs a \"kind\"");
            const std::string &kind = lv["kind"].asString();
            if (kind == "root") {
                if (!hierarchical) {
                    return specError(err, "a flat spec has no root "
                                          "level");
                }
                saw_root = true;
                if (lv.has("name")) {
                    if (!lv["name"].isString())
                        return specError(err, "root \"name\" must be a "
                                              "string");
                    topo.rootName = lv["name"].asString();
                }
            } else if (kind == "cluster") {
                if (!hierarchical) {
                    return specError(err, "a flat spec has no cluster "
                                          "level");
                }
                saw_cluster = true;
                if (lv.has("l2_policy") &&
                    !parseL2Policy(lv["l2_policy"], &def_inclusive, err)) {
                    return false;
                }
                if (lv.has("snoop_filter")) {
                    if (!lv["snoop_filter"].isBool())
                        return specError(err, "\"snoop_filter\" must be "
                                              "a bool");
                    def_filter = lv["snoop_filter"].asBool();
                }
            } else if (kind != "bus") {
                return specError(err,
                                 csprintf("unknown level kind \"%s\"",
                                          kind.c_str()));
            }
        }
        if (hierarchical && (!saw_root || !saw_cluster)) {
            return specError(err, "a hierarchical spec declares a root "
                                  "and a cluster level");
        }
    }

    const Json &entries = doc[hierarchical ? "clusters" : "switches"];
    if (!entries.isArray() || entries.size() == 0)
        return specError(err, "the switch/cluster list must be a "
                              "non-empty array");
    bool any_ranges = false;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        SwitchSpec sw;
        if (!parseSwitchEntry(entries.at(i),
                              hierarchical ? "clusters" : "switches", i,
                              &sw, err)) {
            return false;
        }
        any_ranges = any_ranges || !sw.ranges.empty();
        if (hierarchical) {
            ClusterSpec cl{def_inclusive, def_filter};
            const Json &e = entries.at(i);
            if (e.has("l2_policy") &&
                !parseL2Policy(e["l2_policy"], &cl.inclusive, err)) {
                return false;
            }
            if (e.has("snoop_filter")) {
                if (!e["snoop_filter"].isBool())
                    return specError(err, "\"snoop_filter\" must be a "
                                          "bool");
                cl.snoopFilter = e["snoop_filter"].asBool();
            }
            topo.clusters.push_back(cl);
        } else if (entries.at(i).has("l2_policy") ||
                   entries.at(i).has("snoop_filter")) {
            return specError(err, "flat switches have no L2 policy");
        }
        topo.switches.push_back(std::move(sw));
    }

    if (!any_ranges && hierarchical) {
        // Default tiling: 256 MiB strides, the last cluster to the end.
        for (std::size_t k = 0; k < topo.switches.size(); ++k) {
            Addr lo = Addr(k) * kDefaultClusterStride;
            Addr hi = k + 1 == topo.switches.size()
                          ? 0
                          : Addr(k + 1) * kDefaultClusterStride;
            topo.switches[k].ranges.push_back({lo, hi});
        }
    }

    std::string why;
    if (!topo.check(&why))
        return specError(err, why);
    *out = std::move(topo);
    return true;
}

bool
topologyFromSpecFile(const std::string &path, TopologyConfig *out,
                     std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        return specError(err, csprintf("cannot open \"%s\"",
                                       path.c_str()));
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string jerr;
    Json doc = Json::parse(text.str(), &jerr);
    if (!jerr.empty()) {
        return specError(err, csprintf("%s: %s", path.c_str(),
                                       jerr.c_str()));
    }
    return topologyFromSpec(doc, out, err);
}

} // namespace csync
