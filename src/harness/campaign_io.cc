#include "harness/campaign_io.hh"

#include <fstream>
#include <set>
#include <sstream>

#include "sim/stats_json.hh"

namespace csync
{
namespace harness
{

Json
rowToJson(const JobResult &r)
{
    Json row = Json::object();
    row.set("name", r.name);
    row.set("protocol", r.protocol);
    row.set("workload", r.workload);
    row.set("topology", r.topology);
    // The arbitration echo travels only on non-default rows, so
    // pre-arbitration campaigns keep their exact shape.
    if (!r.arbitration.empty() && r.arbitration != "round_robin")
        row.set("arbitration", r.arbitration);
    // The trace axis travels only on trace-replay rows, so synthetic
    // campaigns keep their exact shape.
    if (!r.trace.empty())
        row.set("trace", r.trace);
    // The serial-fallback echo travels only on clustered rows that
    // would not shard, so flat campaigns keep their exact shape.
    if (!r.partitionFallback.empty())
        row.set("partition_fallback", r.partitionFallback);
    row.set("procs", r.procs);
    row.set("block_words", r.blockWords);
    row.set("frames", r.frames);
    row.set("seed", r.seed);
    row.set("status", r.status);
    if (!r.error.empty())
        row.set("error", r.error);
    // Failure forensics travel only on non-ok rows, so ok-only
    // campaigns (e.g. the committed golden) keep their exact shape.
    if (r.firstViolationTick)
        row.set("first_violation_tick", r.firstViolationTick);
    if (!r.failingStat.empty())
        row.set("failing_stat", r.failingStat);
    // Retry accounting appears only once the harness actually retried
    // or captured a crash, so deterministic campaigns stay
    // byte-stable.
    if (r.attempts > 1)
        row.set("attempts", r.attempts);
    if (r.retryBackoffMs != 0)
        row.set("retry_backoff_ms", r.retryBackoffMs);
    if (!r.stderrTail.empty())
        row.set("stderr_tail", r.stderrTail);
    row.set("ticks", r.ticks);
    row.set("mem_ops", r.memOps);
    row.set("checker_violations", r.checkerViolations);
    row.set("invariant_violations", r.invariantViolations);
    // Host timing is omitted when zero: journal-finalized documents
    // zero it so resumed and uninterrupted runs serialize identically.
    if (r.wallMs != 0)
        row.set("wall_ms", r.wallMs);
    if (r.hostMops != 0)
        row.set("host_mops", r.hostMops);
    Json stats = Json::object();
    for (const auto &kv : r.stats)
        stats.set(kv.first, kv.second);
    row.set("stats", stats);
    return row;
}

bool
rowFromJson(const Json &row, JobResult *out, std::string *err)
{
    if (!row.isObject() || !row["name"].isString()) {
        if (err)
            *err = "row is not an object with a \"name\"";
        return false;
    }
    JobResult r;
    r.name = row["name"].asString();
    r.protocol = row["protocol"].asString();
    r.workload = row["workload"].asString();
    r.topology = row["topology"].asString();
    r.arbitration = row["arbitration"].isString()
                        ? row["arbitration"].asString()
                        : "round_robin";
    r.trace = row["trace"].asString();
    r.partitionFallback = row["partition_fallback"].asString();
    r.status = row["status"].isString() ? row["status"].asString()
                                        : "ok";
    r.error = row["error"].asString();
    r.failingStat = row["failing_stat"].asString();
    r.retryBackoffMs = row["retry_backoff_ms"].asNumber();
    r.stderrTail = row["stderr_tail"].asString();
    // Counts and ticks are whole numbers: an absent field keeps its
    // default, but a fractional, negative or out-of-range one refuses
    // the row instead of being truncated into it.
    std::string why;
    auto field = [&](const char *key, auto *dst) {
        return row[key].isNull() ||
               readUnsigned(row[key], csprintf("\"%s\"", key), dst, &why);
    };
    if (!field("procs", &r.procs) || !field("block_words", &r.blockWords) ||
        !field("frames", &r.frames) || !field("seed", &r.seed) ||
        !field("first_violation_tick", &r.firstViolationTick) ||
        !field("attempts", &r.attempts) || !field("ticks", &r.ticks) ||
        !field("mem_ops", &r.memOps) ||
        !field("checker_violations", &r.checkerViolations) ||
        !field("invariant_violations", &r.invariantViolations)) {
        if (err)
            *err = "row " + why;
        return false;
    }
    r.wallMs = row["wall_ms"].asNumber();
    r.hostMops = row["host_mops"].asNumber();
    if (!row["stats"].isNull() && !row["stats"].isObject()) {
        if (err)
            *err = "row \"stats\" is not an object";
        return false;
    }
    for (const auto &kv : row["stats"].members()) {
        if (!kv.second.isNumber()) {
            if (err)
                *err = csprintf("row stat \"%s\" is not a number",
                                kv.first.c_str());
            return false;
        }
        r.stats[kv.first] = kv.second.asNumber();
    }
    *out = std::move(r);
    return true;
}

Json
campaignToJson(const CampaignResult &result)
{
    Json doc = Json::object();
    doc.set("csync_campaign", kCampaignVersion);
    doc.set("name", result.name);
    if (!result.specJson.isNull())
        doc.set("spec", result.specJson);
    doc.set("jobs", double(result.rows.size()));
    // Worker count and wall clock are host facts, not simulation
    // results; finalized documents zero them (and omit them here) so
    // the same campaign serializes identically on any machine.
    if (result.workers)
        doc.set("workers", result.workers);
    if (result.wallMs != 0)
        doc.set("wall_ms", result.wallMs);
    doc.set("failures", result.failures());

    Json rows = Json::array();
    for (const auto &r : result.rows)
        rows.push(rowToJson(r));
    doc.set("rows", std::move(rows));
    return doc;
}

bool
campaignFromJson(const Json &doc, CampaignResult *out, std::string *err)
{
    auto loadError = [&](const std::string &what) {
        if (err)
            *err = "campaign document: " + what;
        return false;
    };
    if (!doc.isObject() || !doc["csync_campaign"].isNumber())
        return loadError("missing \"csync_campaign\" version marker");
    unsigned version = 0;
    std::string why;
    if (!readUnsigned(doc["csync_campaign"], "\"csync_campaign\"",
                      &version, &why))
        return loadError(why);
    if (version != unsigned(kCampaignVersion))
        return loadError(csprintf("unsupported version %u", version));
    if (!doc["rows"].isArray())
        return loadError("missing \"rows\" array");

    CampaignResult result;
    result.name = doc["name"].asString();
    result.specJson = doc["spec"];
    if (!doc["workers"].isNull() &&
        !readUnsigned(doc["workers"], "\"workers\"", &result.workers,
                      &why))
        return loadError(why);
    result.wallMs = doc["wall_ms"].asNumber();
    for (std::size_t i = 0; i < doc["rows"].size(); ++i) {
        JobResult r;
        std::string rerr;
        if (!rowFromJson(doc["rows"].at(i), &r, &rerr))
            return loadError(csprintf("row %zu: %s", i, rerr.c_str()));
        result.rows.push_back(std::move(r));
    }
    *out = std::move(result);
    return true;
}

void
campaignToCsv(const CampaignResult &result, std::ostream &os)
{
    std::set<std::string> keys;
    for (const auto &r : result.rows)
        for (const auto &kv : r.stats)
            keys.insert(kv.first);

    auto quote = [](const std::string &s) {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"')
                out += '"';
            out += c;
        }
        return out + "\"";
    };

    os << "name,protocol,workload,topology,trace,procs,block_words,"
          "frames,seed,status,ticks,mem_ops,wall_ms,host_mops";
    for (const auto &k : keys)
        os << "," << quote(k);
    os << "\n";
    for (const auto &r : result.rows) {
        os << quote(r.name) << "," << quote(r.protocol) << ","
           << quote(r.workload) << "," << quote(r.topology) << ","
           << quote(r.trace) << "," << r.procs << "," << r.blockWords
           << "," << r.frames << "," << r.seed << "," << r.status << ","
           << r.ticks << "," << r.memOps << ","
           << stats::jsonNumber(r.wallMs) << ","
           << stats::jsonNumber(r.hostMops);
        for (const auto &k : keys) {
            os << ",";
            auto it = r.stats.find(k);
            if (it != r.stats.end())
                os << stats::jsonNumber(it->second);
        }
        os << "\n";
    }
}

bool
readFile(const std::string &path, std::string *out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &content,
          std::string *err)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (err)
            *err = "cannot write " + path;
        return false;
    }
    out << content;
    out.flush();
    if (!out) {
        if (err)
            *err = "write failed for " + path;
        return false;
    }
    return true;
}

} // namespace harness
} // namespace csync
