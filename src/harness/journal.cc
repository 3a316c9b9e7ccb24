#include "harness/journal.hh"

#include <cstdio>

#include "harness/campaign_io.hh"
#include "harness/cli_args.hh"
#include "sim/logging.hh"

namespace csync
{
namespace harness
{

namespace
{

/** FNV-1a 64-bit over @p s. */
std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // anonymous namespace

std::string
jobFingerprint(const JobSpec &spec)
{
    // Every field that changes what the simulation computes, in a
    // fixed layout.  The fault plan is folded in via its canonical
    // JSON echo so new plan fields can never silently alias two
    // different experiments to one ID.
    const SystemConfig &c = spec.config;
    std::string fp = csprintf(
        "job|%s|cfg=%s|proto=%s|topo=%s|procs=%u|bw=%u|frames=%u|"
        "ways=%u|checker=%d|io=%d|dirproto=%d|wl=%s|seed=%llu|"
        "ops=%llu|maxticks=%llu|fault=%s",
        spec.name.c_str(), c.name.c_str(), c.protocol.c_str(),
        c.topology.preset.c_str(), c.numProcessors,
        c.cache.geom.blockWords, c.cache.geom.frames, c.cache.geom.ways,
        int(c.enableChecker), int(c.withIODevice),
        int(c.directoryFromProtocol), spec.workload.c_str(),
        (unsigned long long)spec.seed, (unsigned long long)spec.ops,
        (unsigned long long)spec.maxTicks,
        c.fault.toJson().dump(-1).c_str());
    // Appended only off the defaults so every pre-arbitration journal
    // keeps resuming against its recorded IDs.
    if (c.arbitration != "round_robin")
        fp += csprintf("|arb=%s", c.arbitration.c_str());
    if (!c.adaptive.isDefault()) {
        fp += csprintf("|adaptive=%u/%u/%u", c.adaptive.counterBits,
                       c.adaptive.invalidateThreshold,
                       c.adaptive.updateThreshold);
    }
    return fp;
}

std::string
jobId(const JobSpec &spec)
{
    return csprintf("%016llx",
                    (unsigned long long)fnv1a64(jobFingerprint(spec)));
}

std::string
Shard::str() const
{
    return csprintf("%u/%u", index + 1, count);
}

bool
parseShard(const std::string &text, Shard *out, std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = csprintf("shard '%s': %s", text.c_str(),
                            what.c_str());
        return false;
    };
    std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        return fail("expected i/N (e.g. 1/4)");
    }
    unsigned i = 0, n = 0;
    std::string why;
    if (!parseUnsignedArg("count", text.substr(slash + 1), &n, &why, 1) ||
        !parseUnsignedArg("index", text.substr(0, slash), &i, &why, 1, n))
        return fail(why);
    out->index = i - 1;
    out->count = n;
    return true;
}

bool
shardContains(const Shard &shard, const std::string &job_id)
{
    if (shard.whole())
        return true;
    return fnv1a64(job_id) % shard.count == shard.index;
}

bool
JournalWriter::create(const std::string &path,
                      const JournalHeader &header, std::string *err)
{
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_) {
        if (err)
            *err = "cannot create journal " + path;
        return false;
    }
    path_ = path;
    Json doc = Json::object();
    doc.set("csync_journal", kJournalVersion);
    doc.set("name", header.name);
    doc.set("spec", header.spec);
    doc.set("jobs", double(header.jobs));
    if (!header.shard.empty())
        doc.set("shard", header.shard);
    out_ << doc.dump(-1) << "\n";
    out_.flush();
    if (!out_) {
        if (err)
            *err = "write failed for journal " + path;
        return false;
    }
    return true;
}

bool
JournalWriter::append(const std::string &path, std::string *err)
{
    out_.open(path, std::ios::binary | std::ios::app);
    if (!out_) {
        if (err)
            *err = "cannot append to journal " + path;
        return false;
    }
    path_ = path;
    return true;
}

bool
JournalWriter::add(const std::string &job_id, const JobResult &row,
                   std::string *err)
{
    Json line = Json::object();
    line.set("job_id", job_id);
    line.set("name", row.name);
    if (row.wallMs != 0)
        line.set("wall_ms", row.wallMs);
    line.set("row", rowToJson(row));
    out_ << line.dump(-1) << "\n";
    out_.flush();
    if (!out_) {
        if (err)
            *err = "write failed for journal " + path_;
        return false;
    }
    return true;
}

bool
loadJournal(const std::string &path, JournalData *out, std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = "journal " + path + ": " + what;
        return false;
    };
    std::string text;
    if (!readFile(path, &text, err))
        return false;

    JournalData data;
    std::size_t pos = 0, line_no = 0;
    bool have_header = false;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        bool torn = nl == std::string::npos;
        std::string line =
            text.substr(pos, torn ? std::string::npos : nl - pos);
        pos = torn ? text.size() : nl + 1;
        ++line_no;
        if (line.empty())
            continue;

        std::string perr;
        Json doc = Json::parse(line, &perr);
        bool last = pos >= text.size();
        if (!perr.empty()) {
            // A torn or half-flushed final line is exactly what a
            // SIGKILL leaves behind; anything earlier is corruption.
            if (last) {
                data.truncatedTail = true;
                break;
            }
            return fail(csprintf("line %zu: %s", line_no,
                                 perr.c_str()));
        }

        if (!have_header) {
            if (!doc["csync_journal"].isNumber())
                return fail("first line is not a journal header");
            unsigned version = 0;
            std::string why;
            if (!readUnsigned(doc["csync_journal"], "\"csync_journal\"",
                              &version, &why))
                return fail(why);
            if (version != unsigned(kJournalVersion))
                return fail(csprintf("unsupported version %u", version));
            data.header.name = doc["name"].asString();
            data.header.spec = doc["spec"];
            if (!doc["jobs"].isNull() &&
                !readUnsigned(doc["jobs"], "\"jobs\"", &data.header.jobs,
                              &why))
                return fail(why);
            data.header.shard = doc["shard"].asString();
            have_header = true;
            continue;
        }

        if (!doc["job_id"].isString() || !doc["row"].isObject()) {
            if (last && torn) {
                data.truncatedTail = true;
                break;
            }
            return fail(csprintf("line %zu: not a row record",
                                 line_no));
        }
        JobResult row;
        std::string rerr;
        if (!rowFromJson(doc["row"], &row, &rerr))
            return fail(csprintf("line %zu: %s", line_no,
                                 rerr.c_str()));
        data.byId.emplace(doc["job_id"].asString(), std::move(row));
    }
    if (!have_header)
        return fail("empty file (no header line)");
    *out = std::move(data);
    return true;
}

CampaignResult
finalizeCampaign(const std::string &name, const Json &spec_json,
                 const std::vector<JobSpec> &grid,
                 const std::map<std::string, JobResult> &by_id,
                 std::vector<std::string> *missing)
{
    CampaignResult result;
    result.name = name;
    result.specJson = spec_json;
    // Host-timing fields stay zero (and are omitted from the document)
    // so the finalized campaign is a pure function of the simulations.
    for (const auto &job : grid) {
        auto it = by_id.find(jobId(job));
        if (it == by_id.end()) {
            if (missing)
                missing->push_back(job.name);
            continue;
        }
        JobResult row = it->second;
        row.wallMs = 0;
        row.hostMops = 0;
        result.rows.push_back(std::move(row));
    }
    return result;
}

} // namespace harness
} // namespace csync
