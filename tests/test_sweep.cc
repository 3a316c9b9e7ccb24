/**
 * @file
 * Tests for the sweep-spec parser and grid expansion: axis product
 * size and order, JSON schema validation with actionable error
 * messages, and up-front rejection of unknown protocol/workload names.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "harness/sweep.hh"
#include "harness/workload_factory.hh"
#include "trace/gen.hh"

using namespace csync;
using namespace csync::harness;

namespace
{

SweepSpec
parseSpec(const std::string &text)
{
    std::string err;
    Json doc = Json::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    SweepSpec spec;
    EXPECT_TRUE(SweepSpec::fromJson(doc, &spec, &err)) << err;
    return spec;
}

std::string
specError(const std::string &text)
{
    std::string err;
    Json doc = Json::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    SweepSpec spec;
    EXPECT_FALSE(SweepSpec::fromJson(doc, &spec, &err));
    EXPECT_FALSE(err.empty());
    return err;
}

} // namespace

TEST(SweepSpec, ExpandsCartesianGridInAxisOrder)
{
    SweepSpec spec;
    spec.protocols = {"bitar", "illinois"};
    spec.workloads = {"random_sharing", "migration"};
    spec.processorCounts = {2, 4};
    spec.blockWords = {4};
    spec.frames = {64};
    spec.seeds = {1, 2, 3};

    std::vector<JobSpec> jobs;
    std::string err;
    ASSERT_TRUE(spec.expand(&jobs, &err)) << err;
    EXPECT_EQ(jobs.size(), 2u * 2 * 2 * 3);
    // Protocol is the outermost axis, seed the innermost.
    EXPECT_EQ(jobs[0].name, "bitar/random_sharing/p2/bw4/f64/s1");
    EXPECT_EQ(jobs[1].name, "bitar/random_sharing/p2/bw4/f64/s2");
    EXPECT_EQ(jobs[3].name, "bitar/random_sharing/p4/bw4/f64/s1");
    EXPECT_EQ(jobs.back().name, "illinois/migration/p4/bw4/f64/s3");
    EXPECT_EQ(jobs[0].config.protocol, "bitar");
    EXPECT_EQ(jobs[0].config.numProcessors, 2u);
    EXPECT_EQ(jobs[0].config.cache.geom.frames, 64u);
}

TEST(SweepSpec, ExpandRejectsUnknownProtocol)
{
    SweepSpec spec;
    spec.protocols = {"bitar", "klingon"};
    spec.workloads = {"random_sharing"};
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_FALSE(spec.expand(&jobs, &err));
    EXPECT_NE(err.find("unknown protocol 'klingon'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("bitar"), std::string::npos)
        << "error should list known protocols: " << err;
}

TEST(SweepSpec, ExpandRejectsUnknownWorkload)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"matrix_multiply"};
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_FALSE(spec.expand(&jobs, &err));
    EXPECT_NE(err.find("unknown workload 'matrix_multiply'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("random_sharing"), std::string::npos)
        << "error should list known workloads: " << err;
}

TEST(SweepSpec, TopologyAxisTagsJobNamesAndConfigs)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"random_sharing"};
    spec.topologies = {"single_bus", "two_switch"};
    spec.processorCounts = {2};
    std::vector<JobSpec> jobs;
    std::string err;
    ASSERT_TRUE(spec.expand(&jobs, &err)) << err;
    ASSERT_EQ(jobs.size(), 2u);
    // Single-bus rows keep their historical names (no topology tag) so
    // pre-topology baselines still compare; two_switch rows are tagged.
    EXPECT_EQ(jobs[0].name, "bitar/random_sharing/p2/bw4/f128/s1");
    EXPECT_TRUE(jobs[0].config.topology.isSingleBus());
    EXPECT_EQ(jobs[1].name,
              "bitar/random_sharing/two_switch/p2/bw4/f128/s1");
    EXPECT_EQ(jobs[1].config.topology.switches.size(), 2u);
    EXPECT_EQ(jobs[1].config.topology.switches[0].name, "sync_bus");
}

TEST(SweepSpec, ExpandRejectsUnknownTopology)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"random_sharing"};
    spec.topologies = {"hypercube"};
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_FALSE(spec.expand(&jobs, &err));
    EXPECT_NE(err.find("unknown topology 'hypercube'"),
              std::string::npos) << err;
    EXPECT_NE(err.find("two_switch"), std::string::npos)
        << "error should list known topologies: " << err;
}

TEST(SweepSpec, ArbitrationAxisTagsJobNamesAndConfigs)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"random_sharing"};
    spec.arbitrations = {"round_robin", "fcfs", "alternating_priority"};
    spec.processorCounts = {2};
    std::vector<JobSpec> jobs;
    std::string err;
    ASSERT_TRUE(spec.expand(&jobs, &err)) << err;
    ASSERT_EQ(jobs.size(), 3u);
    // Round-robin rows keep their historical names (no arbitration
    // tag) so pre-arbitration baselines still compare; others are
    // tagged.
    EXPECT_EQ(jobs[0].name, "bitar/random_sharing/p2/bw4/f128/s1");
    EXPECT_EQ(jobs[0].config.arbitration, "round_robin");
    EXPECT_EQ(jobs[1].name, "bitar/random_sharing/fcfs/p2/bw4/f128/s1");
    EXPECT_EQ(jobs[1].config.arbitration, "fcfs");
    EXPECT_EQ(jobs[2].name,
              "bitar/random_sharing/alternating_priority/p2/bw4/f128/s1");
    EXPECT_EQ(jobs[2].config.arbitration, "alternating_priority");
}

TEST(SweepSpec, ExpandRejectsUnknownArbitration)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"random_sharing"};
    spec.arbitrations = {"coin_flip"};
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_FALSE(spec.expand(&jobs, &err));
    EXPECT_NE(err.find("unknown arbitration 'coin_flip'"),
              std::string::npos) << err;
    EXPECT_NE(err.find("fcfs"), std::string::npos)
        << "error should list known policies: " << err;
}

TEST(SweepSpec, ExpandRejectsEmptyAxis)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"random_sharing"};
    spec.seeds.clear();
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_FALSE(spec.expand(&jobs, &err));
    EXPECT_NE(err.find("at least one value"), std::string::npos) << err;
}

TEST(SweepSpec, FromJsonReadsEveryField)
{
    SweepSpec spec = parseSpec(R"({
        "name": "nightly",
        "protocols": ["bitar", "dragon"],
        "workloads": ["barrier"],
        "processors": [2, 8],
        "block_words": [4, 8],
        "frames": [32],
        "seeds": [7],
        "ops_per_processor": 500,
        "max_ticks": 1000000,
        "ways": 2,
        "enable_checker": false
    })");
    EXPECT_EQ(spec.name, "nightly");
    EXPECT_EQ(spec.protocols,
              (std::vector<std::string>{"bitar", "dragon"}));
    EXPECT_EQ(spec.processorCounts, (std::vector<unsigned>{2, 8}));
    EXPECT_EQ(spec.opsPerProcessor, 500u);
    EXPECT_EQ(spec.maxTicks, 1000000u);
    EXPECT_EQ(spec.ways, 2u);
    EXPECT_FALSE(spec.enableChecker);
}

TEST(SweepSpec, FromJsonErrorMessages)
{
    EXPECT_NE(specError(R"({"workloads": ["barrier"]})")
                  .find("\"protocols\" axis is missing"),
              std::string::npos);
    EXPECT_NE(specError(R"({"protocols": ["bitar"]})")
                  .find("\"workloads\" and \"traces\" axes are both "
                        "missing"),
              std::string::npos);
    EXPECT_NE(specError(R"({"protocols": "bitar",
                            "workloads": ["barrier"]})")
                  .find("\"protocols\" must be an array"),
              std::string::npos);
    EXPECT_NE(specError(R"({"protocols": ["bitar"],
                            "workloads": ["barrier"],
                            "processors": [2, "four"]})")
                  .find("\"processors\"[1]"),
              std::string::npos);
    EXPECT_NE(specError(R"({"protocols": ["bitar"],
                            "workloads": ["barrier"],
                            "procs": [2]})")
                  .find("unknown key \"procs\""),
              std::string::npos);
    EXPECT_NE(specError("[1, 2]").find("not a JSON object"),
              std::string::npos);
}

TEST(SweepSpec, IntegerFieldsRejectFractionsNegativesAndOverflow)
{
    // Each of these used to be cast to its unsigned field: 2.5 ran a
    // 2-processor campaign, 4294967298 wrapped to 2, 1e30 made 0
    // processors, and 50.7 ran 50 ops.
    const char *axis = R"({"protocols": ["bitar"],
                           "workloads": ["random_sharing"], )";
    for (const char *bad : {"[2.5]", "[4294967298]", "[1e30]", "[-1]"}) {
        std::string err = specError(std::string(axis) +
                                    "\"processors\": " + bad + "}");
        EXPECT_NE(err.find("\"processors\"[0] must be an integer in "
                           "0..4294967295"),
                  std::string::npos)
            << bad << ": " << err;
    }
    EXPECT_NE(specError(std::string(axis) + "\"ops_per_processor\": 50.7}")
                  .find("\"ops_per_processor\" must be an integer"),
              std::string::npos);
    EXPECT_NE(specError(std::string(axis) + "\"seeds\": [1, -3]}")
                  .find("\"seeds\"[1] must be an integer"),
              std::string::npos);
    EXPECT_NE(specError(std::string(axis) +
                        "\"max_ticks\": 18446744073709551616}")
                  .find("\"max_ticks\" must be an integer"),
              std::string::npos);

    // In-range integers, and fractional fault rates, still parse.
    SweepSpec ok = parseSpec(std::string(axis) +
                             "\"processors\": [4294967295], "
                             "\"seeds\": [9007199254740992], "
                             "\"fault_rates\": [0.25]}");
    EXPECT_EQ(ok.processorCounts, (std::vector<unsigned>{4294967295u}));
    EXPECT_EQ(ok.seeds, (std::vector<std::uint64_t>{9007199254740992u}));
    EXPECT_EQ(ok.faultRates, (std::vector<double>{0.25}));
}

TEST(SweepSpec, ToJsonRoundTrips)
{
    SweepSpec spec;
    spec.name = "rt";
    spec.protocols = {"bitar"};
    spec.workloads = {"migration"};
    spec.seeds = {3, 4};
    SweepSpec again;
    std::string err;
    ASSERT_TRUE(SweepSpec::fromJson(spec.toJson(), &again, &err)) << err;
    EXPECT_EQ(again.name, "rt");
    EXPECT_EQ(again.seeds, (std::vector<std::uint64_t>{3, 4}));
    EXPECT_EQ(again.opsPerProcessor, spec.opsPerProcessor);
}

TEST(SweepSpec, ToJsonOmitsDefaultTopologyAxis)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"migration"};
    // Pre-topology manifests must stay byte-identical: the axis only
    // appears once somebody asks for a non-default topology.
    EXPECT_FALSE(spec.toJson().has("topologies"));
    spec.topologies = {"two_switch"};
    SweepSpec again;
    std::string err;
    ASSERT_TRUE(SweepSpec::fromJson(spec.toJson(), &again, &err)) << err;
    EXPECT_EQ(again.topologies,
              (std::vector<std::string>{"two_switch"}));
}

TEST(SweepSpec, ToJsonOmitsDefaultArbitrationAxis)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"migration"};
    // Pre-arbitration manifests must stay byte-identical: the axis
    // only appears once somebody asks for a non-default policy.
    EXPECT_FALSE(spec.toJson().has("arbitrations"));
    spec.arbitrations = {"fcfs", "alternating_priority"};
    SweepSpec again;
    std::string err;
    ASSERT_TRUE(SweepSpec::fromJson(spec.toJson(), &again, &err)) << err;
    EXPECT_EQ(again.arbitrations,
              (std::vector<std::string>{"fcfs", "alternating_priority"}));
}

TEST(SweepSpec, TracesAxisExpandsLikeAWorkload)
{
    // A real trace file: expand() opens every entry up front.
    trace::GenParams p;
    p.kernel = "mix";
    p.threads = 2;
    p.events = 100;
    std::string path = ::testing::TempDir() + "sweep_axis.ctrace";
    std::string err;
    ASSERT_TRUE(trace::generateTrace(p, path, &err)) << err;

    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.traces = {path};
    spec.processorCounts = {2};
    std::vector<JobSpec> jobs;
    ASSERT_TRUE(spec.expand(&jobs, &err)) << err;
    ASSERT_EQ(jobs.size(), 1u);
    // Job names carry the file stem, not the host-specific path.
    EXPECT_EQ(jobs[0].name, "bitar/trace:sweep_axis/p2/bw4/f128/s1");
    EXPECT_EQ(jobs[0].workload, std::string(kTraceRecipePrefix) + path);
    std::remove(path.c_str());
}

TEST(SweepSpec, ExpandRejectsMissingTraceFile)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.traces = {"/nonexistent/campaign.ctrace"};
    std::vector<JobSpec> jobs;
    std::string err;
    EXPECT_FALSE(spec.expand(&jobs, &err));
    EXPECT_NE(err.find("/nonexistent/campaign.ctrace"),
              std::string::npos) << err;
}

TEST(SweepSpec, TracesOnlySpecParses)
{
    SweepSpec spec = parseSpec(R"({
        "protocols": ["bitar"],
        "traces": ["captures/app.ctrace"]
    })");
    EXPECT_TRUE(spec.workloads.empty());
    EXPECT_EQ(spec.traces,
              (std::vector<std::string>{"captures/app.ctrace"}));
}

TEST(SweepSpec, ToJsonOmitsEmptyTracesAxis)
{
    SweepSpec spec;
    spec.protocols = {"bitar"};
    spec.workloads = {"migration"};
    // Pre-trace manifests must stay byte-identical: the axis only
    // appears once a trace is actually named.
    EXPECT_FALSE(spec.toJson().has("traces"));
    spec.traces = {"captures/app.ctrace"};
    SweepSpec again;
    std::string err;
    ASSERT_TRUE(SweepSpec::fromJson(spec.toJson(), &again, &err)) << err;
    EXPECT_EQ(again.traces, spec.traces);
}

TEST(WorkloadFactory, KnowsItsNamesAndRejectsOthers)
{
    auto names = workloadNames();
    EXPECT_GE(names.size(), 5u);
    for (const auto &n : names) {
        EXPECT_TRUE(workloadKnown(n));
        WorkloadSlot slot;
        slot.numProcs = 2;
        slot.procId = 0;
        std::string err;
        auto w = makeWorkload(n, slot, &err);
        EXPECT_NE(w, nullptr) << n << ": " << err;
    }
    std::string err;
    EXPECT_EQ(makeWorkload("nope", WorkloadSlot{}, &err), nullptr);
    EXPECT_NE(err.find("unknown workload 'nope'"), std::string::npos);
    for (const auto &n : names) {
        EXPECT_NE(err.find(n), std::string::npos)
            << "error should list every recipe: " << err;
    }
    EXPECT_NE(err.find("trace:<path>"), std::string::npos)
        << "error should mention the trace recipe: " << err;
}

TEST(WorkloadFactory, LockWorkloadsNeedFeature6)
{
    WorkloadSlot slot;
    slot.numProcs = 2;
    slot.protocol = "goodman"; // no lock ops, no atomic RMW
    std::string err;
    EXPECT_EQ(makeWorkload("critical_section", slot, &err), nullptr);
    EXPECT_NE(err.find("Feature 6"), std::string::npos) << err;
    // Protocols with RMW (illinois) or cache locks (bitar) are fine.
    slot.protocol = "illinois";
    EXPECT_NE(makeWorkload("barrier", slot, &err), nullptr);
    slot.protocol = "bitar";
    EXPECT_NE(makeWorkload("barrier", slot, &err), nullptr);
}
