/**
 * @file
 * Golden-trace replay: the committed csync-mc replay document
 * (tests/golden/mc_trace.json) must round-trip through the JSON wire
 * format and re-replay byte-identically — same serialized trace, same
 * serialized verdict.  Any engine change that shifts the outcome of the
 * recorded ops shows up as a diff here before it reaches CI.
 */

#include <gtest/gtest.h>

#include <utility>

#include "harness/campaign_io.hh"
#include "harness/json.hh"
#include "system/replay.hh"

using namespace csync;

#ifndef CSYNC_GOLDEN_DIR
#error "CSYNC_GOLDEN_DIR must point at tests/golden"
#endif

namespace
{

harness::Json
loadGolden()
{
    std::string text, err;
    const std::string path = std::string(CSYNC_GOLDEN_DIR) + "/mc_trace.json";
    EXPECT_TRUE(harness::readFile(path, &text, &err)) << err;
    harness::Json doc = harness::Json::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    return doc;
}

} // anonymous namespace

TEST(McReplayGolden, TraceRoundTripsByteIdentically)
{
    harness::Json doc = loadGolden();
    ASSERT_TRUE(doc.has("trace"));

    DirectedTrace trace;
    std::string err;
    ASSERT_TRUE(traceFromJson(doc["trace"], &trace, &err)) << err;
    EXPECT_EQ(traceToJson(trace).dump(2), doc["trace"].dump(2));
}

TEST(McReplayGolden, ReplayReproducesRecordedVerdict)
{
    harness::Json doc = loadGolden();
    ASSERT_TRUE(doc.has("trace"));
    ASSERT_TRUE(doc.has("result"));

    DirectedTrace trace;
    std::string err;
    ASSERT_TRUE(traceFromJson(doc["trace"], &trace, &err)) << err;

    ReplayVerdict v = replayTrace(trace);
    EXPECT_EQ(verdictToJson(v).dump(2), doc["result"].dump(2));
    EXPECT_TRUE(v.clean()) << v.describe();
}

TEST(McReplayGolden, ReplayIsDeterministicAcrossRuns)
{
    harness::Json doc = loadGolden();
    DirectedTrace trace;
    std::string err;
    ASSERT_TRUE(traceFromJson(doc["trace"], &trace, &err)) << err;

    TraceReplayer a(trace);
    TraceReplayer b(trace);
    for (const DirectedOp &op : trace.ops) {
        a.step(op);
        b.step(op);
    }
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(verdictToJson(a.verdict()).dump(0),
              verdictToJson(b.verdict()).dump(0));
}

TEST(McReplayGolden, RecordedOpsMatchWhatWasFed)
{
    harness::Json doc = loadGolden();
    DirectedTrace trace;
    std::string err;
    ASSERT_TRUE(traceFromJson(doc["trace"], &trace, &err)) << err;

    TraceReplayer r(trace);
    for (const DirectedOp &op : trace.ops)
        r.step(op);
    // recorded() is the replayable transcript the explorer serializes.
    EXPECT_EQ(traceToJson(r.recorded()).dump(2), doc["trace"].dump(2));
}

TEST(McReplayParse, EvictOnSetAssociativeShapeIsRejected)
{
    // Evict displaces a block by reading one conflicting filler, which
    // only works direct-mapped; the parser must refuse it up front.
    std::string err;
    harness::Json doc = harness::Json::parse(
        R"({"protocol": "bitar", "ways": 2, "ops": [
              {"cache": 0, "op": "read", "addr": "0x1000"},
              {"cache": 1, "op": "evict", "addr": "0x1000"}]})",
        &err);
    ASSERT_TRUE(err.empty()) << err;
    DirectedTrace trace;
    EXPECT_FALSE(traceFromJson(doc, &trace, &err));
    EXPECT_NE(err.find("op 1"), std::string::npos) << err;
    EXPECT_NE(err.find("evict"), std::string::npos) << err;

    doc.set("ways", 1u);
    EXPECT_TRUE(traceFromJson(doc, &trace, &err)) << err;
}

TEST(McReplayParse, NumericFieldsMustBeUnsignedIntegers)
{
    // "addr": -5 used to replay (casting a negative double to an
    // unsigned type is undefined behaviour); fractions were truncated.
    const std::pair<const char *, const char *> cases[] = {
        {R"({"protocol": "bitar", "ops": [
              {"cache": 0, "op": "read", "addr": -5}]})",
         "\"addr\""},
        {R"({"protocol": "bitar", "ops": [
              {"cache": 0, "op": "read", "addr": "-5"}]})",
         "\"addr\""},
        {R"({"protocol": "bitar", "ops": [
              {"cache": 0.5, "op": "read", "addr": "0x1000"}]})",
         "\"cache\""},
        {R"({"protocol": "bitar", "ops": [
              {"cache": 0, "op": "write", "addr": 4096, "value": 1.5}]})",
         "\"value\""},
        {R"({"protocol": "bitar", "processors": 4294967298, "ops": []})",
         "\"processors\""},
        {R"({"protocol": "bitar", "frames": -4, "ops": []})",
         "\"frames\""},
    };
    for (const auto &[text, key] : cases) {
        std::string err;
        harness::Json doc = harness::Json::parse(text, &err);
        ASSERT_TRUE(err.empty()) << err;
        DirectedTrace trace;
        EXPECT_FALSE(traceFromJson(doc, &trace, &err)) << text;
        EXPECT_NE(err.find(key), std::string::npos) << text << ": " << err;
    }

    // Numeric addresses, and absent fields at their defaults, still
    // parse.
    std::string err;
    harness::Json doc = harness::Json::parse(
        R"({"protocol": "bitar", "ops": [
              {"cache": 1, "op": "write", "addr": 4096, "value": 7}]})",
        &err);
    ASSERT_TRUE(err.empty()) << err;
    DirectedTrace trace;
    ASSERT_TRUE(traceFromJson(doc, &trace, &err)) << err;
    EXPECT_EQ(trace.processors, 2u);
    EXPECT_EQ(trace.ways, 1u);
    ASSERT_EQ(trace.ops.size(), 1u);
    EXPECT_EQ(trace.ops[0].cache, 1u);
    EXPECT_EQ(trace.ops[0].addr, 4096u);
    EXPECT_EQ(trace.ops[0].value, 7u);
}
