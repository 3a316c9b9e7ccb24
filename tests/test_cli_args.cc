/**
 * @file
 * Unit tests for the tools' strict command-line value parser: whole
 * tokens only, no sign, no overflow, range checks, and errors that
 * name the flag and the token.
 */

#include <gtest/gtest.h>

#include "harness/cli_args.hh"

using namespace csync::harness;

TEST(CliArgs, SplitListDropsEmptyItems)
{
    std::vector<std::string> out;
    EXPECT_TRUE(splitList("a,,b,", &out));
    EXPECT_EQ(out, (std::vector<std::string>{"a", "b"}));
    EXPECT_FALSE(splitList(",,", &out));
    EXPECT_TRUE(out.empty());
}

TEST(CliArgs, AcceptsWholeUnsignedTokens)
{
    std::string err;
    std::uint64_t v = 0;
    EXPECT_TRUE(parseUnsignedArg("--ops", "2000000", &v, &err));
    EXPECT_EQ(v, 2000000u);
    EXPECT_TRUE(parseUnsignedArg("--seed", "18446744073709551615", &v,
                                 &err));
    EXPECT_EQ(v, 18446744073709551615ull);
    unsigned u = 0;
    EXPECT_TRUE(parseUnsignedArg("--jobs", "0", &u, &err));
    EXPECT_EQ(u, 0u);
    EXPECT_TRUE(parseUnsignedArg("--threads", "4294967295", &u, &err));
    EXPECT_EQ(u, 4294967295u);
}

TEST(CliArgs, RejectsMalformedUnsignedTokensNamingFlagAndToken)
{
    for (const char *tok : {"", "abc", "-1", "+1", " 1", "1 ", "1e3",
                            "0x10", "12abc", "1.5"}) {
        std::string err;
        std::uint64_t v = 7;
        EXPECT_FALSE(parseUnsignedArg("--ops", tok, &v, &err)) << tok;
        EXPECT_EQ(v, 7u) << "output written on failure: " << tok;
        EXPECT_EQ(err.find("--ops"), 0u) << err;
        EXPECT_NE(err.find(std::string("'") + tok + "'"),
                  std::string::npos)
            << err;
    }
}

TEST(CliArgs, RejectsOverflowAndOutOfRange)
{
    std::string err;
    std::uint64_t v = 0;
    EXPECT_FALSE(parseUnsignedArg("--ops", "18446744073709551616", &v,
                                  &err));
    EXPECT_NE(err.find("64 bits"), std::string::npos) << err;

    // An unsigned destination is range-checked, not truncated.
    unsigned u = 0;
    EXPECT_FALSE(parseUnsignedArg("--threads", "4294967296", &u, &err));
    EXPECT_NE(err.find("outside 0..4294967295"), std::string::npos)
        << err;

    EXPECT_FALSE(parseUnsignedArg("--sim-threads", "65", &u, &err, 1, 64));
    EXPECT_EQ(err, "--sim-threads: '65' is outside 1..64");
    EXPECT_FALSE(parseUnsignedArg("--reps", "0", &u, &err, 1));
    EXPECT_TRUE(parseUnsignedArg("--sim-threads", "64", &u, &err, 1, 64));
    EXPECT_EQ(u, 64u);
}

TEST(CliArgs, ParsesUnsignedFiniteReals)
{
    std::string err;
    double d = 0;
    EXPECT_TRUE(parseDoubleArg("--tolerance", "0.5", &d, &err));
    EXPECT_DOUBLE_EQ(d, 0.5);
    EXPECT_TRUE(parseDoubleArg("--tolerance", ".25", &d, &err));
    EXPECT_DOUBLE_EQ(d, 0.25);
    EXPECT_TRUE(parseDoubleArg("--fault-rates", "1e-3", &d, &err));
    EXPECT_DOUBLE_EQ(d, 1e-3);
    EXPECT_TRUE(parseDoubleArg("--tolerance", "2.5E+1", &d, &err));
    EXPECT_DOUBLE_EQ(d, 25);
    for (const char *tok : {"", "-0.1", "+1", " 1", "1x", "inf", "nan",
                            "1e999", "0x10", "0x1p3", "1e"}) {
        EXPECT_FALSE(parseDoubleArg("--tolerance", tok, &d, &err)) << tok;
        EXPECT_EQ(err.find("--tolerance: '"), 0u) << err;
    }
    EXPECT_FALSE(parseDoubleArg("--rate", "2", &d, &err, 0, 1));
    EXPECT_NE(err.find("outside"), std::string::npos) << err;
}

TEST(CliArgs, ParsesListsItemByItem)
{
    std::string err;
    std::vector<unsigned> procs;
    EXPECT_TRUE(parseListArg("--procs", "4,8", &procs, &err));
    EXPECT_EQ(procs, (std::vector<unsigned>{4, 8}));
    EXPECT_FALSE(parseListArg("--procs", "4,x", &procs, &err));
    EXPECT_EQ(err, "--procs: 'x' is not an unsigned integer");
    EXPECT_FALSE(parseListArg("--procs", ",", &procs, &err));
    EXPECT_EQ(err, "--procs: empty list");

    std::vector<std::uint64_t> seeds;
    EXPECT_TRUE(parseListArg("--seeds", "1,2,3", &seeds, &err));
    EXPECT_EQ(seeds.size(), 3u);

    std::vector<double> rates;
    EXPECT_TRUE(parseListArg("--fault-rates", "0,0.01", &rates, &err));
    EXPECT_EQ(rates, (std::vector<double>{0.0, 0.01}));
    EXPECT_FALSE(parseListArg("--fault-rates", "0.1,-1", &rates, &err));
    EXPECT_NE(err.find("'-1'"), std::string::npos) << err;
}
