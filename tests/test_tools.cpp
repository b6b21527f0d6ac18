// ArgParser (tools/): flag parsing, typed accessors and their error
// reporting.  A malformed numeric flag must surface as invalid_argument
// naming the flag, not as a bare std::stod exception (which the tools
// print as the useless "stod").  Also runs the mcnet_sim binary to pin
// what its --cache flag changes in the output.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "arg_parser.hpp"

namespace {

using mcnet::tools::ArgParser;

/// Build an ArgParser from a brace list (argv[0] included).
ArgParser make_parser(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& a : storage) argv.push_back(a.data());
  return {static_cast<int>(argv.size()), argv.data()};
}

TEST(ArgParser, ParsesKeyValueAndEqualsForms) {
  ArgParser p = make_parser({"prog", "--alpha", "1.5", "--beta=2", "--flag"});
  EXPECT_DOUBLE_EQ(p.get_double("alpha", 0.0, ""), 1.5);
  EXPECT_EQ(p.get_int("beta", 0, ""), 2);
  EXPECT_TRUE(p.get_flag("flag", ""));
  EXPECT_FALSE(p.get_flag("absent", ""));
  p.reject_unknown();
}

TEST(ArgParser, DefaultsApplyWhenAbsent) {
  ArgParser p = make_parser({"prog"});
  EXPECT_DOUBLE_EQ(p.get_double("x", 3.25, ""), 3.25);
  EXPECT_EQ(p.get_int("n", -7, ""), -7);
}

TEST(ArgParser, MalformedDoubleNamesTheFlag) {
  ArgParser p = make_parser({"prog", "--interarrival-us", "fast"});
  try {
    (void)p.get_double("interarrival-us", 300.0, "");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--interarrival-us"), std::string::npos) << what;
    EXPECT_NE(what.find("fast"), std::string::npos) << what;
  }
}

TEST(ArgParser, TrailingGarbageInNumberIsRejected) {
  ArgParser p = make_parser({"prog", "--x", "12abc", "--n", "7q"});
  EXPECT_THROW((void)p.get_double("x", 0.0, ""), std::invalid_argument);
  EXPECT_THROW((void)p.get_int("n", 0, ""), std::invalid_argument);
}

TEST(ArgParser, MalformedIntNamesTheFlag) {
  ArgParser p = make_parser({"prog", "--dests=many"});
  try {
    (void)p.get_int("dests", 10, "");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--dests"), std::string::npos) << e.what();
  }
}

TEST(ArgParser, OutOfRangeIntIsRejectedWithFlagName) {
  ArgParser p = make_parser({"prog", "--n", "999999999999999999999999"});
  try {
    (void)p.get_int("n", 0, "");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << e.what();
  }
}

TEST(ArgParser, RejectsUnknownAndPositionalArguments) {
  EXPECT_THROW(make_parser({"prog", "positional"}), std::invalid_argument);
  ArgParser p = make_parser({"prog", "--known", "1", "--typo", "2"});
  EXPECT_EQ(p.get_int("known", 0, ""), 1);
  EXPECT_THROW(p.reject_unknown(), std::invalid_argument);
}

TEST(ArgParser, NegativeNumbersStillParse) {
  ArgParser p = make_parser({"prog", "--x=-2.5", "--n=-42"});
  EXPECT_DOUBLE_EQ(p.get_double("x", 0.0, ""), -2.5);
  EXPECT_EQ(p.get_int("n", 0, ""), -42);
}

/// stdout lines of `mcnet_sim <args>`; fails the test on a non-zero exit.
std::vector<std::string> run_mcnet_sim(const std::string& args) {
  const std::string command = std::string(MCNET_SIM_PATH) + " " + args;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  std::vector<std::string> lines;
  if (pipe == nullptr) return lines;
  std::string line;
  for (int c = std::fgetc(pipe); c != EOF; c = std::fgetc(pipe)) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  EXPECT_EQ(pclose(pipe), 0) << command;
  return lines;
}

// --cache wraps the router in a CachingRouter: it adds the `route cache:`
// line and changes nothing else the run prints.
TEST(McnetSim, CacheFlagOnlyAddsTheRouteCacheLine) {
  const std::string run =
      "--topology mesh:4x4 --algorithm dual-path --dests 2 --interarrival-us 400 "
      "--messages 400";
  const std::vector<std::string> plain = run_mcnet_sim(run);
  std::vector<std::string> cached = run_mcnet_sim(run + " --cache");

  const std::string prefix = "  route cache:";
  for (const std::string& line : plain) EXPECT_NE(line.rfind(prefix, 0), 0u) << line;
  std::size_t found = 0;
  unsigned long long hits = 0, misses = 0;
  for (auto it = cached.begin(); it != cached.end();) {
    if (it->rfind(prefix, 0) == 0) {
      ++found;
      EXPECT_EQ(std::sscanf(it->c_str(), "  route cache: %llu hits / %llu misses", &hits,
                            &misses),
                2)
          << *it;
      it = cached.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(found, 1u);
  // 16 nodes x 2 destinations: sets repeat, so the cache both fills and hits.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(cached, plain);

  const std::vector<std::string> csv = run_mcnet_sim(run + " --csv");
  EXPECT_EQ(run_mcnet_sim(run + " --csv --cache"), csv);
}

}  // namespace
