// bench/common.h flag parsing: the shared flags, the per-bench flags a
// bench opts into through BenchFlags (--fleet, --placement, owning its
// fault schedule), and every rejection — all through ParseBenchArgs, the
// entry point that reports errors instead of exiting.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"

namespace demeter {
namespace {

constexpr BenchFlags kSharedOnly{};
constexpr BenchFlags kOwnsFaults{.owns_faults = true};

// Parses `args` (program name excluded) under `flags`; returns the error.
std::string Parse(const std::vector<std::string>& args, const BenchFlags& flags,
                  BenchScale* scale, bool* help = nullptr) {
  std::vector<std::string> storage = {"bench"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) {
    argv.push_back(arg.data());
  }
  bool help_given = false;
  const std::string error = ParseBenchArgs(static_cast<int>(argv.size()), argv.data(), flags,
                                           scale, help != nullptr ? help : &help_given);
  return error;
}

std::string ParseError(const std::vector<std::string>& args, const BenchFlags& flags) {
  BenchScale scale;
  return Parse(args, flags, &scale);
}

TEST(BenchFlagsTest, RejectsUnknownFlag) {
  EXPECT_EQ(ParseError({"--smoke", "--bogus"}, kSharedOnly), "unrecognized argument '--bogus'");
  // A value flag without its '=' is not the flag.
  EXPECT_EQ(ParseError({"--jobs"}, kSharedOnly), "unrecognized argument '--jobs'");
}

TEST(BenchFlagsTest, RejectsSmokeWithFull) {
  EXPECT_EQ(ParseError({"--smoke", "--full"}, kSharedOnly),
            "--smoke and --full are mutually exclusive");
  EXPECT_EQ(ParseError({"--full", "--jobs=2", "--smoke"}, kClusterFleetFlags),
            "--smoke and --full are mutually exclusive");
}

TEST(BenchFlagsTest, RejectsNonPositiveCounts) {
  for (const char* jobs : {"--jobs=0", "--jobs=-3", "--jobs=two", "--jobs=", "--jobs=4x",
                           "--jobs=99999999999"}) {
    EXPECT_NE(ParseError({jobs}, kSharedOnly).find("--jobs needs a positive integer"),
              std::string::npos)
        << jobs;
  }
  EXPECT_NE(ParseError({"--shards=0"}, kSharedOnly).find("--shards needs a positive integer"),
            std::string::npos);
}

TEST(BenchFlagsTest, RejectsFaultsWhenBenchOwnsItsSchedule) {
  EXPECT_EQ(ParseError({"--faults=bdrop=0.1"}, kOwnsFaults),
            "this bench owns its fault schedule; drop --faults");
  EXPECT_EQ(ParseError({"--smoke", "--faults=bdrop=0.1"}, kAvailabilityFlags),
            "this bench owns its fault schedule; drop --faults");
  // Elsewhere the spec is parsed, and a malformed one is rejected.
  EXPECT_EQ(ParseError({"--faults=bdrop=0.1"}, kSharedOnly), "");
  EXPECT_NE(ParseError({"--faults=bogus=1"}, kSharedOnly).find("bad --faults spec"),
            std::string::npos);
}

TEST(BenchFlagsTest, ClusterFleetRejectsFleetsItCannotEvacuate) {
  const std::string error = ParseError({"--smoke", "--fleet=4x1"}, kClusterFleetFlags);
  EXPECT_NE(error.find("--fleet needs VxH with H >= 2"), std::string::npos) << error;
  EXPECT_NE(error.find("'4x1'"), std::string::npos) << error;
  for (const char* fleet : {"--fleet=0x2", "--fleet=5x2", "--fleet=8", "--fleet=x", "--fleet=8x2y",
                            "--fleet=8x99999999999"}) {
    EXPECT_NE(ParseError({fleet}, kClusterFleetFlags), "") << fleet;
  }
  EXPECT_EQ(ParseError({"--fleet=6x3"}, kClusterFleetFlags), "");
  EXPECT_NE(ParseError({"--placement=worst-fit"}, kClusterFleetFlags).find("--placement needs"),
            std::string::npos);
}

TEST(BenchFlagsTest, AvailabilityRejectsOddHostCount) {
  const std::string error = ParseError({"--fleet=6x3"}, kAvailabilityFlags);
  EXPECT_NE(error.find("even"), std::string::npos) << error;
  EXPECT_EQ(ParseError({"--fleet=8x4"}, kAvailabilityFlags), "");
  // Availability sweeps every placement policy itself.
  EXPECT_EQ(ParseError({"--placement=spread"}, kAvailabilityFlags),
            "unrecognized argument '--placement=spread'");
}

TEST(BenchFlagsTest, FleetFlagsAreOptIn) {
  EXPECT_EQ(ParseError({"--fleet=8x2"}, kSharedOnly), "unrecognized argument '--fleet=8x2'");
  EXPECT_EQ(ParseError({"--placement=spread"}, kOwnsFaults),
            "unrecognized argument '--placement=spread'");
}

TEST(BenchFlagsTest, HelpStopsParsing) {
  BenchScale scale;
  bool help = false;
  EXPECT_EQ(Parse({"--help", "--bogus"}, kSharedOnly, &scale, &help), "");
  EXPECT_TRUE(help);
  EXPECT_NE(Parse({"--bogus", "--help"}, kSharedOnly, &scale, &help), "");
  EXPECT_FALSE(help);
}

TEST(BenchFlagsTest, OutputPathsAreProbedForWriting) {
  const std::string out = ::testing::TempDir() + "bench_flags_test.jsonl";
  const std::string trace = ::testing::TempDir() + "bench_flags_test.trace";
  BenchScale scale;
  EXPECT_EQ(Parse({"--out=" + out, "--trace=" + trace}, kSharedOnly, &scale), "");
  EXPECT_EQ(scale.out, out);
  EXPECT_EQ(scale.trace, trace);
  std::remove(out.c_str());
  std::remove(trace.c_str());
  EXPECT_EQ(ParseError({"--out="}, kSharedOnly), "--out needs a file path");
  EXPECT_NE(ParseError({"--trace=/nonexistent-dir/t.json"}, kSharedOnly).find("cannot open"),
            std::string::npos);
}

// Flag sets that were valid before BenchFlags existed, with the fields they
// parsed to then (the fleet benches pre-filtered --fleet and --placement
// out of argv and picked their fleet defaults themselves).
struct ValidCase {
  const BenchFlags* flags;
  std::vector<std::string> args;
  uint64_t vm_mib;
  uint64_t transactions;
  int vcpus;
  int concurrent_vms;
  int jobs;
  int shards;
  bool check;
  bool smoke;
  std::string faults;
  Fleet fleet;
  PlacementPolicy placement;
};

TEST(BenchFlagsTest, ValidFlagSetsParseAsBefore) {
  constexpr PlacementPolicy kFirst = PlacementPolicy::kFirstFit;
  const ValidCase cases[] = {
      {&kSharedOnly, {}, 32, 800000, 2, 3, 0, 1, false, false, "", {}, kFirst},
      {&kSharedOnly, {"--smoke"}, 8, 20000, 2, 2, 0, 1, false, true, "", {}, kFirst},
      {&kSharedOnly, {"--full"}, 128, 2000000, 4, 9, 0, 1, false, false, "", {}, kFirst},
      {&kSharedOnly, {"--smoke", "--smoke", "--check"}, 8, 20000, 2, 2, 0, 1, true, true, "",
       {}, kFirst},
      {&kSharedOnly, {"--full", "--jobs=8", "--shards=4"}, 128, 2000000, 4, 9, 8, 4, false,
       false, "", {}, kFirst},
      {&kSharedOnly, {"--jobs=1", "--smoke", "--faults=bdrop=0.3,stall=2ms/8ms"}, 8, 20000, 2,
       2, 1, 1, false, true, "bdrop=0.3,stall=2000000/8000000", {}, kFirst},
      {&kClusterFleetFlags, {}, 32, 800000, 2, 3, 0, 1, false, false, "", {32, 4}, kFirst},
      {&kClusterFleetFlags, {"--smoke"}, 8, 20000, 2, 2, 0, 1, false, true, "", {8, 2}, kFirst},
      {&kClusterFleetFlags, {"--full"}, 128, 2000000, 4, 9, 0, 1, false, false, "", {128, 8},
       kFirst},
      {&kClusterFleetFlags, {"--smoke", "--fleet=12x4", "--placement=spread"}, 8, 20000, 2, 2,
       0, 1, false, true, "", {12, 4}, PlacementPolicy::kSpread},
      {&kClusterFleetFlags, {"--placement=best-fit", "--fleet=16x8", "--jobs=2"}, 32, 800000, 2,
       3, 2, 1, false, false, "", {16, 8}, PlacementPolicy::kBestFit},
      {&kAvailabilityFlags, {}, 32, 800000, 2, 3, 0, 1, false, false, "", {32, 4}, kFirst},
      {&kAvailabilityFlags, {"--smoke"}, 8, 20000, 2, 2, 0, 1, false, true, "", {8, 2}, kFirst},
      {&kAvailabilityFlags, {"--full"}, 128, 2000000, 4, 9, 0, 1, false, false, "", {64, 8},
       kFirst},
      {&kAvailabilityFlags, {"--smoke", "--fleet=8x4", "--check"}, 8, 20000, 2, 2, 0, 1, true,
       true, "", {8, 4}, kFirst},
  };
  const BenchScale defaults;
  for (const ValidCase& c : cases) {
    std::string label;
    for (const std::string& arg : c.args) {
      label += arg + " ";
    }
    SCOPED_TRACE(label);
    BenchScale scale;
    ASSERT_EQ(Parse(c.args, *c.flags, &scale), "");
    EXPECT_EQ(scale.vm_bytes, c.vm_mib * kMiB);
    EXPECT_EQ(scale.transactions, c.transactions);
    EXPECT_EQ(scale.vcpus, c.vcpus);
    EXPECT_EQ(scale.concurrent_vms, c.concurrent_vms);
    EXPECT_EQ(scale.jobs, c.jobs);
    EXPECT_EQ(scale.shards, c.shards);
    EXPECT_EQ(scale.check_invariants, c.check);
    EXPECT_EQ(scale.smoke, c.smoke);
    EXPECT_EQ(scale.faults.ToSpec(), c.faults);
    EXPECT_EQ(scale.fleet.vms, c.fleet.vms);
    EXPECT_EQ(scale.fleet.hosts, c.fleet.hosts);
    EXPECT_EQ(scale.placement, c.placement);
    EXPECT_TRUE(scale.out.empty());
    EXPECT_TRUE(scale.trace.empty());
    // No flag touches the rest.
    EXPECT_EQ(scale.footprint_ratio, defaults.footprint_ratio);
    EXPECT_EQ(scale.demeter_epoch, defaults.demeter_epoch);
    EXPECT_EQ(scale.demeter_sample_period, defaults.demeter_sample_period);
    EXPECT_EQ(scale.demeter_split_threshold, defaults.demeter_split_threshold);
    EXPECT_EQ(scale.policy_period, defaults.policy_period);
    EXPECT_EQ(scale.timeline_bucket, defaults.timeline_bucket);
  }
}

}  // namespace
}  // namespace demeter
