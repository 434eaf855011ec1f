//===- tests/ToolingTest.cpp - Printer, disasm, stats, support tests --------===//
//
// Part of the swa-sched project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "analysis/Stats.h"
#include "sa/Printer.h"
#include "support/Error.h"
#include "support/MathExtras.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "tests/TestConfigs.h"
#include "usl/Compiler.h"
#include "usl/Disasm.h"
#include "usl/Parser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

using namespace swa;

//===----------------------------------------------------------------------===//
// Support
//===----------------------------------------------------------------------===//

TEST(Support, GcdLcmCeilDiv) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(0, 7), 7);
  EXPECT_EQ(gcd64(7, 0), 7);
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(25, 50), 50);
  EXPECT_EQ(lcm64(7, 13), 91);
  EXPECT_EQ(ceilDiv64(0, 5), 0);
  EXPECT_EQ(ceilDiv64(10, 5), 2);
  EXPECT_EQ(ceilDiv64(11, 5), 3);
}

TEST(Support, OverflowChecks) {
  int64_t Out;
  EXPECT_FALSE(mulOverflow64(1 << 20, 1 << 20, Out));
  EXPECT_EQ(Out, int64_t(1) << 40);
  EXPECT_TRUE(mulOverflow64(int64_t(1) << 62, 4, Out));
  EXPECT_TRUE(addOverflow64(std::numeric_limits<int64_t>::max(), 1, Out));
}

TEST(Support, StringHelpers) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(trim("  a b \n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(endsWith("foobar", "bar"));
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(isIdentifier("_x9"));
  EXPECT_FALSE(isIdentifier("9x"));
  EXPECT_FALSE(isIdentifier(""));
}

TEST(Support, ParseInt64) {
  int64_t V;
  EXPECT_TRUE(parseInt64("42", V));
  EXPECT_EQ(V, 42);
  EXPECT_TRUE(parseInt64(" -17 ", V));
  EXPECT_EQ(V, -17);
  EXPECT_TRUE(parseInt64("+3", V));
  EXPECT_EQ(V, 3);
  EXPECT_FALSE(parseInt64("", V));
  EXPECT_FALSE(parseInt64("12x", V));
  EXPECT_FALSE(parseInt64("-", V));
  EXPECT_FALSE(parseInt64("99999999999999999999", V));
}

TEST(Support, RngIsDeterministicAndUniformish) {
  Rng A(5), B(5);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());

  Rng R(9);
  int Buckets[10] = {0};
  for (int I = 0; I < 10000; ++I)
    ++Buckets[R.uniformInt(0, 9)];
  for (int I = 0; I < 10; ++I) {
    EXPECT_GT(Buckets[I], 800);
    EXPECT_LT(Buckets[I], 1200);
  }

  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Support, ErrorAndResult) {
  Error Ok = Error::success();
  EXPECT_FALSE(Ok);
  Error Bad = Error::failure("it broke");
  EXPECT_TRUE(Bad.isFailure());
  EXPECT_EQ(Bad.withContext("step 2").message(), "step 2: it broke");

  Result<int> R = 5;
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(*R, 5);
  Result<int> F = Error::failure("no");
  EXPECT_FALSE(F.ok());
  EXPECT_EQ(F.error().message(), "no");
}

//===----------------------------------------------------------------------===//
// Printer / DOT
//===----------------------------------------------------------------------===//

TEST(Printer, DumpsAutomataReadably) {
  auto Model = core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok());
  const sa::Network &Net = *Model->Net;
  std::string Text = sa::printAutomaton(Net, *Net.Automata[0]);
  EXPECT_NE(Text.find("automaton task_0_0_t1"), std::string::npos);
  EXPECT_NE(Text.find("Release"), std::string::npos);
  EXPECT_NE(Text.find("[committed]"), std::string::npos);
  EXPECT_NE(Text.find("[initial]"), std::string::npos);
  EXPECT_NE(Text.find("finished"), std::string::npos);

  std::string All = sa::printNetwork(Net);
  EXPECT_NE(All.find("ts_0"), std::string::npos);
  EXPECT_NE(All.find("cs_0"), std::string::npos);
}

TEST(Printer, EmitsValidLookingDot) {
  auto Model = core::buildModel(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Model.ok());
  const sa::Network &Net = *Model->Net;
  std::string Dot = sa::toDot(Net, *Net.Automata[0]);
  EXPECT_EQ(Dot.rfind("digraph", 0), 0u);
  EXPECT_NE(Dot.find("->"), std::string::npos);
  EXPECT_EQ(Dot.back(), '\n');
  // Balanced braces.
  EXPECT_EQ(std::count(Dot.begin(), Dot.end(), '{'),
            std::count(Dot.begin(), Dot.end(), '}'));
}

TEST(Disasm, ListsCompiledCode) {
  usl::Declarations D;
  ASSERT_FALSE(usl::parseDeclarations("int x;", D, false).isFailure());
  auto E = usl::parseIntExpr("x < 3 ? x + 1 : 0", D);
  ASSERT_TRUE(E.ok());
  usl::BindTarget Target;
  usl::Binder B(Target);
  B.mapStore(D.lookup("x"), 0);
  auto Bound = B.bindExpr(**E);
  ASSERT_TRUE(Bound.ok());
  auto Code = usl::compileExpr(**Bound);
  ASSERT_TRUE(Code.ok());
  std::string Listing = usl::disassemble(*Code);
  EXPECT_NE(Listing.find("ld.s"), std::string::npos);
  EXPECT_NE(Listing.find("jz"), std::string::npos);
  EXPECT_NE(Listing.find("halt"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

TEST(Stats, BusyTimeMatchesDemandWhenSchedulable) {
  auto Out = analysis::analyzeConfiguration(testcfg::twoTasksOneCore());
  ASSERT_TRUE(Out.ok());
  analysis::TraceStats S =
      analysis::computeStats(Out->Model.Config, Out->Analysis);
  ASSERT_EQ(S.Cores.size(), 1u);
  // All jobs completed: busy ticks == 2*3 + 5 = 11 over L = 20.
  EXPECT_EQ(S.Cores[0].BusyTicks, 11);
  EXPECT_NEAR(S.Cores[0].BusyShare, 11.0 / 20.0, 1e-9);
  ASSERT_EQ(S.Tasks.size(), 2u);
  EXPECT_EQ(S.Tasks[0].Completed, 2);
  EXPECT_EQ(S.Tasks[0].Best, 3);
  EXPECT_EQ(S.Tasks[0].Worst, 3);
  EXPECT_EQ(S.Tasks[1].Worst, 8);
}

TEST(Stats, RenderAndCsv) {
  auto Out = analysis::analyzeConfiguration(testcfg::preemptionShowcase());
  ASSERT_TRUE(Out.ok());
  analysis::TraceStats S =
      analysis::computeStats(Out->Model.Config, Out->Analysis);
  std::string Text = analysis::renderStats(Out->Model.Config, S);
  EXPECT_NE(Text.find("cores:"), std::string::npos);
  EXPECT_NE(Text.find("task responses:"), std::string::npos);

  std::string Csv = analysis::jobsToCsv(Out->Model.Config, Out->Analysis);
  EXPECT_NE(Csv.find("task,job,release"), std::string::npos);
  // lo runs [2,10) and [12,19): both intervals listed.
  EXPECT_NE(Csv.find("2-10 12-19"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Example CLIs (build-time binary paths)
//===----------------------------------------------------------------------===//

/// Runs \p Bin with each of \p Cases and expects a usage error: exit 1
/// with nothing on stdout, so no bad number silently becomes a default, a
/// prefix or a huge run.
void expectUsageErrors(const char *Bin,
                       std::initializer_list<const char *> Cases) {
  for (const char *Args : Cases) {
    std::string Cmd = std::string(Bin) + " " + Args + " 2>/dev/null";
    FILE *P = popen(Cmd.c_str(), "r");
    ASSERT_NE(P, nullptr) << Args;
    std::string Out;
    char Buf[256];
    while (size_t N = fread(Buf, 1, sizeof Buf, P))
      Out.append(Buf, N);
    int Status = pclose(P);
    ASSERT_TRUE(WIFEXITED(Status)) << Args;
    EXPECT_EQ(WEXITSTATUS(Status), 1) << Args;
    EXPECT_EQ(Out, "") << Args;
  }
}

#ifdef SWA_VERIFY_COMPONENTS_BIN
TEST(VerifyComponentsCli, RejectsMalformedNumbers) {
  expectUsageErrors(SWA_VERIFY_COMPONENTS_BIN,
                    {"abc", "5x", "0", "-1", "+5", "21",
                     "99999999999999999999", "5 6"});
}
#endif // SWA_VERIFY_COMPONENTS_BIN

#ifdef SWA_PROFILE_RUN_BIN
TEST(ProfileRunCli, RejectsMalformedNumbers) {
  expectUsageErrors(SWA_PROFILE_RUN_BIN,
                    {"--jobs abc", "--jobs 2OO", "--jobs 0", "--jobs -1",
                     "--jobs 1e3", "--jobs 1000001",
                     "--jobs 99999999999999999999", "--jobs", "--json",
                     "--jbos 10"});
}
#endif // SWA_PROFILE_RUN_BIN

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
