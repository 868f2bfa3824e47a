// Tests for the dcmt_lint rule engine (tools/lint/). Each seeded fixture in
// tests/lint_fixtures/ carries exactly the violations its name promises; the
// engine must find them under a violation-triggering path and stay quiet when
// the path (or a waiver) sanctions the construct.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/linter.h"

namespace dcmt {
namespace lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path =
      std::string(DCMT_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int CountRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

TEST(LintTest, ConcurrencyFlaggedOutsideCore) {
  const std::string content = ReadFixture("concurrency.cc");
  const auto diags = LintFileContent("src/models/concurrency.cc", content, "");
  // The <mutex> include and the std::mutex token are separate findings.
  EXPECT_GE(CountRule(diags, "concurrency"), 2) << diags.size();
  for (const Diagnostic& d : diags) EXPECT_EQ(d.rule, "concurrency");
}

TEST(LintTest, ConcurrencySanctionedInsideCore) {
  const std::string content = ReadFixture("concurrency.cc");
  const auto diags = LintFileContent("src/core/concurrency.cc", content, "");
  EXPECT_EQ(CountRule(diags, "concurrency"), 0);
}

TEST(LintTest, ConcurrencySanctionedInServeOwningFiles) {
  // Under src/serve/ the sanction is per-file: the engine's
  // queue/dispatcher (DESIGN.md §13) and the router's swap double-buffer
  // (DESIGN.md §16) own primitives.
  const std::string content = ReadFixture("concurrency.cc");
  for (const char* path :
       {"src/serve/engine.cc", "src/serve/engine.h", "src/serve/router.cc",
        "src/serve/router.h"}) {
    const auto diags = LintFileContent(path, content, "");
    EXPECT_EQ(CountRule(diags, "concurrency"), 0) << path;
  }
}

TEST(LintTest, ConcurrencyFlaggedInOtherServeFiles) {
  // The rest of the serving tier is plain value code: a mutex sneaking into
  // frozen_model or any other serve file is a finding, not a sanction.
  const std::string content = ReadFixture("concurrency.cc");
  for (const char* path :
       {"src/serve/frozen_model.cc", "src/serve/scorer_util.cc",
        "src/serve/shard_cache.cc"}) {
    const auto diags = LintFileContent(path, content, "");
    EXPECT_GE(CountRule(diags, "concurrency"), 2) << path;
  }
}

TEST(LintTest, ServeNoBackwardFlaggedUnderServe) {
  const std::string content = ReadFixture("serve_backward.cc");
  const auto diags = LintFileContent("src/serve/serve_backward.cc", content, "");
  // Backward(), EnsureGrad(), ZeroGrad() — one finding each.
  EXPECT_EQ(CountRule(diags, "serve-no-backward"), 3);
}

TEST(LintTest, TapeMutationAllowedOutsideServe) {
  const std::string content = ReadFixture("serve_backward.cc");
  const auto diags =
      LintFileContent("src/models/serve_backward.cc", content, "");
  EXPECT_EQ(CountRule(diags, "serve-no-backward"), 0);
}

TEST(LintTest, RawNewDeleteFlagged) {
  const auto diags = LintFileContent("src/models/raw_new_delete.cc",
                                     ReadFixture("raw_new_delete.cc"), "");
  // One `new`, one `delete`; the `= delete` declaration is not a finding.
  EXPECT_EQ(CountRule(diags, "raw-new-delete"), 2);
}

TEST(LintTest, FloatEqFlaggedOnceIntEqIgnored) {
  const auto diags = LintFileContent("src/models/float_eq.cc",
                                     ReadFixture("float_eq.cc"), "");
  ASSERT_EQ(CountRule(diags, "float-eq"), 1);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintTest, FloatEqSanctionedInKernelLayer) {
  // src/tensor/kernels* is the hand-vectorized micro-kernel layer where
  // exact-identity comparisons are the determinism contract (DESIGN.md §14);
  // the same content that fires above is clean there.
  const auto diags = LintFileContent("src/tensor/kernels.cc",
                                     ReadFixture("float_eq.cc"), "");
  EXPECT_EQ(CountRule(diags, "float-eq"), 0);
  const auto hdr_diags = LintFileContent("src/tensor/kernels.h",
                                         ReadFixture("float_eq.cc"), "");
  EXPECT_EQ(CountRule(hdr_diags, "float-eq"), 0);
}

TEST(LintTest, NondeterminismFlaggedOutsideRandom) {
  const auto diags = LintFileContent("src/models/nondeterminism.cc",
                                     ReadFixture("nondeterminism.cc"), "");
  // rand() call plus the std::mt19937 engine type.
  EXPECT_GE(CountRule(diags, "nondeterminism"), 2);
}

TEST(LintTest, NondeterminismSanctionedInRandomImpl) {
  const auto diags = LintFileContent("src/tensor/random.cc",
                                     ReadFixture("nondeterminism.cc"), "");
  EXPECT_EQ(CountRule(diags, "nondeterminism"), 0);
}

TEST(LintTest, IncludeGuardMismatchFlagged) {
  const auto diags = LintFileContent("src/util/include_guard.h",
                                     ReadFixture("include_guard.h"), "");
  ASSERT_EQ(CountRule(diags, "include-guard"), 1);
  EXPECT_NE(diags[0].message.find("DCMT_UTIL_INCLUDE_GUARD_H_"),
            std::string::npos)
      << diags[0].message;
}

TEST(LintTest, IncludeGuardAcceptsConventionalGuard) {
  const std::string content =
      "#ifndef DCMT_UTIL_GOOD_H_\n"
      "#define DCMT_UTIL_GOOD_H_\n"
      "#endif\n";
  const auto diags = LintFileContent("src/util/good.h", content, "");
  EXPECT_EQ(CountRule(diags, "include-guard"), 0);
}

TEST(LintTest, DuplicateIncludeFlagged) {
  const auto diags = LintFileContent("src/models/duplicate_include.cc",
                                     ReadFixture("duplicate_include.cc"), "");
  ASSERT_EQ(CountRule(diags, "duplicate-include"), 1);
  EXPECT_EQ(diags[0].line, 4);  // the second <vector>
}

TEST(LintTest, UnregisteredTestFlagged) {
  const std::string cmake = "dcmt_add_test(tensor_test)\n";
  const auto diags = LintFileContent("tests/unregistered_test.cc",
                                     ReadFixture("unregistered_test.cc"), cmake);
  EXPECT_EQ(CountRule(diags, "test-registration"), 1);
}

TEST(LintTest, RegisteredTestPasses) {
  const std::string cmake = "dcmt_add_test(unregistered_test)\n";
  const auto diags = LintFileContent("tests/unregistered_test.cc",
                                     ReadFixture("unregistered_test.cc"), cmake);
  EXPECT_EQ(CountRule(diags, "test-registration"), 0);
}

TEST(LintTest, StreamIoFlaggedInShardedDataPath) {
  const std::string content = ReadFixture("stream_io.cc");
  // The <fstream> include, the ofstream token, and fopen/fclose each fire
  // under both stream-io path prefixes.
  const auto shard = LintFileContent("src/data/shard_io.cc", content, "");
  EXPECT_GE(CountRule(shard, "stream-io"), 4);
  const auto stream = LintFileContent("src/data/stream.cc", content, "");
  EXPECT_GE(CountRule(stream, "stream-io"), 4);
}

TEST(LintTest, StreamIoSanctionedOutsideShardedDataPath) {
  // The same content is clean elsewhere — data/csv.cc legitimately uses
  // <fstream>, and so do the tools.
  const std::string content = ReadFixture("stream_io.cc");
  const auto diags = LintFileContent("src/data/csv.cc", content, "");
  EXPECT_EQ(CountRule(diags, "stream-io"), 0);
  const auto model_diags = LintFileContent("src/models/io_helper.cc", content, "");
  EXPECT_EQ(CountRule(model_diags, "stream-io"), 0);
}

TEST(LintTest, WaiverCoversOnlyItsOwnAndNextLine) {
  const auto diags = LintFileContent("src/models/waived.cc",
                                     ReadFixture("waived.cc"), "");
  // Line 4 is waived by the directive on line 3; line 5 is not.
  ASSERT_EQ(CountRule(diags, "float-eq"), 1);
  EXPECT_EQ(diags[0].line, 5);
}

TEST(LintTest, WaiverForDifferentRuleDoesNotSuppress) {
  const std::string content =
      "// dcmt-lint: allow(concurrency) wrong rule\n"
      "bool IsZero(float x) { return x == 0.0f; }\n";
  const auto diags = LintFileContent("src/models/x.cc", content, "");
  EXPECT_EQ(CountRule(diags, "float-eq"), 1);
}

TEST(LintTest, CleanFixtureIsClean) {
  const auto diags = LintFileContent("src/models/clean.cc",
                                     ReadFixture("clean.cc"), "");
  std::string listing;
  for (const Diagnostic& d : diags) listing += d.ToString() + "\n";
  EXPECT_TRUE(diags.empty()) << listing;
}

TEST(LintTest, DiagnosticFormatsAsFileLineRule) {
  Diagnostic d{"src/a.cc", 12, "float-eq", "msg"};
  EXPECT_EQ(d.ToString(), "src/a.cc:12: float-eq: msg");
}

TEST(LintTest, LintTreeOnRealRepoIsClean) {
  // The committed tree itself must lint clean — the same invariant the
  // dcmt_lint_tree ctest entry enforces via the standalone binary.
  const auto diags = LintTree(DCMT_SOURCE_DIR, {"src", "tests", "tools"});
  std::string listing;
  for (const Diagnostic& d : diags) listing += d.ToString() + "\n";
  EXPECT_TRUE(diags.empty()) << listing;
}

}  // namespace
}  // namespace lint
}  // namespace dcmt
