// Unit tests for dbx-lint (tools/dbx_lint): one positive (violation caught)
// and one negative (clean code passes) case per rule class R1–R6, plus the
// suppression meta-rule, the machine-readable JSON emitter, and the
// comment/string stripper the rules rely on.

#include "tools/dbx_lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace dbx::lint {
namespace {

/// Runs the linter over one in-memory file and returns the rule ids hit.
std::vector<std::string> RulesHit(const std::string& path,
                                  const std::string& content) {
  Linter linter;
  linter.AddFile(path, content);
  std::vector<std::string> rules;
  for (const Finding& f : linter.Run()) rules.push_back(f.rule);
  return rules;
}

bool Contains(const std::vector<std::string>& rules, const std::string& rule) {
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// --- stripper ---------------------------------------------------------------

TEST(StripTest, CommentsAndStringsAreBlanked) {
  std::string code =
      "int x = 1; // rand() in comment\n"
      "const char* s = \"rand()\";\n"
      "/* rand()\n   rand() */ int y;\n"
      "auto r = R\"(rand())\";\n";
  std::string stripped = StripCommentsAndStrings(code);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  // Line structure is preserved so findings keep their line numbers.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(code.begin(), code.end(), '\n'));
  EXPECT_NE(stripped.find("int x = 1;"), std::string::npos);
  EXPECT_NE(stripped.find("int y;"), std::string::npos);
}

TEST(StripTest, EscapesAndDigitSeparators) {
  std::string code =
      "const char* s = \"a\\\"b rand() c\";\n"
      "size_t n = 1'000'000;\n";
  std::string stripped = StripCommentsAndStrings(code);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("1'000'000"), std::string::npos);
}

// --- R1: determinism --------------------------------------------------------

TEST(DeterminismRule, FlagsBannedSources) {
  EXPECT_TRUE(Contains(
      RulesHit("src/core/foo.cc", "int x = rand();\n"), "determinism"));
  EXPECT_TRUE(Contains(
      RulesHit("src/core/foo.cc", "std::random_device rd;\n"), "determinism"));
  EXPECT_TRUE(Contains(
      RulesHit("src/core/foo.cc", "auto t = time(nullptr);\n"), "determinism"));
  EXPECT_TRUE(Contains(
      RulesHit("src/core/foo.cc",
               "auto n = std::chrono::system_clock::now();\n"),
      "determinism"));
}

TEST(DeterminismRule, CleanCodeAndExemptDirsPass) {
  // Rng with an explicit seed is the sanctioned source.
  EXPECT_TRUE(RulesHit("src/core/foo.cc",
                       "Rng rng(7);\nuint64_t v = rng.NextU64();\n")
                  .empty());
  // Identifiers containing the banned substrings are not calls.
  EXPECT_TRUE(
      RulesHit("src/core/foo.cc", "int my_rand(int x);\nint runtime(int);\n")
          .empty());
  // src/obs and bench are outside the rule's scope (wall-clock is their job).
  EXPECT_TRUE(RulesHit("src/obs/clock.cc",
                       "auto t = std::chrono::system_clock::now();\n")
                  .empty());
  EXPECT_TRUE(RulesHit("bench/b.cpp", "auto t = time(nullptr);\n").empty());
}

TEST(UnorderedIterRule, FlagsRangeForOverUnorderedMember) {
  std::string code =
      "std::unordered_map<std::string, int> counts_;\n"
      "void Render() {\n"
      "  for (const auto& [k, v] : counts_) {\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(Contains(RulesHit("src/core/render.cc", code),
                       "unordered-iter"));
}

TEST(UnorderedIterRule, OrderedIterationAndLookupsPass) {
  std::string code =
      "std::unordered_map<std::string, int> counts_;\n"
      "std::map<std::string, int> sorted_;\n"
      "void Render() {\n"
      "  for (const auto& [k, v] : sorted_) {\n"
      "  }\n"
      "  auto it = counts_.find(\"x\");\n"
      "}\n";
  EXPECT_TRUE(RulesHit("src/core/render.cc", code).empty());
}

// --- R2: Status discipline --------------------------------------------------

TEST(NodiscardRule, FlagsUnannotatedHeaderDecl) {
  EXPECT_TRUE(Contains(
      RulesHit("src/core/api.h", "Status DoThing(int x);\n"), "nodiscard"));
  EXPECT_TRUE(Contains(
      RulesHit("src/core/api.h", "Result<Table> Load(const std::string&);\n"),
      "nodiscard"));
  EXPECT_TRUE(Contains(
      RulesHit("src/core/api.h", "  static Status Check();\n"), "nodiscard"));
}

TEST(NodiscardRule, AnnotatedAndNonFunctionLinesPass) {
  EXPECT_TRUE(
      RulesHit("src/core/api.h", "[[nodiscard]] Status DoThing(int x);\n")
          .empty());
  // Attribute on its own line above the declaration also counts.
  EXPECT_TRUE(RulesHit("src/core/api.h",
                       "[[nodiscard]]\nResult<Table> Load(const T& t);\n")
                  .empty());
  // Members, constructors, returns, and reference accessors are not
  // value-producing declarations.
  EXPECT_TRUE(RulesHit("src/core/api.h",
                       "Status status_;\n"
                       "Status() : code_(Code::kOk) {}\n"
                       "const Status& status() const;\n"
                       "  return Status::OK();\n")
                  .empty());
  // .cc files are out of scope (the contract is on the public surface).
  EXPECT_TRUE(RulesHit("src/core/api.cc", "Status DoThing(int x);\n").empty());
}

TEST(DiscardedStatusRule, FlagsBareCallStatement) {
  Linter linter;
  linter.AddFile("src/core/api.h", "[[nodiscard]] Status DoThing(int x);\n");
  linter.AddFile("src/core/use.cc",
                 "void F() {\n"
                 "  DoThing(1);\n"
                 "}\n");
  std::vector<Finding> findings = linter.Run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "discarded-status");
  EXPECT_EQ(findings[0].file, "src/core/use.cc");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(DiscardedStatusRule, CheckedBoundAndContinuationCallsPass) {
  Linter linter;
  linter.AddFile("src/core/api.h", "[[nodiscard]] Status DoThing(int x);\n");
  linter.AddFile("src/core/use.cc",
                 "Status G() {\n"
                 "  Status st = DoThing(1);\n"
                 "  if (!st.ok()) return st;\n"
                 "  auto chained =\n"
                 "      DoThing(2);\n"
                 "  (void)DoThing(3);\n"
                 "  return DoThing(4);\n"
                 "}\n");
  EXPECT_TRUE(linter.Run().empty());
}

// --- R3: lock discipline ----------------------------------------------------

TEST(LockDisciplineRule, FlagsRawLockOnMutexMember) {
  std::string code =
      "std::mutex mu_;\n"
      "void F() {\n"
      "  mu_.lock();\n"
      "  mu_.unlock();\n"
      "}\n";
  std::vector<std::string> rules = RulesHit("src/core/locky.cc", code);
  EXPECT_EQ(std::count(rules.begin(), rules.end(),
                       std::string("lock-discipline")),
            2);
}

TEST(LockDisciplineRule, GuardsAndNonMutexLockPass) {
  // lock_guard/unique_lock/scoped_lock are the sanctioned forms, and
  // .lock() on a non-mutex (weak_ptr) stays out of scope. The mutex guards
  // annotated state so R6 stays quiet too.
  std::string code =
      "std::mutex mu_;\n"
      "int n_ DBX_GUARDED_BY(mu_) = 0;\n"
      "std::weak_ptr<int> weak_;\n"
      "void F() {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  std::unique_lock<std::mutex> ul(mu_);\n"
      "  auto strong = weak_.lock();\n"
      "}\n";
  EXPECT_TRUE(RulesHit("src/core/locky.cc", code).empty());
}

TEST(LockDisciplineRule, DbxMutexMembersJoinTheRegistry) {
  // The capability wrapper (src/util/mutex.h) is subject to the same
  // discipline as std::mutex: raw lock()/unlock() on a dbx::Mutex member is
  // a finding, MutexLock is the sanctioned form.
  std::string code =
      "dbx::Mutex mu_;\n"
      "int n_ DBX_GUARDED_BY(mu_) = 0;\n"
      "void F() {\n"
      "  mu_.lock();\n"
      "  ++n_;\n"
      "  mu_.unlock();\n"
      "}\n";
  std::vector<std::string> rules = RulesHit("src/core/locky.cc", code);
  EXPECT_EQ(std::count(rules.begin(), rules.end(),
                       std::string("lock-discipline")),
            2);

  std::string clean =
      "dbx::Mutex mu_;\n"
      "int n_ DBX_GUARDED_BY(mu_) = 0;\n"
      "void F() {\n"
      "  MutexLock lock(mu_);\n"
      "  ++n_;\n"
      "}\n";
  EXPECT_TRUE(RulesHit("src/core/locky.cc", clean).empty());
}

// --- R4: layering -----------------------------------------------------------

TEST(LayeringRule, FlagsUpwardIncludes) {
  EXPECT_TRUE(Contains(RulesHit("src/util/helper.cc",
                                "#include \"src/obs/metrics.h\"\n"),
                       "layering"));
  EXPECT_TRUE(Contains(RulesHit("src/util/helper.cc",
                                "#include \"src/core/cad_view.h\"\n"),
                       "layering"));
  EXPECT_TRUE(Contains(RulesHit("src/obs/trace.cc",
                                "#include \"src/query/engine.h\"\n"),
                       "layering"));
}

TEST(LayeringRule, AllowedIncludesPass) {
  EXPECT_TRUE(RulesHit("src/util/helper.cc",
                       "#include <vector>\n"
                       "#include \"src/util/status.h\"\n")
                  .empty());
  EXPECT_TRUE(RulesHit("src/obs/trace.cc",
                       "#include \"src/util/string_util.h\"\n"
                       "#include \"src/obs/trace.h\"\n")
                  .empty());
  // Layers above obs may include anything.
  EXPECT_TRUE(RulesHit("src/core/cad_view.cc",
                       "#include \"src/obs/metrics.h\"\n")
                  .empty());
}

TEST(LayeringRule, ServerIncludesItsWhitelistedLayers) {
  EXPECT_TRUE(RulesHit("src/server/dispatcher.cc",
                       "#include \"src/server/protocol.h\"\n"
                       "#include \"src/explorer/tpfacet_session.h\"\n"
                       "#include \"src/query/engine.h\"\n"
                       "#include \"src/obs/metrics.h\"\n"
                       "#include \"src/util/result.h\"\n")
                  .empty());
  // The server must consume tables through the query/explorer layers, not
  // reach into core or data directly.
  EXPECT_TRUE(Contains(RulesHit("src/server/dispatcher.cc",
                                "#include \"src/core/cad_view.h\"\n"),
                       "layering"));
  EXPECT_TRUE(Contains(RulesHit("src/server/dispatcher.cc",
                                "#include \"src/data/used_cars.h\"\n"),
                       "layering"));
}

TEST(LayeringRule, NothingBelowMayDependOnTheServer) {
  EXPECT_TRUE(Contains(RulesHit("src/query/engine.cc",
                                "#include \"src/server/protocol.h\"\n"),
                       "layering"));
  EXPECT_TRUE(Contains(RulesHit("src/explorer/tpfacet_session.cc",
                                "#include \"src/server/dispatcher.h\"\n"),
                       "layering"));
  EXPECT_TRUE(Contains(RulesHit("src/util/status.cc",
                                "#include \"src/server/transport.h\"\n"),
                       "layering"));
  // Outside src/ the rule does not bite: tests, tools, and benches are the
  // server's intended consumers.
  EXPECT_TRUE(RulesHit("tests/server_test.cc",
                       "#include \"src/server/dispatcher.h\"\n")
                  .empty());
  EXPECT_TRUE(RulesHit("bench/server_load.cpp",
                       "#include \"src/server/client.h\"\n")
                  .empty());
}

TEST(LayeringRule, StorageIncludesItsWhitelistedLayers) {
  EXPECT_TRUE(RulesHit("src/storage/dbxc_backend.cc",
                       "#include \"src/storage/dbxc_format.h\"\n"
                       "#include \"src/relation/table.h\"\n"
                       "#include \"src/obs/metrics.h\"\n"
                       "#include \"src/util/result.h\"\n")
                  .empty());
  // Storage knows nothing of discretization or the CAD View pipeline.
  EXPECT_TRUE(Contains(RulesHit("src/storage/dbxc_format.cc",
                                "#include \"src/stats/discretizer.h\"\n"),
                       "layering"));
  EXPECT_TRUE(Contains(RulesHit("src/storage/dbxc_backend.cc",
                                "#include \"src/core/cad_view.h\"\n"),
                       "layering"));
  // Storage is a leaf: it may not reach up into query/session/server.
  EXPECT_TRUE(Contains(RulesHit("src/storage/mem_backend.cc",
                                "#include \"src/query/engine.h\"\n"),
                       "layering"));
  EXPECT_TRUE(Contains(RulesHit("src/storage/storage.cc",
                                "#include \"src/server/dispatcher.h\"\n"),
                       "layering"));
}

TEST(LayeringRule, OnlyGlueLayersMayIncludeStorage) {
  // The library layers below the engine stay backend-agnostic.
  EXPECT_TRUE(Contains(RulesHit("src/core/cad_view.cc",
                                "#include \"src/storage/storage.h\"\n"),
                       "layering"));
  EXPECT_TRUE(Contains(RulesHit("src/relation/table.cc",
                                "#include \"src/storage/dbxc_format.h\"\n"),
                       "layering"));
  EXPECT_TRUE(Contains(RulesHit("src/data/used_cars.cc",
                                "#include \"src/storage/mem_backend.h\"\n"),
                       "layering"));
  // Engine/session/server glue and everything outside src/ may.
  EXPECT_TRUE(RulesHit("src/query/engine.cc",
                       "#include \"src/storage/storage.h\"\n")
                  .empty());
  EXPECT_TRUE(RulesHit("tools/dbx_serve/main.cc",
                       "#include \"src/storage/storage.h\"\n")
                  .empty());
  EXPECT_TRUE(RulesHit("tests/storage_test.cc",
                       "#include \"src/storage/dbxc_format.h\"\n")
                  .empty());
}

// --- R6: guarded-by coverage ------------------------------------------------

TEST(GuardedByRule, FlagsMutexMemberThatGuardsNothing) {
  for (const char* decl :
       {"std::mutex mu_;", "mutable std::mutex mu_;",
        "std::shared_mutex mu_;", "std::recursive_mutex mu_;",
        "dbx::Mutex mu_;", "mutable Mutex mu_;", "static std::mutex mu_;"}) {
    std::string code = std::string(decl) + "\nint n_ = 0;\n";
    EXPECT_TRUE(Contains(RulesHit("src/core/reg.h", code), "guarded-by"))
        << decl;
  }
}

TEST(GuardedByRule, GuardedMembersAndNonMembersPass) {
  // A single DBX_GUARDED_BY(mu_) sibling satisfies the rule for mu_.
  EXPECT_TRUE(RulesHit("src/core/reg.h",
                       "mutable std::mutex mu_;\n"
                       "int entries_ DBX_GUARDED_BY(mu_) = 0;\n")
                  .empty());
  // PT_GUARDED_BY counts too: the mutex guards the pointee.
  EXPECT_TRUE(RulesHit("src/core/reg.h",
                       "dbx::Mutex mu_;\n"
                       "int* slot_ DBX_PT_GUARDED_BY(mu_) = nullptr;\n")
                  .empty());
  // References, pointers, and lock-holder locals are not mutex members.
  EXPECT_TRUE(RulesHit("src/core/reg.h",
                       "std::mutex& ref_;\n"
                       "std::mutex* ptr_ = nullptr;\n"
                       "MutexLock lock(mu);\n")
                  .empty());
}

TEST(GuardedByRule, ScopeIsSrcOnlyAndPerFile) {
  // tests/, tools/, bench/ declare scratch mutexes freely.
  const std::string code = "std::mutex mu_;\nint n_ = 0;\n";
  EXPECT_TRUE(RulesHit("tests/foo_test.cc", code).empty());
  EXPECT_TRUE(RulesHit("tools/dbx_serve/main.cc", code).empty());
  EXPECT_TRUE(RulesHit("bench/b.cpp", code).empty());
  // The annotation must live in the same file as the declaration: a
  // GUARDED_BY in another file does not cover this one.
  Linter linter;
  linter.AddFile("src/core/a.h", "std::mutex mu_;\n");
  linter.AddFile("src/core/b.h",
                 "std::mutex mu_;\nint n_ DBX_GUARDED_BY(mu_) = 0;\n");
  std::vector<std::string> rules;
  for (const Finding& f : linter.Run()) {
    if (f.rule == "guarded-by") rules.push_back(f.file);
  }
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0], "src/core/a.h");
}

TEST(GuardedByRule, ReasonedAllowByNameOrRuleClassSilencesIt) {
  EXPECT_TRUE(RulesHit("src/core/reg.h",
                       "std::mutex mu_;  // dbx-lint: allow(guarded-by): "
                       "guards the whole struct, annotated at use sites\n")
                  .empty());
  // ISSUE syntax: the rule-class id works as the suppression key too.
  EXPECT_TRUE(RulesHit("src/core/reg.h",
                       "// dbx-lint: allow(R6): capability wrapper\n"
                       "std::mutex mu_;\n")
                  .empty());
}

// --- R5: raw streams --------------------------------------------------------

TEST(RawStreamRule, FlagsRawStreamsInLibraryCode) {
  EXPECT_TRUE(Contains(
      RulesHit("src/query/engine.cc",
               "void F() { std::cerr << \"parse failed\\n\"; }\n"),
      "raw-stream"));
  EXPECT_TRUE(Contains(
      RulesHit("src/server/dispatcher.cc", "std::cout << stats;\n"),
      "raw-stream"));
}

TEST(RawStreamRule, ObsToolsBenchAndTestsOwnTheirStdio) {
  const std::string code = "std::cerr << \"diagnostic\\n\";\n";
  // src/obs is the observability layer itself — exporters write streams.
  EXPECT_FALSE(Contains(RulesHit("src/obs/explain.cc", code), "raw-stream"));
  EXPECT_FALSE(Contains(RulesHit("tools/dbx_serve/main.cc", code),
                        "raw-stream"));
  EXPECT_FALSE(Contains(RulesHit("bench/server_load.cpp", code),
                        "raw-stream"));
  EXPECT_FALSE(Contains(RulesHit("tests/server_test.cc", code),
                        "raw-stream"));
}

TEST(RawStreamRule, IdentifierBoundaryAndCommentsDoNotTrip) {
  // Longer identifiers that merely start with the stream names must pass, as
  // must mentions inside comments and string literals.
  EXPECT_TRUE(RulesHit("src/core/foo.cc",
                       "int std_cerr_count = my::std::cerrx(1);\n")
                  .empty());
  EXPECT_TRUE(RulesHit("src/core/foo.cc",
                       "// std::cerr is banned here\n"
                       "const char* kDoc = \"std::cout << x\";\n")
                  .empty());
}

TEST(RawStreamRule, ReasonedAllowSilencesIt) {
  EXPECT_TRUE(RulesHit("src/query/engine.cc",
                       "std::cerr << \"x\";  // dbx-lint: allow(raw-stream): "
                       "startup diagnostics before the log exists\n")
                  .empty());
}

// --- suppressions -----------------------------------------------------------

TEST(SuppressionTest, ReasonedAllowSilencesFinding) {
  EXPECT_TRUE(RulesHit("src/core/foo.cc",
                       "int x = rand();  // dbx-lint: allow(determinism): "
                       "seed study replays libc stream\n")
                  .empty());
  // Marker alone on the line above covers the next line.
  EXPECT_TRUE(RulesHit("src/core/foo.cc",
                       "// dbx-lint: allow(determinism): replays libc\n"
                       "int x = rand();\n")
                  .empty());
}

TEST(SuppressionTest, UnreasonedOrUnknownSuppressionIsAFinding) {
  std::vector<std::string> rules =
      RulesHit("src/core/foo.cc",
               "int x = rand();  // dbx-lint: allow(determinism)\n");
  EXPECT_TRUE(Contains(rules, "suppression"));
  EXPECT_FALSE(Contains(rules, "determinism"));  // allow still applies

  EXPECT_TRUE(Contains(RulesHit("src/core/foo.cc",
                                "// dbx-lint: allow(not-a-rule): whatever\n"),
                       "suppression"));
  // A suppression for rule A does not silence rule B.
  EXPECT_TRUE(Contains(
      RulesHit("src/core/foo.cc",
               "int x = rand();  // dbx-lint: allow(layering): wrong rule\n"),
      "determinism"));
}

TEST(SuppressionTest, MarkerInsideStringLiteralIsIgnored) {
  // The marker text inside a string literal neither suppresses anything nor
  // is itself a finding — only markers in real comments count. (This linter's
  // own test suite is the motivating case.)
  std::vector<std::string> rules = RulesHit(
      "src/core/foo.cc",
      "const char* kDoc = \"// dbx-lint: allow(determinism)\";\n"
      "int x = rand();\n");
  EXPECT_FALSE(Contains(rules, "suppression"));
  EXPECT_TRUE(Contains(rules, "determinism"));
}

TEST(RegistryTest, EveryRuleClassIsPresent) {
  std::vector<std::string> classes;
  for (const RuleInfo& r : Rules()) classes.push_back(r.rule_class);
  for (const char* want : {"R1", "R2", "R3", "R4", "R5", "R6", "meta"}) {
    EXPECT_TRUE(Contains(classes, want)) << want;
  }
  EXPECT_TRUE(IsKnownRule("determinism"));
  EXPECT_TRUE(IsKnownRule("raw-stream"));
  EXPECT_TRUE(IsKnownRule("guarded-by"));
  // Rule-class ids are accepted wherever rule names are (allow(R6) etc.).
  EXPECT_TRUE(IsKnownRule("R6"));
  EXPECT_FALSE(IsKnownRule("bogus"));
}

// --- JSON output ------------------------------------------------------------

TEST(JsonOutputTest, GoldenArrayMatchesFindings) {
  Linter linter;
  linter.AddFile("src/core/a.cc", "int x = rand();\n");
  std::vector<Finding> findings = linter.Run();
  ASSERT_EQ(findings.size(), 1u);
  const std::string json = FindingsToJson(findings);
  const std::string want =
      "[\n"
      "  {\"file\": \"src/core/a.cc\", \"line\": 1, \"rule\": "
      "\"determinism\", \"message\": \"" +
      findings[0].message + "\"}\n]\n";
  EXPECT_EQ(json, want);
}

TEST(JsonOutputTest, EscapesAndEmptyArray) {
  EXPECT_EQ(FindingsToJson({}), "[]\n");
  Finding f;
  f.file = "src/a\"b.cc";
  f.line = 7;
  f.rule = "determinism";
  f.message = "tab\there\nand \\ quote \"x\"";
  const std::string json = FindingsToJson({f});
  EXPECT_NE(json.find("\"src/a\\\"b.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(json.find("tab\\there\\nand \\\\ quote \\\"x\\\""),
            std::string::npos);
  // Exactly one object, well-formed brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 1);
  EXPECT_EQ(std::count(json.begin(), json.end(), '}'), 1);
}

}  // namespace
}  // namespace dbx::lint
