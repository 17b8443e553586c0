// Unit tests for src/common: status, strings, rng, clock, file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "src/common/clock.h"
#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace edna {
namespace {

// --- Status ------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing widget");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing widget");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing widget");
}

TEST(StatusTest, AllConstructorsSetDistinctCodes) {
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(IntegrityViolation("x").code(), StatusCode::kIntegrityViolation);
  EXPECT_EQ(PermissionDenied("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = InvalidArgument("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Status UseMacros(int x, int* out) {
  ASSIGN_OR_RETURN(int h, Half(x));
  RETURN_IF_ERROR(OkStatus());
  *out = h;
  return OkStatus();
}

TEST(StatusOrTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UseMacros(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseMacros(3, &out).code(), StatusCode::kInvalidArgument);
}

// --- Strings -----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, SplitTrimmedDropsEmpties) {
  EXPECT_EQ(StrSplitTrimmed("  a ,  , b ", ','), (std::vector<std::string>{"a", "b"}));
}

TEST(StringsTest, JoinRoundTrips) {
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(StrJoin(parts, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  x y  "), "x y");
  EXPECT_EQ(StrTrim("\t\n"), "");
  EXPECT_EQ(StrTrim(""), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(AsciiLower("AbC"), "abc");
  EXPECT_EQ(AsciiUpper("AbC"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("Hello", "hELLO"));
  EXPECT_FALSE(EqualsIgnoreCase("Hello", "Hell"));
}

TEST(StringsTest, AffixHelpers) {
  EXPECT_TRUE(StartsWith("disguise", "dis"));
  EXPECT_FALSE(StartsWith("dis", "disguise"));
  EXPECT_TRUE(EndsWith("reveal.cc", ".cc"));
  EXPECT_TRUE(Contains("abcdef", "cde"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(StrReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(StrReplaceAll("none here", "x", "y"), "none here");
  EXPECT_EQ(StrReplaceAll("overlap", "", "y"), "overlap");
}

TEST(StringsTest, HexRoundTrip) {
  std::vector<uint8_t> bytes{0x00, 0x0a, 0xff, 0x80};
  std::string hex = BytesToHex(bytes);
  EXPECT_EQ(hex, "000aff80");
  std::vector<uint8_t> back;
  ASSERT_TRUE(HexToBytes(hex, &back));
  EXPECT_EQ(back, bytes);
}

TEST(StringsTest, HexRejectsBadInput) {
  std::vector<uint8_t> out;
  EXPECT_FALSE(HexToBytes("abc", &out));   // odd length
  EXPECT_FALSE(HexToBytes("zz", &out));    // non-hex
  EXPECT_TRUE(HexToBytes("", &out));       // empty is fine
  EXPECT_TRUE(out.empty());
}

TEST(StringsTest, LikeMatchBasics) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_FALSE(LikeMatch("hello", "world"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_FALSE(LikeMatch("hello", "h_llo_"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
}

TEST(StringsTest, LikeMatchBacktracking) {
  EXPECT_TRUE(LikeMatch("aXbXc", "%X%X%"));
  EXPECT_TRUE(LikeMatch("mississippi", "%ss%ss%"));
  EXPECT_FALSE(LikeMatch("mississippi", "%ss%xx%"));
  EXPECT_TRUE(LikeMatch("abc", "%%%abc%%"));
}

TEST(StringsTest, SqlQuoteEscapesQuotes) {
  EXPECT_EQ(SqlQuote("it's"), "'it''s'");
  EXPECT_EQ(SqlQuote(""), "''");
}

TEST(StringsTest, StrFormatWorks) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%zu", static_cast<size_t>(3)), "3");
}

TEST(StringsTest, CountEffectiveLines) {
  EXPECT_EQ(CountEffectiveLines("a\nb\nc"), 3u);
  EXPECT_EQ(CountEffectiveLines("a\n\n  \nb"), 2u);
  EXPECT_EQ(CountEffectiveLines("# comment\n-- also\na"), 1u);
  EXPECT_EQ(CountEffectiveLines(""), 0u);
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 500 draws
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolProbabilityEdges) {
  Rng rng(9);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, StringsHaveRequestedShape) {
  Rng rng(11);
  EXPECT_EQ(rng.NextAlphaString(12).size(), 12u);
  EXPECT_EQ(rng.NextAlnumString(8).size(), 8u);
  std::string word = rng.NextPseudoword(5, 9);
  EXPECT_GE(word.size(), 5u);
  EXPECT_LE(word.size(), 9u);
  EXPECT_TRUE(std::isupper(static_cast<unsigned char>(word[0])));
}

TEST(RngTest, NextBytesLengthAndDeterminism) {
  Rng a(5);
  Rng b(5);
  EXPECT_EQ(a.NextBytes(37), b.NextBytes(37));
  EXPECT_EQ(a.NextBytes(0).size(), 0u);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(77);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(1);  // same id, later fork: must differ
  EXPECT_NE(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

// --- Clock -------------------------------------------------------------------

TEST(ClockTest, SimulatedClockAdvances) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(2 * kDay);
  EXPECT_EQ(clock.Now(), 100 + 2 * kDay);
  clock.Set(5);
  EXPECT_EQ(clock.Now(), 5);
}

TEST(ClockTest, SystemClockIsPlausible) {
  SystemClock clock;
  TimePoint now = clock.Now();
  EXPECT_GT(now, 1'600'000'000);  // after Sep 2020
}

// --- File --------------------------------------------------------------------

class FileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "/edna_file_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { std::system(("rm -rf " + dir_).c_str()); }

  std::string dir_;
};

TEST_F(FileTest, WriteAtomicallyThenReadBack) {
  const std::string path = dir_ + "/f";
  ASSERT_TRUE(WriteFileAtomically(path, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(WriteFileAtomically(path, {5, 6}).ok());
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_EQ(*bytes, (std::vector<uint8_t>{5, 6}));
  auto names = ListDir(dir_);
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(*names, std::vector<std::string>{"f"});  // no temporary left
}

TEST_F(FileTest, PositionalWritesReadsAndTruncate) {
  auto file = File::Open(dir_ + "/f", File::Mode::kReadWrite);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE(file->WriteAt(0, {1, 2, 3}).ok());
  ASSERT_TRUE(file->WriteAt(3, {4, 5}).ok());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(*file->Size(), 5u);
  EXPECT_EQ(*file->ReadAt(1, 3), (std::vector<uint8_t>{2, 3, 4}));
  // Reading past the end is a short read, not a shorter result.
  EXPECT_EQ(file->ReadAt(4, 2).status().code(), StatusCode::kInternal);
  ASSERT_TRUE(file->Truncate(2).ok());
  EXPECT_EQ(*file->Size(), 2u);
}

// ENOENT is kNotFound; anything else is kInternal naming the path.
TEST_F(FileTest, ErrnoMapping) {
  const std::string missing = dir_ + "/missing";
  EXPECT_EQ(ReadFile(missing).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(File::Open(missing, File::Mode::kRead).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ListDir(missing).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(RemoveFile(missing).code(), StatusCode::kNotFound);
  EXPECT_EQ(MakeDir(missing + "/child").code(), StatusCode::kNotFound);

  const Status is_dir = ReadFile(dir_).status();
  EXPECT_EQ(is_dir.code(), StatusCode::kInternal);
  EXPECT_NE(is_dir.message().find(dir_), std::string::npos) << is_dir;
}

TEST_F(FileTest, MakeDirListDirRemoveFile) {
  ASSERT_TRUE(MakeDir(dir_ + "/sub").ok());
  ASSERT_TRUE(MakeDir(dir_ + "/sub").ok());  // already there
  ASSERT_TRUE(WriteFileAtomically(dir_ + "/sub/b", {}).ok());
  ASSERT_TRUE(WriteFileAtomically(dir_ + "/sub/a", {}).ok());
  EXPECT_EQ(*ListDir(dir_ + "/sub"), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(RemoveFile(dir_ + "/sub/a").ok());
  EXPECT_EQ(*ListDir(dir_ + "/sub"), std::vector<std::string>{"b"});
}

}  // namespace
}  // namespace edna
