// Unit tests for the support layer: rng, json, strings, table, cli,
// thread_pool, retry, lockfile staleness.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "support/cli.hpp"
#include "support/cpu.hpp"
#include "support/json.hpp"
#include "support/lockfile.hpp"
#include "support/retry.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace gpudiff::support;

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(77);
  const auto first = a.next();
  a.next();
  a.reseed(77);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
    EXPECT_EQ(rng.below(1), 0u);
    EXPECT_EQ(rng.below(0), 0u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(11);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
  EXPECT_EQ(rng.range(5, 5), 5);
  EXPECT_EQ(rng.range(7, 3), 7);  // degenerate: lo returned
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(12);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(13);
  const std::uint32_t weights[] = {0, 5, 0, 5};
  for (int i = 0; i < 1000; ++i) {
    const auto pick = rng.weighted(weights, 4);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(Rng, WeightedProportions) {
  Rng rng(14);
  const std::uint32_t weights[] = {1, 9};
  int ones = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.weighted(weights, 2) == 1) ++ones;
  EXPECT_NEAR(ones / 20000.0, 0.9, 0.02);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(55);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1.next() == c2.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null"), Json(nullptr));
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, DoubleRoundTripsExactly) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-308, 1.7976931348623157e308,
                           -2.2250738585072014e-308, 3.141592653589793};
  for (double v : values) {
    const Json j(v);
    const Json back = Json::parse(j.dump());
    EXPECT_EQ(back.as_double(), v) << j.dump();
  }
}

TEST(Json, IntsStayInts) {
  const Json j = Json::parse("[1, 2.0, 3]");
  EXPECT_EQ(j.as_array()[0].type(), Json::Type::Int);
  EXPECT_EQ(j.as_array()[1].type(), Json::Type::Double);
  EXPECT_EQ(j.as_array()[2].type(), Json::Type::Int);
}

TEST(Json, NestedDocumentRoundTrip) {
  const char* text =
      R"({"a": [1, 2, {"b": "x"}], "c": {"d": null, "e": [true, false]}})";
  const Json j = Json::parse(text);
  EXPECT_EQ(Json::parse(j.dump()), j);
  EXPECT_EQ(Json::parse(j.dump(2)), j);  // pretty-printing parses back too
}

TEST(Json, ObjectAccessors) {
  Json j = Json::object();
  j["x"] = 5;
  j["y"] = "str";
  EXPECT_TRUE(j.contains("x"));
  EXPECT_FALSE(j.contains("z"));
  EXPECT_EQ(j.at("x").as_int(), 5);
  EXPECT_EQ(j.get_or("z", Json(9)).as_int(), 9);
  EXPECT_THROW(j.at("z"), std::runtime_error);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]2"), JsonParseError);
  EXPECT_THROW(Json::parse("tru"), JsonParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(Json::parse("[1] trailing"), JsonParseError);
}

TEST(Json, NestingCapIsANamedError) {
  // Alternating arrays and objects, `depth` containers deep around a 1.
  const auto nested = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += i % 2 ? "{\"k\":" : "[";
    text += "1";
    for (int i = depth - 1; i >= 0; --i) text += i % 2 ? "}" : "]";
    return text;
  };
  const Json at_cap = Json::parse(nested(kMaxJsonDepth));
  EXPECT_EQ(at_cap.dump(), nested(kMaxJsonDepth));
  const std::string named =
      "nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels";
  try {
    (void)Json::parse(nested(kMaxJsonDepth + 1));
    FAIL() << "nesting past the cap must not parse";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
  }
  // The line that used to exhaust the stack of the daemons' parser.
  try {
    (void)Json::parse(std::string(2000000, '['));
    FAIL() << "2,000,000 '[' must not parse";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
  }
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(Json, DeterministicKeyOrder) {
  Json a = Json::object();
  a["zebra"] = 1;
  a["apple"] = 2;
  EXPECT_EQ(a.dump(), R"({"apple":2,"zebra":1})");
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(INFINITY).dump(), "null");
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(format("%.3f", 1.5), "1.500");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\r "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_TRUE(ends_with("test.cu", ".cu"));
  EXPECT_FALSE(ends_with("test.hip", ".cu"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("xyx", "y", ""), "xx");
  EXPECT_EQ(replace_all("none", "zz", "q"), "none");
}

TEST(Strings, JoinAndIndent) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(indent("a\nb\n", 2), "  a\n  b\n");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(247500), "247,500");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, RendersHeaderAndRows) {
  Table t("TITLE");
  t.set_header({"A", "B"});
  t.add_row({"1", "22"});
  t.add_rule();
  t.add_row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("TITLE"), std::string::npos);
  EXPECT_NE(out.find(" A "), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  // Every body line has the same width.
  const auto lines = split(out, '\n');
  std::size_t width = lines[1].size();
  for (std::size_t i = 1; i + 1 < lines.size(); ++i)
    EXPECT_EQ(lines[i].size(), width) << "line " << i;
}

TEST(Table, HandlesRaggedRows) {
  Table t;
  t.set_header({"A"});
  t.add_row({"1", "2", "3"});
  EXPECT_NO_THROW(t.render());
}

// ---------------------------------------------------------------------------
// CliParser
// ---------------------------------------------------------------------------

TEST(Cli, ParsesLongAndShortOptions) {
  CliParser cli("prog", "test");
  cli.add_int("count", 'c', "a count", 10);
  cli.add_string("name", 'n', "a name", "default");
  cli.add_flag("verbose", "noisy");
  const char* argv[] = {"prog", "--count", "42", "-n", "zed", "--verbose"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get_int("count"), 42);
  EXPECT_EQ(cli.get_string("name"), "zed");
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, EqualsSyntaxAndDefaults) {
  CliParser cli("prog", "test");
  cli.add_int("n", 0, "n", 7);
  cli.add_double("ratio", 0, "r", 0.5);
  const char* argv[] = {"prog", "--n=3"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("n"), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.5);
}

TEST(Cli, HelpShowsEveryDefault) {
  CliParser cli("prog", "test");
  cli.add_int("n", 0, "n", 7);
  cli.add_double("ratio", 0, "r", 0.25);
  cli.add_string("name", 0, "a name", "zed");
  const std::string help = cli.help();
  EXPECT_NE(help.find("--n <int> (default 7)"), std::string::npos) << help;
  EXPECT_NE(help.find("--ratio <num> (default 0.25)"), std::string::npos)
      << help;
  EXPECT_NE(help.find("--name <str> (default zed)"), std::string::npos)
      << help;
}

TEST(Cli, RejectsBadInput) {
  CliParser cli("prog", "test");
  cli.add_int("n", 0, "n", 7);
  const char* bad_value[] = {"prog", "--n", "xyz"};
  EXPECT_FALSE(cli.parse(3, bad_value));
  CliParser cli2("prog", "test");
  cli2.add_int("n", 0, "n", 7);
  const char* unknown[] = {"prog", "--what"};
  EXPECT_FALSE(cli2.parse(2, unknown));
  CliParser cli3("prog", "test");
  cli3.add_int("n", 0, "n", 7);
  const char* missing[] = {"prog", "--n"};
  EXPECT_FALSE(cli3.parse(2, missing));
}

TEST(Cli, UndeclaredAccessThrows) {
  CliParser cli("prog", "test");
  cli.add_flag("f", "flag");
  EXPECT_THROW(cli.get_int("f"), std::logic_error);
  EXPECT_THROW(cli.get_flag("nope"), std::logic_error);
}

// ---------------------------------------------------------------------------
// parallel_for
// ---------------------------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; }, 4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, WorksSingleThreaded) {
  int sum = 0;
  parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 4950);
}

TEST(ParallelFor, HandlesZeroElements) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100, [](std::size_t i) {
        if (i == 37) throw std::runtime_error("boom");
      }, 4),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// RetryPolicy — the backoff schedule is a pure function of (policy,
// attempt); these tests pin it so no coordinator-path retry loop can
// silently change cadence.
// ---------------------------------------------------------------------------

TEST(Retry, JitterlessScheduleIsCappedExponential) {
  RetryPolicy p;
  p.initial_backoff_seconds = 0.1;
  p.max_backoff_seconds = 1.0;
  p.multiplier = 2.0;
  p.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(p.backoff_for(0), 0.1);
  EXPECT_DOUBLE_EQ(p.backoff_for(1), 0.2);
  EXPECT_DOUBLE_EQ(p.backoff_for(2), 0.4);
  EXPECT_DOUBLE_EQ(p.backoff_for(3), 0.8);
  EXPECT_DOUBLE_EQ(p.backoff_for(4), 1.0);   // capped
  EXPECT_DOUBLE_EQ(p.backoff_for(50), 1.0);  // stays capped, no overflow
  EXPECT_DOUBLE_EQ(p.backoff_for(-3), 0.1);  // clamped to attempt 0
}

TEST(Retry, JitterIsDeterministicAndBounded) {
  RetryPolicy p;
  p.initial_backoff_seconds = 0.1;
  p.max_backoff_seconds = 10.0;
  p.jitter_fraction = 0.25;
  p.jitter_seed = 42;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const double base = std::min(10.0, 0.1 * std::pow(2.0, attempt));
    const double d = p.backoff_for(attempt);
    EXPECT_EQ(d, p.backoff_for(attempt)) << "jitter must be deterministic";
    EXPECT_GE(d, base * 0.75 - 1e-12) << "attempt " << attempt;
    EXPECT_LT(d, base * 1.25 + 1e-12) << "attempt " << attempt;
  }
  // Different attempts draw different jitter (the whole point of it).
  EXPECT_NE(p.backoff_for(3) / 0.8, p.backoff_for(4) / 1.6);
}

TEST(Retry, SeededForDecoheresWorkersButStaysDeterministic) {
  RetryPolicy base;
  base.jitter_fraction = 0.25;
  const RetryPolicy a = base.seeded_for("host-1");
  const RetryPolicy b = base.seeded_for("host-2");
  EXPECT_NE(a.jitter_seed, b.jitter_seed);
  EXPECT_EQ(a.jitter_seed, base.seeded_for("host-1").jitter_seed);
  // Distinct seeds produce distinct schedules (no thundering herd).
  bool any_differ = false;
  for (int attempt = 0; attempt < 8; ++attempt)
    any_differ = any_differ || a.backoff_for(attempt) != b.backoff_for(attempt);
  EXPECT_TRUE(any_differ);
}

TEST(Retry, InterruptibleSleepHonorsCancellation) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(interruptible_sleep(30.0, [] { return true; }));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 5.0) << "cancellation must cut the sleep short";
  EXPECT_TRUE(interruptible_sleep(0.0, nullptr));
}

// ---------------------------------------------------------------------------
// CPU feature probe
// ---------------------------------------------------------------------------

TEST(Cpu, FeatureProbeIsStableAndSelfConsistent) {
  const CpuFeatures& a = cpu_features();
  const CpuFeatures& b = cpu_features();
  EXPECT_EQ(&a, &b) << "probed once per process";
  EXPECT_FALSE(a.to_string().empty());
#if !defined(__x86_64__) && !defined(_M_X64)
  EXPECT_FALSE(a.avx2 || a.fma || a.os_ymm || a.xinuse)
      << "non-x86 hosts must report no features";
#endif
}

// ---------------------------------------------------------------------------
// Lockfile staleness under clock skew
// ---------------------------------------------------------------------------

TEST(Lockfile, FileAgeClampsFutureMtimesToFresh) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gpudiff_skew_test").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  // A skewed peer's clock stamped this file two minutes in the future
  // (age_file with a negative offset pushes the mtime forward).  The age
  // must clamp to "fresh now", not go negative: negative means "no file",
  // and a scheduler confusing skew with absence would instantly steal a
  // live worker's claim.
  ASSERT_TRUE(age_file(path, -120.0));
  EXPECT_DOUBLE_EQ(file_age_seconds(path), 0.0);
  remove_file(path);
  EXPECT_LT(file_age_seconds(path), 0.0) << "missing file stays negative";
}


// ---------------------------------------------------------------------------
// Atomic writes from concurrent writers of one path
// ---------------------------------------------------------------------------

/// A fresh, empty directory under the system temp dir, removed on exit.
struct FreshDir {
  std::filesystem::path path;
  explicit FreshDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             (name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~FreshDir() { std::filesystem::remove_all(path); }
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(path))
      out.push_back(entry.path().filename().string());
    return out;
  }
};

TEST(AtomicWrite, ConcurrentWritersOfOnePathAllSucceed) {
  // Fleet workers that finish together write the same report and bundle
  // paths with identical bytes.  Every write must land whole, whichever
  // rename wins, and none may trip over another writer's temp file.
  FreshDir dir("gpudiff_atomic_race");
  const std::string path = (dir.path / "bundle.json").string();
  constexpr int kThreads = 4;
  constexpr int kWrites = 50;
  std::vector<std::string> contents;
  for (int t = 0; t < kThreads; ++t)
    contents.push_back(std::string(1 << 16, static_cast<char>('a' + t)));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kWrites; ++i) {
        try {
          write_file_atomic(path, contents[static_cast<std::size_t>(t)]);
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const std::string final_bytes = read_file(path);
  EXPECT_NE(std::find(contents.begin(), contents.end(), final_bytes),
            contents.end())
      << "the file must be one writer's whole contents";
  EXPECT_EQ(dir.names(), std::vector<std::string>{"bundle.json"})
      << "no temp file may remain";
}

TEST(AtomicWrite, RacingExclusivePublishersHaveOneWinner) {
  FreshDir dir("gpudiff_publish_race");
  const std::string path = (dir.path / "lease-0.claim").string();
  constexpr int kThreads = 4;
  std::atomic<int> winners{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      try {
        if (publish_file_exclusive(path, "owner " + std::to_string(t))) ++winners;
      } catch (const std::exception&) {
        ++failures;
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(read_file(path).rfind("owner ", 0), 0u);
  EXPECT_EQ(dir.names(), std::vector<std::string>{"lease-0.claim"})
      << "no temp file may remain";
}

}  // namespace
