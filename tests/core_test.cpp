// Unit tests for tsx::core: units, rng, strings, table, config, error, log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/rng.hpp"
#include "core/strings.hpp"
#include "core/table.hpp"
#include "core/units.hpp"

namespace tsx {
namespace {

// --- units -----------------------------------------------------------------

TEST(Units, DurationConversions) {
  const Duration d = Duration::millis(2.5);
  EXPECT_DOUBLE_EQ(d.sec(), 0.0025);
  EXPECT_DOUBLE_EQ(d.ms(), 2.5);
  EXPECT_DOUBLE_EQ(d.us(), 2500.0);
  EXPECT_DOUBLE_EQ(d.ns(), 2.5e6);
}

TEST(Units, BytesConversions) {
  EXPECT_DOUBLE_EQ(Bytes::kib(1).b(), 1024.0);
  EXPECT_DOUBLE_EQ(Bytes::mib(2).to_kib(), 2048.0);
  EXPECT_DOUBLE_EQ(Bytes::gib(1).to_mib(), 1024.0);
}

TEST(Units, BandwidthDecimalVsBinary) {
  EXPECT_DOUBLE_EQ(Bandwidth::gb_per_sec(1.0).value(), 1e9);
  EXPECT_DOUBLE_EQ(Bandwidth::gib_per_sec(1.0).value(), 1024.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(Bandwidth::gb_per_sec(39.3).to_gb_per_sec(), 39.3);
}

TEST(Units, PhysicsCombinations) {
  const Bytes volume = Bytes::gib(1);
  const Bandwidth rate = Bandwidth::gib_per_sec(2);
  EXPECT_DOUBLE_EQ((volume / rate).sec(), 0.5);
  EXPECT_DOUBLE_EQ((rate * Duration::seconds(2)).to_gib(), 4.0);
  EXPECT_DOUBLE_EQ((Power::watts(3) * Duration::seconds(4)).j(), 12.0);
  EXPECT_DOUBLE_EQ((Energy::joules(10) / Duration::seconds(5)).w(), 2.0);
}

TEST(Units, ArithmeticAndComparison) {
  Duration a = Duration::seconds(1);
  a += Duration::seconds(2);
  EXPECT_EQ(a, Duration::seconds(3));
  EXPECT_LT(Duration::seconds(1), Duration::seconds(2));
  EXPECT_DOUBLE_EQ(Duration::seconds(6) / Duration::seconds(2), 3.0);
  EXPECT_EQ(Duration::seconds(4) * 0.5, Duration::seconds(2));
}

TEST(Units, InfiniteDuration) {
  EXPECT_TRUE(std::isinf(Duration::infinite().sec()));
  EXPECT_GT(Duration::infinite(), Duration::seconds(1e30));
}

TEST(Units, ToStringPicksScale) {
  EXPECT_EQ(to_string(Duration::nanos(77.8)), "77.8 ns");
  EXPECT_EQ(to_string(Bytes::gib(3.2)), "3.2 GiB");
  EXPECT_EQ(to_string(Bandwidth::gb_per_sec(10.7)), "10.7 GB/s");
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64RangeAndCoverage) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform_u64(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all buckets hit
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo && hit_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(19);
  for (const double mean : {0.5, 8.0, 200.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
      sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(21);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ForkGivesIndependentStreams) {
  Rng base(42);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
  // Forking is const: base unchanged and still deterministic.
  Rng base2(42);
  EXPECT_EQ(base.next_u64(), base2.next_u64());
}

TEST(ZipfSampler, RanksSkewTowardHead) {
  Rng rng(23);
  ZipfSampler zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 50000 / 100);  // head is heavy
}

TEST(ZipfSampler, ZeroExponentIsUniformish) {
  Rng rng(29);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf(rng)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 600);
}

// The CDF a ZipfSampler inverts, rebuilt here independently of it.
std::vector<double> reference_zipf_cdf(std::uint64_t n, double exponent) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -exponent);
    cdf[i] = total;
  }
  for (auto& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

std::uint64_t binary_search_rank(const std::vector<double>& cdf, double u) {
  return static_cast<std::uint64_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

constexpr std::uint64_t kZipfSizes[] = {1, 2, 3, 1000, 8000, 12000};
constexpr double kZipfExponents[] = {0.0, 0.9, 1.1};

TEST(ZipfSampler, GuideTableMatchesBinarySearchOnEveryDraw) {
  for (const std::uint64_t n : kZipfSizes) {
    for (const double s : kZipfExponents) {
      const ZipfSampler zipf(n, s);
      const std::vector<double> cdf = reference_zipf_cdf(n, s);
      Rng sampled(0x21bf + n);
      Rng reference(0x21bf + n);
      int mismatches = 0;
      for (int i = 0; i < 100000; ++i) {
        const std::uint64_t got = zipf(sampled);
        if (got != binary_search_rank(cdf, reference.uniform())) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ZipfSampler, GuideTableExactOnBucketAndCdfEdges) {
  for (const std::uint64_t n : kZipfSizes) {
    for (const double s : kZipfExponents) {
      const ZipfSampler zipf(n, s);
      const std::vector<double> cdf = reference_zipf_cdf(n, s);
      std::uint64_t m = 1;
      while (m < n) m <<= 1;
      // Every bucket edge j/m, and the doubles either side of it.
      std::vector<double> probes;
      for (std::uint64_t j = 0; j < m; ++j) {
        const double edge = static_cast<double>(j) / static_cast<double>(m);
        probes.push_back(edge);
        probes.push_back(std::nextafter(edge, 1.0));
        if (j > 0) probes.push_back(std::nextafter(edge, 0.0));
      }
      // Every CDF step, and the doubles either side of it.
      for (const double c : cdf) {
        if (c < 1.0) probes.push_back(c);
        probes.push_back(std::nextafter(c, 0.0));
        if (std::nextafter(c, 1.0) < 1.0)
          probes.push_back(std::nextafter(c, 1.0));
      }
      probes.push_back(std::nextafter(1.0, 0.0));  // the largest draw
      int mismatches = 0;
      for (const double u : probes)
        if (zipf.rank_at(u) != binary_search_rank(cdf, u)) ++mismatches;
      EXPECT_EQ(mismatches, 0) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ZipfSampler, RejectsSizeBeyondGuideTableRange) {
  // Rejected before any table is allocated.
  try {
    ZipfSampler zipf((std::uint64_t{1} << 32) + 1, 1.0);
    FAIL() << "accepted n > 2^32";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("n=4294967297"), std::string::npos)
        << e.what();
  }
}

TEST(Rng, ZipfConvenienceStaysInRange) {
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.zipf(50, 1.1), 50u);
}

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpties) {
  const auto parts = split_ws("  hello   world \tfoo\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[2], "foo");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, StrfmtFormats) {
  EXPECT_EQ(strfmt("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

// --- table ---------------------------------------------------------------------

TEST(Table, AlignsColumnsAndCountsRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_row({"b", "300"});
  EXPECT_EQ(t.row_count(), 2u);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("300"), std::string::npos);
  // Numeric cells right-aligned: "1.25" ends where "value" column ends.
  EXPECT_NE(out.find(" 300"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(csv_row({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

// --- config ----------------------------------------------------------------------

/// A Config parsed from `--key=value` flags.
Config flags(std::initializer_list<std::string> args) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  Config c;
  c.parse_args(static_cast<int>(argv.size()), argv.data());
  return c;
}

/// Expects `get()` to throw a tsx::Error whose message names `key`.
template <typename Get>
void expect_rejected_naming(const std::string& key, const std::string& raw,
                            Get get) {
  try {
    (void)get();
    ADD_FAILURE() << key << " accepted \"" << raw << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(Config, MissingAndMalformedThrow) {
  const Config c = flags({"--notanum=xyz"});
  EXPECT_THROW(c.get_int_in("missing", 0, 10), Error);
  EXPECT_THROW(c.get_int_in_or("notanum", 1, 0, 10), Error);
  EXPECT_THROW(c.get_bool_or("notanum", false), Error);
  EXPECT_THROW(c.get_double_or("notanum", 1.0), Error);
}

TEST(Config, DefaultsNeverThrow) {
  const Config c;
  EXPECT_EQ(c.get_int_in_or("k", 9, 0, 10), 9);
  EXPECT_EQ(c.get_or("k", "d"), "d");
  EXPECT_DOUBLE_EQ(c.get_double_or("k", 2.5), 2.5);
  EXPECT_FALSE(c.get_bool_or("k", false));
}

TEST(Config, ParseArgsSeparatesFlagsFromPositional) {
  Config c;
  const char* argv[] = {"prog", "--alpha=3", "pos1", "--beta", "pos2"};
  const auto positional = c.parse_args(5, argv);
  EXPECT_EQ(c.get_int_in("alpha", 0, 10), 3);
  EXPECT_TRUE(c.get_bool_or("beta", false));
  ASSERT_EQ(positional.size(), 2u);
  EXPECT_EQ(positional[0], "pos1");
}

TEST(Config, EnvIntIsStrictAndNamesTheVariable) {
  const char* name = "TSX_CORE_TEST_KNOB";
  unsetenv(name);
  EXPECT_FALSE(env_int(name, 0, 10).has_value());
  setenv(name, "7", 1);
  EXPECT_EQ(env_int(name, 0, 10), 7);
  for (const char* bad : {"", "abc", "7x", " 7", "11", "-1"}) {
    setenv(name, bad, 1);
    try {
      (void)env_int(name, 0, 10);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos);
    }
  }
  unsetenv(name);
}

TEST(Config, ParseIntIsStrictAndNamesTheField) {
  EXPECT_EQ(parse_int("3", "--tier", 0, 3), 3);
  EXPECT_EQ(parse_int("-2", "--delta", -5, 5), -2);
  for (const char* bad : {"", "abc", "2x", " 2", "2 ", "+2", "4", "-1", "1.5",
                          "99999999999999999999"}) {
    try {
      (void)parse_int(bad, "--tier", 0, 3);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--tier"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Config, ParseDoubleIsStrictAndNamesTheField) {
  EXPECT_DOUBLE_EQ(parse_double("1.5", "--slo", 0.0, 10.0), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("2e0", "--slo", 0.0, 10.0), 2.0);
  for (const char* bad : {"", "fast", "1.5x", " 1.5", "-0.5", "11", "nan",
                          "inf"}) {
    try {
      (void)parse_double(bad, "--slo", 0.0, 10.0);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--slo"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Config, ParseU64IsStrictAndNamesTheField) {
  EXPECT_EQ(parse_u64("42", "--seed"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615", "--seed"), UINT64_MAX);
  for (const char* bad : {"", "abc", "-1", "+1", " 1", "1 ", "12x", "1.0",
                          "18446744073709551616"}) {
    try {
      (void)parse_u64(bad, "--seed");
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Config, IntInGetterIsStrictAndNamesTheKey) {
  const Config c = flags({"--n=7", "--neg=-3"});
  EXPECT_EQ(c.get_int_in("n", 0, 10), 7);
  EXPECT_EQ(c.get_int_in("neg", -5, 5), -3);
  EXPECT_EQ(c.get_int_in_or("n", 1, 0, 10), 7);
  EXPECT_EQ(c.get_int_in_or("absent", 5, 0, 10), 5);
  EXPECT_THROW((void)c.get_int_in("absent", 0, 10), Error);
  // parse_int's rules, including values that a 64-bit getter accepts and
  // an int would silently narrow (2^32 + 2 would read as 2).
  for (const char* bad : {"", "abc", "7x", " 7", "7 ", "+7", "11", "-1", "1.5",
                          "4294967298", "9223372036854775808"}) {
    const Config bad_flags = flags({std::string("--executors=") + bad});
    expect_rejected_naming("executors", bad, [&] {
      return bad_flags.get_int_in("executors", 0, 10);
    });
    expect_rejected_naming("executors", bad, [&] {
      return bad_flags.get_int_in_or("executors", 1, 0, 10);
    });
  }
}

TEST(Config, DoubleGetterIsStrictAndNamesTheKey) {
  for (const auto& [raw, value] : std::vector<std::pair<std::string, double>>{
           {"8", 8.0}, {"0.5", 0.5}, {"1e308", 1e308}, {"-1e308", -1e308}}) {
    const Config c = flags({"--carve-gib=" + raw});
    EXPECT_DOUBLE_EQ(c.get_double_or("carve-gib", 1.0), value);
  }
  // A leading space and hex (which strtod reads as 8) are stray text too.
  for (const char* bad : {" 8", "0x8", "8abc", "", "+8", "nan", "inf",
                          "-infinity", "1e309", "1e999"}) {
    const Config c = flags({std::string("--carve-gib=") + bad});
    expect_rejected_naming("carve-gib", bad, [&] {
      return c.get_double_or("carve-gib", 1.0);
    });
  }
}

// --- error -------------------------------------------------------------------------

TEST(Error, CheckThrowsWithContext) {
  try {
    TSX_CHECK(1 == 2, "custom detail");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail"), std::string::npos);
    EXPECT_NE(what.find("core_test.cpp"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(TSX_CHECK(true, "never seen"));
}

// --- JSON codec -----------------------------------------------------------

TEST(Json, NumbersAreWrittenExactlyAsPrintf17g) {
  // json::number must write the bytes "%.17g" writes: stores and traces
  // written before it changed still compare byte for byte.
  const auto printf_17g = [](double v) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf, static_cast<std::size_t>(n));
  };
  using lim = std::numeric_limits<double>;
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1e-5, 1e16, 1e17, 123456789012345678.0,
        lim::infinity(), -lim::infinity(), lim::quiet_NaN(),
        -lim::quiet_NaN(), lim::denorm_min(), -lim::denorm_min(),
        lim::min(), lim::max(), lim::lowest(), lim::epsilon()})
    EXPECT_EQ(json::number(v), printf_17g(v)) << printf_17g(v);

  // Random bit patterns cover every exponent, subnormals and NaN payloads.
  std::uint64_t state = 0x5eed;
  std::size_t mismatches = 0;
  std::string first;
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t bits = splitmix64(state);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    char want[32];
    const auto n = static_cast<std::size_t>(
        std::snprintf(want, sizeof want, "%.17g", v));
    if (json::number(v) != std::string_view(want, n) && mismatches++ == 0)
      first = want;
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
}

TEST(Json, EveryByteRoundTripsThroughTheQuoter) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  std::string doc;
  json::Writer(doc).begin_object().field("s", all).end_object();
  for (const char c : doc)  // control bytes are escaped, never raw
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_EQ(json::parse(doc).at("s").as_string(), all);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "{\"a\":1,}", "[1 2]", "{\"a\" 1}", "{\"a\":1} x",
        "\"tab\there\"", "\"\\q\"", "\"\\u00e9\"", "\"\\u12\"", "{\"a\\n\":1}",
        "{\"a\":}"}) {
    EXPECT_THROW(json::parse(bad), Error) << bad;
  }
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(json::parse(deep), Error);
}

TEST(Json, DiagnosticsNameTheFieldAndElement) {
  const std::string doc = "{\"n\":[1,2,\"x\"],\"b\":1,\"d\":nan}";
  const json::Value v = json::parse(doc);
  const json::Value& n = v.at("n");
  EXPECT_EQ(n.items()[1].as_int(), 2);
  EXPECT_TRUE(std::isnan(v.at("d").as_double()));
  const auto error_of = [](auto read) {
    try {
      read();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string element = error_of([&] { n.items()[2].as_double(); });
  EXPECT_NE(element.find("n[2]=\"x\" is not a number"), std::string::npos)
      << element;
  const std::string flag = error_of([&] { v.at("b").as_bool(); });
  EXPECT_NE(flag.find("b=\"1\" is not a boolean"), std::string::npos) << flag;
  const std::string missing = error_of([&] { v.at("zz"); });
  EXPECT_NE(missing.find("missing field: zz"), std::string::npos) << missing;
}

}  // namespace
}  // namespace tsx
