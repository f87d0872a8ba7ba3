// Unit tests for the bench harness: flag parsing, repeat/percentile
// math, JSON emission (validated with a real recursive-descent parser),
// and the fig10 quick-mode contract — one series per stack with the
// expected row count (linked in-process from bench/fig10_*.cc).
#include "harness.hpp"

#include <gtest/gtest.h>

#include "trace/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sched.h>

namespace flextoe::benchx {
namespace {

// ---------------------------------------------------------------------
// Minimal strict JSON parser (objects, arrays, strings, numbers,
// booleans, null). Fails the test on any malformed input.

struct JsonValue {
  enum class Kind { Object, Array, String, Number, Bool, Null } kind;
  std::map<std::string, std::shared_ptr<JsonValue>> object;
  std::vector<std::shared_ptr<JsonValue>> array;
  std::string string;
  double number = 0;
  bool boolean = false;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::shared_ptr<JsonValue> parse() {
    auto v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    pos_ = s_.size();  // stop consuming
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::shared_ptr<JsonValue> parse_value() {
    skip_ws();
    auto v = std::make_shared<JsonValue>();
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return v;
    }
    const char c = s_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      v->kind = JsonValue::Kind::String;
      v->string = parse_string();
      return v;
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      v->kind = JsonValue::Kind::Bool;
      v->boolean = true;
      pos_ += 4;
      return v;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      v->kind = JsonValue::Kind::Bool;
      v->boolean = false;
      pos_ += 5;
      return v;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      v->kind = JsonValue::Kind::Null;
      pos_ += 4;
      return v;
    }
    // number
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) {
      fail("unexpected character");
      return v;
    }
    char* num_end = nullptr;
    const std::string num = s_.substr(pos_, end - pos_);
    v->kind = JsonValue::Kind::Number;
    v->number = std::strtod(num.c_str(), &num_end);
    if (num_end != num.c_str() + num.size()) fail("bad number");
    pos_ = end;
    return v;
  }

  std::string parse_string() {
    std::string out;
    if (!consume('"')) {
      fail("expected string");
      return out;
    }
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          fail("bad escape");
          return out;
        }
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) {
              fail("bad \\u escape");
              return out;
            }
            pos_ += 4;  // decoded value not needed by these tests
            out += '?';
            break;
          default:
            fail("bad escape");
            return out;
        }
      } else {
        out += c;
      }
    }
    if (!consume('"')) fail("unterminated string");
    return out;
  }

  std::shared_ptr<JsonValue> parse_object() {
    auto v = std::make_shared<JsonValue>();
    v->kind = JsonValue::Kind::Object;
    consume('{');
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      if (!consume(':')) {
        fail("expected ':'");
        return v;
      }
      v->object[key] = parse_value();
      if (consume(',')) continue;
      if (consume('}')) return v;
      fail("expected ',' or '}'");
      return v;
    }
  }

  std::shared_ptr<JsonValue> parse_array() {
    auto v = std::make_shared<JsonValue>();
    v->kind = JsonValue::Kind::Array;
    consume('[');
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      v->array.push_back(parse_value());
      if (consume(',')) continue;
      if (consume(']')) return v;
      fail("expected ',' or ']'");
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::shared_ptr<JsonValue> parse_json_or_die(const std::string& text) {
  JsonParser p(text);
  auto v = p.parse();
  EXPECT_TRUE(p.ok()) << "JSON parse error: " << p.error() << "\n" << text;
  return v;
}

// ---------------------------------------------------------------------
// Flag parsing.

TEST(ParseArgs, Defaults) {
  const char* argv[] = {"bench"};
  Options o;
  std::string err;
  ASSERT_TRUE(parse_args(1, argv, &o, &err)) << err;
  EXPECT_FALSE(o.quick);
  EXPECT_EQ(o.repeats, 1);
  EXPECT_TRUE(o.filter.empty());
  EXPECT_TRUE(o.json_path.empty());
  EXPECT_FALSE(o.list_only);
}

TEST(ParseArgs, AllFlags) {
  const char* argv[] = {"bench",     "--quick", "--repeats", "5",
                        "--filter",  "fig10",   "--json",    "/tmp/x.json",
                        "--seed",    "99",      "--list"};
  Options o;
  std::string err;
  ASSERT_TRUE(parse_args(11, argv, &o, &err)) << err;
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.repeats, 5);
  EXPECT_EQ(o.filter, "fig10");
  EXPECT_EQ(o.json_path, "/tmp/x.json");
  EXPECT_EQ(o.seed, 99u);
  EXPECT_TRUE(o.list_only);
}

TEST(ParseArgs, SeedDefaultsToZeroAndRejectsGarbage) {
  {
    const char* argv[] = {"bench"};
    Options o;
    std::string err;
    ASSERT_TRUE(parse_args(1, argv, &o, &err)) << err;
    EXPECT_EQ(o.seed, 0u);
  }
  for (const char* bad : {"abc", "1x", "-4", ""}) {
    const char* argv[] = {"bench", "--seed", bad};
    Options o;
    std::string err;
    EXPECT_FALSE(parse_args(3, argv, &o, &err)) << bad;
    EXPECT_FALSE(err.empty());
  }
}

TEST(ScenarioCtxSeed, ShiftsBaseByHarnessSeed) {
  Options opts;
  Report rep("seed_bench", opts);
  {
    ScenarioCtx ctx(opts, rep);
    EXPECT_EQ(ctx.seed(17), 17u);  // default --seed 0: reproducible base
  }
  opts.seed = 1000;
  {
    ScenarioCtx ctx(opts, rep);
    EXPECT_EQ(ctx.seed(17), 1017u);
  }
}

TEST(ParseArgs, RejectsBadRepeats) {
  for (const char* bad : {"0", "-3", "abc", "2x"}) {
    const char* argv[] = {"bench", "--repeats", bad};
    Options o;
    std::string err;
    EXPECT_FALSE(parse_args(3, argv, &o, &err)) << bad;
    EXPECT_FALSE(err.empty());
  }
}

TEST(ParseArgs, RejectsUnknownFlagAndMissingValue) {
  {
    const char* argv[] = {"bench", "--frobnicate"};
    Options o;
    std::string err;
    EXPECT_FALSE(parse_args(2, argv, &o, &err));
  }
  {
    const char* argv[] = {"bench", "--json"};
    Options o;
    std::string err;
    EXPECT_FALSE(parse_args(2, argv, &o, &err));
  }
}

// ---------------------------------------------------------------------
// Percentile / repeat math.

TEST(Percentile, ExactOnUniformRange) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 51.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 101.0);
  EXPECT_TRUE(percentile({}, 50) == 0.0);
}

TEST(EffectiveCpus, PositiveAndWithinAffinityMask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const double cpus = effective_cpus();
  EXPECT_GT(cpus, 0.0);
  EXPECT_LE(cpus, static_cast<double>(CPU_COUNT(&set)));
}

TEST(RunRepeated, MeanAndPercentiles) {
  // fn returns 1..10 over the measured reps.
  const RepeatStats st =
      run_repeated(10, [](int rep) { return static_cast<double>(rep + 1); });
  EXPECT_EQ(st.n, 10u);
  EXPECT_DOUBLE_EQ(st.mean, 5.5);
  EXPECT_DOUBLE_EQ(st.min, 1.0);
  EXPECT_DOUBLE_EQ(st.max, 10.0);
  EXPECT_GE(st.p50, 5.0);
  EXPECT_LE(st.p50, 6.0);
  // Exact accumulators interpolate between order statistics.
  EXPECT_GE(st.p99, 9.0);
  EXPECT_LE(st.p99, 10.0);
}

TEST(RunRepeated, WarmupIsDiscardedButCounted) {
  std::vector<int> seen;
  const RepeatStats st = run_repeated(
      2,
      [&](int rep) {
        seen.push_back(rep);
        return static_cast<double>(rep);
      },
      /*warmup=*/3);
  // 3 warmup calls (reps 0..2) then 2 measured (reps 3..4).
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[3], 3);
  EXPECT_DOUBLE_EQ(st.mean, 3.5);
}

// ---------------------------------------------------------------------
// Report model and JSON shape.

TEST(Report, SeriesAndRowsFindOrCreate) {
  Report rep("unit", Options{});
  rep.series("a").set("r1", "v", 1.0);
  rep.series("a").set("r1", "v", 2.0);  // overwrite
  rep.series("a").set("r2", "v", 3.0);
  rep.series("b").set("r1", "w", 4.0);
  ASSERT_EQ(rep.all_series().size(), 2u);
  EXPECT_EQ(rep.all_series()[0].rows().size(), 2u);
  const double* v = rep.all_series()[0].rows()[0].find("v");
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(*v, 2.0);
  EXPECT_EQ(rep.find_series("b")->rows()[0].values[0].first, "w");
  EXPECT_EQ(rep.find_series("missing"), nullptr);
}

TEST(Report, JsonShape) {
  Options opts;
  opts.quick = true;
  opts.repeats = 7;
  Report rep("shape_bench", opts);
  rep.series("s1").set("row \"x\"\n", "gbps", 1.25);
  rep.series("s1").set("r2", "gbps", -0.5);
  rep.series("s2").row("only");  // a row with no values yet
  rep.series("s3");              // a series with no rows
  rep.note("a note with \\ and \"quotes\"");

  auto doc = parse_json_or_die(rep.to_json());
  ASSERT_EQ(doc->kind, JsonValue::Kind::Object);
  EXPECT_EQ(doc->object.at("bench")->string, "shape_bench");
  EXPECT_TRUE(doc->object.at("quick")->boolean);
  EXPECT_DOUBLE_EQ(doc->object.at("repeats")->number, 7.0);

  const auto& series = doc->object.at("series");
  ASSERT_EQ(series->kind, JsonValue::Kind::Array);
  ASSERT_EQ(series->array.size(), 3u);
  const auto& s1 = series->array[0];
  EXPECT_EQ(s1->object.at("name")->string, "s1");
  const auto& rows = s1->object.at("rows");
  ASSERT_EQ(rows->array.size(), 2u);
  EXPECT_EQ(rows->array[0]->object.at("label")->string, "row \"x\"\n");
  EXPECT_DOUBLE_EQ(
      rows->array[0]->object.at("values")->object.at("gbps")->number, 1.25);
  EXPECT_DOUBLE_EQ(
      rows->array[1]->object.at("values")->object.at("gbps")->number, -0.5);
  // A value-less row and a row-less series stay well-formed.
  const auto& s2_rows = series->array[1]->object.at("rows")->array;
  ASSERT_EQ(s2_rows.size(), 1u);
  EXPECT_TRUE(s2_rows[0]->object.at("values")->object.empty());
  EXPECT_TRUE(series->array[2]->object.at("rows")->array.empty());

  const auto& notes = doc->object.at("notes");
  ASSERT_EQ(notes->array.size(), 1u);
  EXPECT_EQ(notes->array[0]->string, "a note with \\ and \"quotes\"");

  // Reproducibility header: always present, with the build facts the
  // golden checker excises before diffing.
  const auto& config = doc->object.at("config");
  ASSERT_EQ(config->kind, JsonValue::Kind::Object);
  EXPECT_FALSE(config->object.at("git_sha")->string.empty());
  EXPECT_FALSE(config->object.at("build_type")->string.empty());
  EXPECT_EQ(config->object.at("telemetry_compiled")->boolean,
            flextoe::telemetry::kCompiledIn);
  EXPECT_EQ(config->object.at("trace_compiled")->boolean,
            flextoe::trace::kCompiledIn);
}

TEST(Report, TelemetrySectionMergesAndRoundTrips) {
  Report rep("telem_bench", Options{});
  telemetry::Snapshot snap;
  snap.enabled = true;
  snap.counters = {{"stage/pre_rx/visits", 7}};
  rep.merge_telemetry(snap);
  rep.merge_telemetry(snap);  // additive across testbeds/repeats
  ASSERT_NE(rep.telemetry().counter("stage/pre_rx/visits"), nullptr);
  EXPECT_EQ(*rep.telemetry().counter("stage/pre_rx/visits"), 14u);

  // The emitted document carries the section, parseable both by a
  // generic JSON parser and by the snapshot's own reader.
  const std::string doc_text = rep.to_json();
  auto doc = parse_json_or_die(doc_text);
  const auto& t = doc->object.at("telemetry");
  ASSERT_EQ(t->kind, JsonValue::Kind::Object);
  EXPECT_TRUE(t->object.at("enabled")->boolean);
  EXPECT_DOUBLE_EQ(
      t->object.at("counters")->object.at("stage/pre_rx/visits")->number,
      14.0);
  telemetry::Snapshot back;
  std::string err;
  ASSERT_TRUE(telemetry::Snapshot::from_json(
      rep.telemetry().to_json(), &back, &err))
      << err;
  EXPECT_EQ(*back.counter("stage/pre_rx/visits"), 14u);
}

TEST(Report, NonFiniteValuesBecomeNull) {
  Report rep("nanbench", Options{});
  rep.series("s").set("r", "v", std::nan(""));
  auto doc = parse_json_or_die(rep.to_json());
  const auto& v = doc->object.at("series")
                      ->array[0]
                      ->object.at("rows")
                      ->array[0]
                      ->object.at("values")
                      ->object.at("v");
  EXPECT_EQ(v->kind, JsonValue::Kind::Null);
}

// ---------------------------------------------------------------------
// fig10 quick-mode contract: one series per stack, expected row count,
// well-formed JSON on disk.

class Fig10Quick : public ::testing::Test {
 protected:
  static const Report& report() {
    // The simulation behind fig10 is the expensive part; run it once
    // and share across assertions.
    static Report* rep = [] {
      Options opts;
      opts.quick = true;
      auto* r = new Report("fig10_rpc_throughput", opts);
      EXPECT_EQ(run_scenarios(opts, *r), 1);
      return r;
    }();
    return *rep;
  }
};

TEST_F(Fig10Quick, OneSeriesPerStack) {
  ASSERT_EQ(report().all_series().size(), 4u);
  for (const char* stack : {"Linux", "Chelsio", "TAS", "FlexTOE"}) {
    ASSERT_NE(report().find_series(stack), nullptr) << stack;
  }
}

TEST_F(Fig10Quick, QuickRowCounts) {
  // Quick mode: 2 message sizes x {rx, tx} x 1 app-delay = 4 rows per
  // stack series, each a single labeled "gbps" double.
  for (const auto& s : report().all_series()) {
    ASSERT_EQ(s.rows().size(), 4u) << s.name();
    for (const auto& row : s.rows()) {
      ASSERT_EQ(row.values.size(), 1u) << s.name() << "/" << row.label;
      EXPECT_EQ(row.values[0].first, "gbps");
      EXPECT_TRUE(std::isfinite(row.values[0].second));
      EXPECT_GE(row.values[0].second, 0.0);
    }
  }
}

TEST_F(Fig10Quick, JsonRoundTripsThroughDisk) {
  const std::string path =
      ::testing::TempDir() + "/BENCH_fig10_rpc_throughput.json";
  ASSERT_TRUE(report().write_json(path));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  auto doc = parse_json_or_die(text);
  EXPECT_EQ(doc->object.at("bench")->string, "fig10_rpc_throughput");
  EXPECT_TRUE(doc->object.at("quick")->boolean);
  const auto& series = doc->object.at("series")->array;
  ASSERT_EQ(series.size(), 4u);
  std::vector<std::string> names;
  for (const auto& s : series) names.push_back(s->object.at("name")->string);
  for (const char* stack : {"Linux", "Chelsio", "TAS", "FlexTOE"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), stack), names.end())
        << stack;
  }
}

}  // namespace
}  // namespace flextoe::benchx
