// Robustness ("fuzz-lite") tests for the serve wire format: arbitrary bytes,
// deep nesting, huge numbers and invalid UTF-8 must come back from
// parse_request as std::invalid_argument (or a valid request) — never a
// crash — and whatever it accepts must survive its own round trip.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "util/prng.hpp"

namespace srna::serve {
namespace {

std::string random_bytes(Xoshiro256& rng, std::size_t max_len) {
  const std::size_t len = rng.uniform(max_len + 1);
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng.uniform(256));
  return out;
}

std::string random_from_alphabet(Xoshiro256& rng, std::string_view alphabet,
                                 std::size_t max_len) {
  const std::size_t len = rng.uniform(max_len + 1);
  std::string out(len, '\0');
  for (char& c : out) c = alphabet[rng.uniform(alphabet.size())];
  return out;
}

// parse_request either throws invalid_argument or yields a request whose
// own line parses back to the same request.
void expect_rejected_or_round_trips(const std::string& line) {
  try {
    const ServeRequest req = parse_request(line);
    const ServeRequest back = parse_request(req.to_line());
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.a, req.a);
    EXPECT_EQ(back.b, req.b);
    EXPECT_EQ(back.a_name, req.a_name);
    EXPECT_EQ(back.b_name, req.b_name);
  } catch (const std::invalid_argument&) {
    // expected for junk
  }
}

TEST(FuzzWire, ArbitraryBytesNeverCrash) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 3000; ++i) expect_rejected_or_round_trips(random_bytes(rng, 96));
}

TEST(FuzzWire, JsonTokenSoupNeverCrashes) {
  Xoshiro256 rng(12);
  for (int i = 0; i < 5000; ++i)
    expect_rejected_or_round_trips(random_from_alphabet(rng, "{}[]\":,0123456789.eE-+ab()", 48));
}

TEST(FuzzWire, DeepNestingIsRejectedNotRecursedInto) {
  for (const std::size_t depth : {std::size_t{1000}, std::size_t{300000}}) {
    EXPECT_THROW(parse_request(std::string(depth, '[')), std::invalid_argument);
    EXPECT_THROW(parse_request("{\"id\": " + std::string(depth, '[')), std::invalid_argument);
    std::string nested_value = "{\"id\": 1, \"a\": \"()\", \"b\": \"()\", \"trace\": ";
    nested_value += std::string(depth, '[') + std::string(depth, ']') + "}";
    EXPECT_THROW(parse_request(nested_value), std::invalid_argument);
  }
}

TEST(FuzzWire, OutOfRangeNumbersAreRejected) {
  for (const char* id : {"1e999999", "-1e999999", "99999999999999999999999999",
                         "-99999999999999999999999999", "1e300", "9223372036854775808"}) {
    const std::string line = std::string("{\"id\": ") + id + ", \"a\": \"()\", \"b\": \"()\"}";
    EXPECT_THROW(parse_request(line), std::invalid_argument) << line;
  }
  const ServeRequest ok =
      parse_request(R"x({"id": 9007199254740992, "a": "()", "b": "()", "deadline_ms": 1e308})x");
  EXPECT_EQ(ok.id, 9007199254740992);
  EXPECT_THROW(parse_request(R"x({"a": "()", "b": "()", "deadline_ms": 1e999})x"),
               std::invalid_argument);
}

TEST(FuzzWire, InvalidUtf8IsCarriedAsBytes) {
  // The wire format is bytes: invalid UTF-8 inside strings parses, and the
  // dot-bracket parser (not the JSON layer) is what refuses it.
  const std::string line = "{\"id\": 3, \"a\": \"\xc3\x28\", \"b\": \"\xed\xa0\x80\"}";
  const ServeRequest req = parse_request(line);
  EXPECT_EQ(req.a, "\xc3\x28");
  expect_rejected_or_round_trips(line);
  expect_rejected_or_round_trips("{\"id\": 3, \"a_name\": \"\xff\", \"b_name\": \"\xfe\xff\"}");
}

}  // namespace
}  // namespace srna::serve
