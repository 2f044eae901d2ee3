// Diagnostics: check macros, the printf-style formatter and the on/off
// environment switch reader.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace spaden {
namespace {

TEST(Strfmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("x=%d y=%s", 42, "hi"), "x=42 y=hi");
  EXPECT_EQ(strfmt("%.3f", 1.23456), "1.235");
  EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(Strfmt, LongStringsNotTruncated) {
  const std::string big(10000, 'a');
  EXPECT_EQ(strfmt("%s!", big.c_str()).size(), big.size() + 1);
}

TEST(Require, PassesOnTrue) {
  EXPECT_NO_THROW(SPADEN_REQUIRE(1 + 1 == 2, "math works"));
}

TEST(Require, ThrowsWithContextOnFalse) {
  try {
    SPADEN_REQUIRE(false, "value was %d", 7);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("value was 7"), std::string::npos);
    EXPECT_NE(msg.find("precondition"), std::string::npos);
    EXPECT_NE(msg.find("test_error.cpp"), std::string::npos);
  }
}

TEST(Assert, ThrowsInvariantKind) {
  try {
    SPADEN_ASSERT(false, "broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
  }
}

TEST(EnvFlag, OnlyUnsetEmptyAndZeroAreOff) {
  constexpr const char* kName = "SPADEN_TEST_ENV_FLAG";
  ::unsetenv(kName);
  EXPECT_FALSE(env_flag(kName));
  for (const char* off : {"", "0"}) {
    ::setenv(kName, off, 1);
    EXPECT_FALSE(env_flag(kName)) << "'" << off << "'";
  }
  for (const char* on : {"1", "yes"}) {
    ::setenv(kName, on, 1);
    EXPECT_TRUE(env_flag(kName)) << "'" << on << "'";
  }
  ::unsetenv(kName);
}

}  // namespace
}  // namespace spaden
