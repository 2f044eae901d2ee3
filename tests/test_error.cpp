// Diagnostics: check macros, the printf-style formatter, the on/off
// environment switch reader and the check that rejects unknown SPADEN_*
// variables.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "gpusim/device.hpp"

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
  ::setenv(kName, "1", 1);
  EXPECT_TRUE(env_flag(kName));
  // Any other spelling is an error naming the variable and the accepted
  // values, so "off" or "no" can never switch a knob on.
  for (const char* bad : {"yes", "off", "no", "false", "2", " 1"}) {
    ::setenv(kName, bad, 1);
    try {
      (void)env_flag(kName);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(kName), std::string::npos) << msg;
      EXPECT_NE(msg.find("\"0\" or \"1\""), std::string::npos) << msg;
    }
  }
  ::unsetenv(kName);
}

TEST(EnvNames, DeviceRejectsAnUnknownSpadenVariableByName) {
  // A knob that no longer exists must not be ignored without a word: a
  // leftover SPADEN_SERVE_MAX_BATCH=1 would otherwise leave request fusion
  // on while whoever set it believes it off.
  ::setenv("SPADEN_SERVE_MAX_BATCH", "1", 1);
  try {
    const sim::Device device(sim::l40());
    ADD_FAILURE() << "a Device was built with SPADEN_SERVE_MAX_BATCH set";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("SPADEN_SERVE_MAX_BATCH"), std::string::npos)
        << e.what();
  }
  ::unsetenv("SPADEN_SERVE_MAX_BATCH");
  EXPECT_NO_THROW(sim::Device{sim::l40()});
}

}  // namespace
}  // namespace spaden
