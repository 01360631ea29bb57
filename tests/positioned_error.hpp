#pragma once
// Shared assertion for the strict loaders (model, transfer-model and
// campaign-partial files): every failure is a std::runtime_error positioned
// as "<source>: <what> (at byte N)" (util/token_reader.hpp).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace ffr::testing_support {

/// Expects `body` to throw a std::runtime_error whose message contains
/// `source`, a "(at " position marker and `fragment`.
template <typename Body>
void expect_positioned_error(const Body& body, const std::string& source,
                             const std::string& fragment = "") {
  try {
    body();
    FAIL() << "expected a positioned std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(source), std::string::npos) << what;
    EXPECT_NE(what.find("(at "), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

}  // namespace ffr::testing_support
