#include "util/token_reader.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace ffr::util {

void write_double(std::ostream& os, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  os << buffer;
}

TokenReader::TokenReader(std::istream& is, std::string source)
    : is_(is), source_(std::move(source)) {}

void TokenReader::fail(const std::string& what) const {
  is_.clear();
  const auto pos = is_.tellg();
  const std::string at =
      pos < 0 ? "end of stream"
              : "byte " + std::to_string(static_cast<long long>(pos));
  throw std::runtime_error(source_ + ": " + what + " (at " + at + ")");
}

std::string TokenReader::token() const {
  std::string t;
  if (!(is_ >> t)) fail("unexpected end of stream");
  return t;
}

void TokenReader::expect(std::string_view expected) const {
  const std::string t = token();
  if (t != expected) {
    fail("expected '" + std::string(expected) + "', got '" + t + "'");
  }
}

void TokenReader::expect_header(std::string_view magic,
                                std::uint64_t version) const {
  const std::string t = token();
  if (t != magic) {
    fail("bad magic '" + t + "', expected '" + std::string(magic) + "'");
  }
  const std::uint64_t found = u64();
  if (found != version) {
    fail("unsupported format version " + std::to_string(found) +
         " (supported: " + std::to_string(version) + ")");
  }
}

std::uint64_t TokenReader::u64(std::uint64_t max) const {
  const std::string t = token();
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(t.c_str(), &end, 10);
  if (end != t.c_str() + t.size() || t[0] == '-' || errno == ERANGE) {
    fail("malformed count '" + t + "'");
  }
  if (value > max) {
    fail("count " + t + " exceeds the sanity limit " + std::to_string(max));
  }
  return value;
}

double TokenReader::dbl() const {
  const std::string t = token();
  char* end = nullptr;
  const double value = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size()) fail("malformed number '" + t + "'");
  return value;
}

std::string TokenReader::bytes(std::uint64_t max_len) const {
  const std::uint64_t len = u64(max_len);
  if (is_.get() == std::char_traits<char>::eof()) {
    fail("unexpected end of stream in byte string");
  }
  std::string value(static_cast<std::size_t>(len), '\0');
  if (!is_.read(value.data(), static_cast<std::streamsize>(len))) {
    fail("byte string truncated (expected " + std::to_string(len) + " bytes)");
  }
  return value;
}

}  // namespace ffr::util
