#include "netlist/content_key.hpp"

#include <cstdio>

#include "netlist/verilog_writer.hpp"

namespace ffr::netlist {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

[[nodiscard]] std::uint64_t fnv1a(std::uint64_t state, std::string_view bytes) noexcept {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= kFnvPrime;
  }
  return state;
}

}  // namespace

std::string ContentHash::hex() const {
  char buffer[33];
  std::snprintf(buffer, sizeof buffer, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buffer, 32);
}

ContentHash content_hash_basis() noexcept {
  return ContentHash{kFnvOffset, kFnvOffset ^ 0x9e3779b97f4a7c15ull};
}

ContentHash fold_section(ContentHash state, std::string_view tag,
                         std::string_view text) {
  const std::string header =
      std::string(tag) + ' ' + std::to_string(text.size()) + '\n';
  state.lo = fnv1a(fnv1a(state.lo, header), text);
  state.hi = fnv1a(fnv1a(state.hi, header), text);
  return state;
}

ContentHash render_content_key(const Netlist& nl) {
  return fold_section(content_hash_basis(), "netlist", to_verilog(nl));
}

}  // namespace ffr::netlist
