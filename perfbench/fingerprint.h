// Machine and build fingerprint stamped on every benchmark result, so
// two results are only compared when they come from the same hardware,
// toolchain and source.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Fingerprint {
    std::string cpu_model;
    unsigned nproc = 0;
    std::string compiler;
    std::string build_type;
    std::string git_sha;  ///< supplied by the runner; "unknown" outside git
    std::string source_digest;  ///< runner's hash of the compiled sources
    std::uint64_t seed = 0;

    [[nodiscard]] std::string json() const;
};

[[nodiscard]] Fingerprint make_fingerprint(std::uint64_t seed, std::string git_sha,
                                           std::string source_digest);

/// JSON string literal of `s` (quotes and backslashes escaped).
[[nodiscard]] std::string json_quote(const std::string& s);

}  // namespace perfbench
