#include "fingerprint.h"

#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string read_cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                const auto begin = line.find_first_not_of(' ', colon + 1);
                return begin == std::string::npos ? "" : line.substr(begin);
            }
        }
    }
    return "unknown";
}

std::string compiler_id() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

}  // namespace

std::string json_quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

Fingerprint make_fingerprint(std::uint64_t seed, std::string git_sha,
                             std::string source_digest) {
    Fingerprint f;
    f.cpu_model = read_cpu_model();
    f.nproc = std::thread::hardware_concurrency();
    f.compiler = compiler_id();
    f.build_type = PERFBENCH_BUILD_TYPE;
    f.git_sha = std::move(git_sha);
    f.source_digest = std::move(source_digest);
    f.seed = seed;
    return f;
}

std::string Fingerprint::json() const {
    std::ostringstream out;
    out << "{\"cpu_model\":" << json_quote(cpu_model) << ",\"nproc\":" << nproc
        << ",\"compiler\":" << json_quote(compiler)
        << ",\"build_type\":" << json_quote(build_type)
        << ",\"git_sha\":" << json_quote(git_sha)
        << ",\"source_digest\":" << json_quote(source_digest) << ",\"seed\":" << seed
        << "}";
    return out.str();
}

}  // namespace perfbench
