#include "stc/fuzz/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "stc/campaign/seed.h"  // header-only fnv1a64 (content hashing)
#include "stc/driver/wire_format.h"
#include "stc/support/error.h"
#include "stc/support/strings.h"

namespace stc::fuzz {

namespace {

constexpr const char* kMagic = "concat-corpus 1";
constexpr const char* kSuiteMagic = "concat-suite 1";

std::string hex16(std::uint64_t value) {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

/// Filenames must survive any filesystem: keep [A-Za-z0-9._-], map the
/// rest (e.g. "::" in qualified class names) to '_'.
std::string sanitize(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                        c == '_';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("entry") : out;
}

}  // namespace

const driver::TestCase& CorpusEntry::reproducer() const {
    if (suite.cases.size() != 1) {
        throw Error("corpus entry must hold exactly one test case, has " +
                    std::to_string(suite.cases.size()));
    }
    return suite.cases.front();
}

void save_entry(std::ostream& os, const CorpusEntry& entry) {
    os << kMagic << "\n";
    os << "verdict " << driver::to_string(entry.verdict) << "\n";
    if (!entry.failed_method.empty()) {
        os << "method " << driver::wire::encode(entry.failed_method) << "\n";
    }
    if (!entry.mutant_id.empty()) {
        os << "mutant " << driver::wire::encode(entry.mutant_id) << "\n";
    }
    if (!entry.kill_reason.empty()) {
        os << "reason " << driver::wire::encode(entry.kill_reason) << "\n";
    }
    save_suite(os, entry.suite);
}

CorpusEntry load_entry(std::istream& is) {
    CorpusEntry entry;
    std::string line;
    int lineno = 0;

    auto fail = [&](const std::string& message) -> void {
        throw Error("corpus line " + std::to_string(lineno) + ": " + message);
    };

    bool saw_magic = false;
    bool saw_verdict = false;
    while (std::getline(is, line)) {
        ++lineno;
        if (support::trim(line).empty()) continue;
        if (!saw_magic) {
            if (line != kMagic) throw Error("not a concat-corpus file (bad magic)");
            saw_magic = true;
            continue;
        }
        if (line == kSuiteMagic) {
            // The remainder of the stream is a standard suite block; hand
            // it to the suite loader verbatim (magic line re-attached),
            // behind one blank line per header line so the loader's
            // error messages carry this file's line numbers.
            std::ostringstream rest;
            rest << std::string(static_cast<std::size_t>(lineno - 1), '\n')
                 << line << "\n"
                 << is.rdbuf();
            std::istringstream suite_in(rest.str());
            entry.suite = driver::load_suite(suite_in);
            if (!saw_verdict) fail("missing verdict header");
            if (entry.suite.cases.size() != 1) {
                fail("embedded suite must hold exactly one test case");
            }
            return entry;
        }
        if (support::starts_with(line, "verdict ")) {
            const auto v = driver::verdict_from_string(line.substr(8));
            if (!v) fail("unknown verdict '" + line.substr(8) + "'");
            entry.verdict = *v;
            saw_verdict = true;
        } else if (support::starts_with(line, "method ")) {
            entry.failed_method = driver::wire::decode(line.substr(7), lineno);
        } else if (support::starts_with(line, "mutant ")) {
            entry.mutant_id = driver::wire::decode(line.substr(7), lineno);
        } else if (support::starts_with(line, "reason ")) {
            entry.kill_reason = driver::wire::decode(line.substr(7), lineno);
        } else {
            fail("unrecognized header '" + line + "'");
        }
    }
    throw Error(saw_magic ? "corpus entry has no embedded suite"
                          : "not a concat-corpus file (empty)");
}

CorpusEntry load_entry_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot open corpus entry: " + path);
    try {
        return load_entry(in);
    } catch (const Error& e) {
        throw Error(path + ": " + e.what());
    }
}

void save_entry_file(const std::string& path, const CorpusEntry& entry) {
    const std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::filesystem::create_directories(p.parent_path());
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw Error("cannot write corpus entry: " + path);
    save_entry(out, entry);
    if (!out) throw Error("write failed for corpus entry: " + path);
}

std::string entry_filename(const CorpusEntry& entry) {
    std::ostringstream text;
    save_entry(text, entry);
    return sanitize(entry.suite.class_name) + "-" +
           driver::to_string(entry.verdict) + "-" +
           hex16(campaign::fnv1a64(text.str())) + ".suite";
}

std::vector<std::string> list_corpus(const std::string& dir) {
    std::vector<std::string> out;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) return out;
    for (const auto& e : it) {
        if (e.is_regular_file() && e.path().extension() == ".suite") {
            out.push_back(e.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace stc::fuzz
