#include <deque>
#include <locale>
#include <sstream>

#include "stc/bit/assertions.h"
#include "stc/bit/built_in_test.h"

namespace stc::bit {

thread_local int TestMode::depth_ = 0;

namespace {

/// This thread's report streams, one per nesting level: a Reporter may
/// ask another object for its report.  Building an ostringstream per
/// report cost more than most Reporters do.
struct ReportStreams {
    std::deque<std::ostringstream> levels;  // growing keeps references
    std::size_t depth = 0;
};

/// Give `os` the state of a freshly built stream: no text, no error or
/// exception bits, and default format state, since a Reporter may leave
/// std::hex or a fill behind.  Re-imbuing runs only when a Reporter
/// changed the locale, because it re-caches every facet.
void reset_to_fresh(std::ostringstream& os) {
    static const std::string kNoText;
    os.str(kNoText);  // by const&: str(string&&) would free the buffer
    os.exceptions(std::ios_base::goodbit);
    os.clear();
    os.flags(std::ios_base::skipws | std::ios_base::dec);
    os.precision(6);
    os.width(0);
    os.fill(' ');
    os.tie(nullptr);
    if (os.getloc() != std::locale()) os.imbue(std::locale());
}

}  // namespace

std::string BuiltInTest::report() const {
    thread_local ReportStreams streams;
    if (streams.depth == streams.levels.size()) streams.levels.emplace_back();
    std::ostringstream& os = streams.levels[streams.depth];
    reset_to_fresh(os);
    struct Level {
        std::size_t& depth;
        explicit Level(std::size_t& d) : depth(d) { ++depth; }
        ~Level() { --depth; }
        Level(const Level&) = delete;
        Level& operator=(const Level&) = delete;
    } level(streams.depth);
    Reporter(os);
    return os.str();
}

const char* to_string(AssertionKind kind) noexcept {
    switch (kind) {
        case AssertionKind::Invariant: return "Invariant";
        case AssertionKind::Precondition: return "Pre-condition";
        case AssertionKind::Postcondition: return "Post-condition";
    }
    return "?";
}

AssertionViolation::AssertionViolation(AssertionKind kind, std::string expression,
                                       std::string file, int line)
    : Error(std::string(to_string(kind)) + " is violated! (" + expression + " at " +
            file + ":" + std::to_string(line) + ")"),
      kind_(kind),
      expression_(std::move(expression)),
      file_(std::move(file)),
      line_(line) {}

QuiescenceViolation::QuiescenceViolation(std::string action, std::string detail)
    : Error("Illegal quiescence! (" + action + " was due: " + detail + ")"),
      action_(std::move(action)),
      detail_(std::move(detail)) {}

AssertionStats& AssertionStats::instance() noexcept {
    static thread_local AssertionStats stats;
    return stats;
}

void AssertionStats::record_check(AssertionKind kind) noexcept {
    ++by_kind_[static_cast<std::size_t>(kind)].checked;
}

void AssertionStats::record_violation(AssertionKind kind) noexcept {
    ++by_kind_[static_cast<std::size_t>(kind)].violated;
}

void AssertionStats::reset() noexcept {
    const int keep = suppress_depth_;
    *this = AssertionStats{};
    suppress_depth_ = keep;
}

AssertionStats::Counters AssertionStats::counters(AssertionKind kind) const noexcept {
    return by_kind_[static_cast<std::size_t>(kind)];
}

std::uint64_t AssertionStats::total_checked() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : by_kind_) total += c.checked;
    return total;
}

std::uint64_t AssertionStats::total_violated() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : by_kind_) total += c.violated;
    return total;
}

namespace detail {

bool assertions_active() noexcept {
    return TestMode::enabled() && !AssertionStats::instance().suppressed();
}

void check(AssertionKind kind, bool ok, const char* expression, const char* file,
           int line) {
    auto& stats = AssertionStats::instance();
    stats.record_check(kind);
    if (!ok) {
        stats.record_violation(kind);
        throw AssertionViolation(kind, expression, file, line);
    }
}

}  // namespace detail

}  // namespace stc::bit
