#include "stc/mutation/coverage.h"

#include <string_view>

namespace stc::mutation {

bool CoverageIndex::covers(const std::string& case_id,
                           const Mutant& mutant) const {
    return first_hit(case_id, mutant).has_value();
}

std::optional<std::size_t> CoverageIndex::first_hit(const std::string& case_id,
                                                    const Mutant& mutant) const {
    const CaseCoverage* cc = find(case_id);
    if (cc == nullptr) return std::nullopt;
    const auto it = cc->first_hit.find(SiteKey{mutant.method, mutant.site_index});
    if (it == cc->first_hit.end()) return std::nullopt;
    return it->second;
}

const CoverageIndex::CaseCoverage* CoverageIndex::find(
    const std::string& case_id) const {
    const auto it = by_id_.find(case_id);
    return it != by_id_.end() ? &cases_[it->second] : nullptr;
}

std::size_t CoverageIndex::pair_count() const noexcept {
    std::size_t n = 0;
    for (const auto& cc : cases_) n += cc.first_hit.size();
    return n;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void absorb_bytes(std::uint64_t& h, std::string_view text) noexcept {
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
}

void absorb(std::uint64_t& h, std::string_view text) noexcept {
    absorb_bytes(h, text);
    h ^= 0x1f;  // separator so ("ab","c") != ("a","bc")
    h *= kFnvPrime;
}

/// Absorbs `method`'s qualified name ("Class::Method") as absorb would,
/// without building the string.
void absorb_qualified(std::uint64_t& h, const MethodDescriptor* method) noexcept {
    if (method == nullptr) {
        absorb(h, "?");
        return;
    }
    absorb_bytes(h, method->class_name());
    absorb_bytes(h, "::");
    absorb(h, method->method_name());
}

void absorb(std::uint64_t& h, std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
        h ^= value & 0xff;
        h *= kFnvPrime;
        value >>= 8;
    }
}

}  // namespace

std::uint64_t CoverageIndex::fingerprint() const noexcept {
    std::uint64_t h = kFnvOffset;
    for (const auto& cc : cases_) {
        absorb(h, cc.case_id);
        for (const auto& [key, call_index] : cc.first_hit) {
            absorb_qualified(h, key.first);
            absorb(h, static_cast<std::uint64_t>(key.second));
            absorb(h, static_cast<std::uint64_t>(call_index));
        }
    }
    return h;
}

void CoverageRecorder::on_case_begin(const driver::TestCase& test_case) {
    index_.cases_.push_back(CoverageIndex::CaseCoverage{test_case.id, {}});
    index_.by_id_.emplace(test_case.id, index_.cases_.size() - 1);
    current_call_ = 0;
}

void CoverageRecorder::on_call(std::size_t call_index) {
    current_call_ = call_index;
}

void CoverageRecorder::on_site(const MethodDescriptor& method, std::size_t site) {
    if (index_.cases_.empty()) return;  // site outside any case: untracked
    auto& hits = index_.cases_.back().first_hit;
    hits.emplace(CoverageIndex::SiteKey{&method, site}, current_call_);
}

CoveredRun run_with_coverage(const reflect::Registry& registry,
                             driver::RunnerOptions options,
                             const driver::TestSuite& suite) {
    CoveredRun out;
    CoverageRecorder recorder(out.index);
    options.observer = &recorder;
    const driver::TestRunner runner(registry, options);
    const CoverageScope scope(recorder);
    out.result = runner.run(suite);
    return out;
}

}  // namespace stc::mutation
