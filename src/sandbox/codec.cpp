#include "stc/sandbox/codec.h"

#include <utility>

namespace stc::sandbox {

obs::JsonObject outcome_object(const mutation::MutantOutcome& outcome,
                               const mutation::PruneStats* stats) {
    obs::JsonObject object;
    object.set("fate", mutation::to_string(outcome.fate));
    object.set("reason", oracle::to_string(outcome.reason));
    object.set("hit", outcome.hit_by_suite);
    object.set("probe_kill", outcome.killed_by_probe);
    object.set("model_only", outcome.model_only);
    if (stats != nullptr) {
        object.set("executed_pairs", stats->executed_pairs);
        object.set("pruned_pairs", stats->pruned_pairs);
        object.set("memoized_pairs", stats->memoized_pairs);
        object.set("memoized_calls", stats->memoized_calls);
    }
    return object;
}

std::optional<mutation::MutantOutcome> decode_outcome(
    const obs::JsonObject& reply) {
    const auto fate_text = reply.get_string("fate");
    const auto reason_text = reply.get_string("reason");
    const auto hit = reply.get_bool("hit");
    const auto probe_kill = reply.get_bool("probe_kill");
    const auto model_only = reply.get_bool("model_only");
    if (!fate_text || !reason_text || !hit || !probe_kill || !model_only) {
        return std::nullopt;
    }
    const auto fate = mutation::fate_from_string(*fate_text);
    const auto reason = oracle::kill_reason_from_string(*reason_text);
    if (!fate || !reason) return std::nullopt;
    mutation::MutantOutcome outcome;
    outcome.fate = *fate;
    outcome.reason = *reason;
    outcome.hit_by_suite = *hit;
    outcome.killed_by_probe = *probe_kill;
    outcome.model_only = *model_only;
    return outcome;
}

mutation::PruneStats decode_outcome_stats(const obs::JsonObject& reply) {
    const auto grab = [&](const char* key) {
        return reply.get_uint(key).value_or(0);
    };
    mutation::PruneStats stats;
    stats.executed_pairs = grab("executed_pairs");
    stats.pruned_pairs = grab("pruned_pairs");
    stats.memoized_pairs = grab("memoized_pairs");
    stats.memoized_calls = grab("memoized_calls");
    return stats;
}

std::string encode_outcome(const mutation::MutantOutcome& outcome,
                           const mutation::PruneStats* stats) {
    return outcome_object(outcome, stats).to_line();
}

std::optional<mutation::MutantOutcome> decode_outcome(
    std::string_view payload) {
    const auto reply = obs::JsonObject::parse(payload);
    return reply ? decode_outcome(*reply) : std::nullopt;
}

mutation::PruneStats decode_outcome_stats(std::string_view payload) {
    const auto reply = obs::JsonObject::parse(payload);
    return reply ? decode_outcome_stats(*reply) : mutation::PruneStats{};
}

mutation::MutantOutcome outcome_from_termination(std::string kind) {
    mutation::MutantOutcome outcome;
    outcome.fate = mutation::MutantFate::Killed;
    outcome.reason = oracle::KillReason::Crash;
    outcome.hit_by_suite = true;
    outcome.sandbox = std::move(kind);
    return outcome;
}

std::string encode_result(const driver::TestResult& result) {
    obs::JsonObject object;
    object.set("case", result.case_id);
    object.set("verdict", driver::to_string(result.verdict));
    object.set("method", result.failed_method);
    object.set("message", result.message);
    object.set("report", result.report);
    object.set("log", result.log);
    if (!result.model_divergence.empty()) {
        object.set("model_divergence", result.model_divergence);
    }
    if (result.assertion_kind) {
        object.set("assertion",
                   static_cast<std::int64_t>(*result.assertion_kind));
    }
    return object.to_line();
}

std::optional<driver::TestResult> decode_result(std::string_view payload) {
    const auto object = obs::JsonObject::parse(payload);
    if (!object) return std::nullopt;
    const auto case_id = object->get_string("case");
    const auto verdict_text = object->get_string("verdict");
    const auto method = object->get_string("method");
    const auto message = object->get_string("message");
    const auto report = object->get_string("report");
    const auto log = object->get_string("log");
    if (!case_id || !verdict_text || !method || !message || !report || !log) {
        return std::nullopt;
    }
    const auto verdict = driver::verdict_from_string(*verdict_text);
    if (!verdict) return std::nullopt;
    driver::TestResult result;
    result.case_id = *case_id;
    result.verdict = *verdict;
    result.failed_method = *method;
    result.message = *message;
    result.report = *report;
    result.log = *log;
    result.model_divergence = object->get_string("model_divergence").value_or("");
    if (const auto kind = object->get_int("assertion");
        kind && *kind >= 0 && *kind <= 2) {
        result.assertion_kind = static_cast<bit::AssertionKind>(*kind);
    }
    return result;
}

}  // namespace stc::sandbox
