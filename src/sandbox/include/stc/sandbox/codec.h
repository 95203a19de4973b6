// Payload encoding above the frame layer: what the sandbox ships
// between orchestrator and worker in stc::wire raw frames, and what a
// `concat serve` daemon's Result frame carries.
//
// Two payload schemas, both one flat JSON object per frame
// (obs::JsonObject, docs/FORMATS.md §8):
//   - a MutantOutcome reply for `concat campaign --isolate` (the
//     request direction is just a decimal item index), which is also
//     the core of the dispatch Result payload (§10);
//   - a TestResult reply for `concat fuzz --isolate` (the request is a
//     serialized one-case suite, driver/suite_io.h).
//
// Both ends of every such channel are the same build (a fork, or a
// daemon whose protocol version and campaign fingerprint matched), so
// the decoders require every field the encoder always writes.  The
// outcome codec works on obs::JsonObject: a sender renders the object
// once, a receiver parses the frame once and decodes from the object.
//
// The codec also builds the synthetic outcome recorded when a worker
// never replies at all: a sandbox termination IS a kill in the paper's
// §4 sense (condition i — the run crashed), so the item is fated
// Killed / reason Crash, with the outcome kind preserved verbatim in
// MutantOutcome::sandbox.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "stc/driver/runner.h"
#include "stc/mutation/engine.h"
#include "stc/mutation/prune.h"
#include "stc/obs/json.h"

namespace stc::sandbox {

/// The child-computed outcome (fate/reason/hit/probe-kill/model-only)
/// as a reply object.  The mutant pointer does not travel; the parent
/// rebinds it by item index.  `stats`, when given, rides along as
/// executed/pruned/memoized pair counters (pruned campaign items only,
/// so an unpruned reply carries no misleading zeros).
[[nodiscard]] obs::JsonObject outcome_object(
    const mutation::MutantOutcome& outcome,
    const mutation::PruneStats* stats = nullptr);

/// Decode a reply object; std::nullopt when a field is missing or
/// unknown (a worker that printed garbage).  Extra fields (a dispatch
/// Result's item/mutant/wall_ms) are ignored.  `mutant` is left null.
[[nodiscard]] std::optional<mutation::MutantOutcome> decode_outcome(
    const obs::JsonObject& reply);

/// Prune counters of a reply object; all-zero when it carries none
/// (an unpruned run).
[[nodiscard]] mutation::PruneStats decode_outcome_stats(
    const obs::JsonObject& reply);

/// String forms of the three above: render once, parse once.
[[nodiscard]] std::string encode_outcome(
    const mutation::MutantOutcome& outcome,
    const mutation::PruneStats* stats = nullptr);
[[nodiscard]] std::optional<mutation::MutantOutcome> decode_outcome(
    std::string_view payload);
[[nodiscard]] mutation::PruneStats decode_outcome_stats(
    std::string_view payload);

/// The outcome recorded for an item whose worker crashed, hung, or hit
/// a resource limit instead of replying: Killed / Crash / hit, with
/// `kind` ("crash-signal:<n>" | "timeout" | "resource-limit" |
/// "worker-exit:<c>") stored in MutantOutcome::sandbox.
[[nodiscard]] mutation::MutantOutcome outcome_from_termination(
    std::string kind);

/// Serialize one TestResult (fuzz isolated replay reply).
[[nodiscard]] std::string encode_result(const driver::TestResult& result);

/// Parse a TestResult reply frame; std::nullopt on malformed input.
[[nodiscard]] std::optional<driver::TestResult> decode_result(
    std::string_view payload);

}  // namespace stc::sandbox
