// The Driver Generator (§3.4.1) — the heart of the consumer-side
// methodology.
//
// "The Driver Generator creates test cases according to the transaction
// coverage criterion that requires exercising each individual transaction
// at least once. ... Values of input parameters for each method are also
// generated, by randomly selecting a value from the valid subdomain."
//
// Structured (object/pointer) parameters are completed by the tester; a
// CompletionRegistry plays that role programmatically so suites remain
// executable end-to-end.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "stc/domain/domain.h"
#include "stc/driver/test_case.h"
#include "stc/obs/context.h"
#include "stc/tfm/coverage.h"
#include "stc/tspec/model.h"

namespace stc::driver {

/// The tester's manual completions for structured parameter types,
/// keyed by pointee class name (t-spec Object/Pointer slots).
///
/// Thread-safety contract: a completion typically allocates from an
/// arena the component's pointers refer to (mfc::ElementPool and the
/// example pools append to an unguarded vector), and parallel code —
/// `kill --jobs`, `campaign --shrink-corpus --jobs` — completes
/// concurrently.  provide() therefore wraps each completion so calls to
/// it are serialized, across every copy of the registry; completions
/// themselves need no locking.  Code that calls an arena directly, not
/// through a registry, gets no such guarantee.
class CompletionRegistry {
public:
    using Completion = domain::PointerDomain::Completion;

    /// Register `completion` for `class_name`; the stored completion
    /// serializes its calls (see the class comment).
    void provide(const std::string& class_name, Completion completion);
    [[nodiscard]] const Completion* find(const std::string& class_name) const;

private:
    std::map<std::string, Completion> completions_;
};

/// Value-selection policy.  The paper uses Random; Boundary additionally
/// cycles through domain boundary values (an ablation extension).
enum class ValuePolicy { Random, Boundary };

struct GeneratorOptions {
    std::uint64_t seed = 20010701;  ///< DSN 2001 vintage default
    tfm::EnumerationOptions enumeration;
    tfm::Criterion criterion = tfm::Criterion::AllTransactions;
    ValuePolicy value_policy = ValuePolicy::Random;
    /// Test cases generated per selected transaction (different random
    /// argument values each).
    std::size_t cases_per_transaction = 1;
    /// When the t-spec declares predefined states (State records) and
    /// the binding has the set/reset capability, additionally generate
    /// one variant per transaction per state, entering the transaction
    /// from that state instead of a fresh object (§3.3 extension).
    bool include_entry_states = false;
    /// Observability: a "generate-suite" phase span plus counters for
    /// synthesized cases and RNG value draws.  Disabled by default.
    obs::Context obs;
};

/// Synthesize one method call with generated argument values — the
/// §3.4.1 value-selection step, shared by the DriverGenerator and the
/// coverage-guided fuzzer (stc::fuzz).  `case_ordinal` indexes the
/// boundary/invalid value cycles; `expect_rejection` drives one
/// parameter outside its domain (negative call).  Sets *needs_completion
/// when a structured parameter had no completion hook.
[[nodiscard]] MethodCall synthesize_call(const tspec::MethodSpec& method,
                                         support::Pcg32& rng,
                                         std::size_t case_ordinal,
                                         const CompletionRegistry* completions,
                                         ValuePolicy policy,
                                         bool* needs_completion,
                                         bool expect_rejection = false,
                                         const obs::Context& obs = {});

/// Generates an executable TestSuite from a component's embedded t-spec.
class DriverGenerator {
public:
    DriverGenerator(tspec::ComponentSpec spec, GeneratorOptions options = {});

    /// Provide tester completions for structured parameters.
    DriverGenerator& completions(const CompletionRegistry* registry);

    /// Enumerate transactions, select per the criterion, and synthesize
    /// test cases with generated argument values.  Throws SpecError when
    /// the spec is invalid or a transaction's birth node lacks a usable
    /// constructor.
    [[nodiscard]] TestSuite generate() const;

    /// The transactions the suite would cover (before value generation);
    /// exposed for coverage analysis and the figure benches.
    [[nodiscard]] std::vector<tfm::Transaction> transactions() const;

    /// True when some parameter domain can name an out-of-domain value.
    [[nodiscard]] static bool can_reject(const tspec::MethodSpec& method);

private:
    tspec::ComponentSpec spec_;  // owned: callers may pass temporaries
    GeneratorOptions options_;
    const CompletionRegistry* completions_ = nullptr;
};

}  // namespace stc::driver
