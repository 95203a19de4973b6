#include "stc/driver/runner.h"

#include <chrono>
#include <sstream>

#include "stc/bit/built_in_test.h"
#include "stc/support/error.h"

namespace stc::driver {

const char* to_string(Verdict v) noexcept {
    switch (v) {
        case Verdict::Pass: return "pass";
        case Verdict::AssertionViolation: return "assertion-violation";
        case Verdict::Crash: return "crash";
        case Verdict::UncaughtException: return "uncaught-exception";
        case Verdict::SetupError: return "setup-error";
        case Verdict::ContractNotEnforced: return "contract-not-enforced";
        case Verdict::ModelDivergence: return "model-divergence";
        case Verdict::IllegalQuiescence: return "illegal-quiescence";
    }
    return "?";
}

std::optional<Verdict> verdict_from_string(std::string_view text) noexcept {
    for (const Verdict v : kAllVerdicts) {
        if (text == to_string(v)) return v;
    }
    return std::nullopt;
}

std::size_t SuiteResult::count(Verdict v) const noexcept {
    std::size_t n = 0;
    for (const auto& r : results) n += r.verdict == v ? 1 : 0;
    return n;
}

TestRunner::TestRunner(const reflect::Registry& registry, RunnerOptions options)
    : registry_(registry), options_(options) {}

namespace {

/// Owns the CUT for the duration of one test case; destruction is
/// best-effort (a corrupted object may crash again while dying, which the
/// paper's per-process drivers simply absorbed at exit).
class CutGuard {
public:
    CutGuard(const reflect::ClassBinding& binding, void* object) noexcept
        : binding_(binding), object_(object) {}

    ~CutGuard() { reset(); }

    CutGuard(const CutGuard&) = delete;
    CutGuard& operator=(const CutGuard&) = delete;

    [[nodiscard]] void* get() const noexcept { return object_; }
    [[nodiscard]] bool alive() const noexcept { return object_ != nullptr; }

    void reset() noexcept {
        if (object_ != nullptr) {
            try {
                binding_.destroy(object_);
            } catch (...) {
                // Swallow: the object was already failing; this mirrors the
                // paper's crashed-driver handling.
            }
            object_ = nullptr;
        }
    }

private:
    const reflect::ClassBinding& binding_;
    void* object_;
};

std::string capture_state(const reflect::ClassBinding& binding, void* object) {
    bit::BuiltInTest* bit_view = binding.as_bit(object);
    if (bit_view == nullptr) return {};
    try {
        return bit_view->report();
    } catch (...) {
        return "<Reporter failed>";
    }
}

void check_invariant(const reflect::ClassBinding& binding, void* object) {
    bit::BuiltInTest* bit_view = binding.as_bit(object);
    if (bit_view != nullptr) bit_view->InvariantTest();
}

/// Deterministic rendering of a return value for the observation log.
/// Raw addresses never appear (they vary run to run); a pointer is
/// reduced to its null/non-null shape, which *is* deterministic for a
/// fixed call sequence.
std::string render_return(const domain::Value& v) {
    switch (v.kind()) {
        case domain::ValueKind::Pointer:
            return v.as_pointer() == nullptr ? "<null>" : "<object>";
        case domain::ValueKind::Object:
            return "<object>";
        default:
            return v.to_display();
    }
}

}  // namespace

TestResult TestRunner::run_case(const reflect::ClassBinding& binding,
                                const TestCase& test_case) const {
    return run_case_impl(binding, test_case, nullptr, nullptr, nullptr, false);
}

std::vector<CaseCheckpoint> TestRunner::capture_case(
    const reflect::ClassBinding& binding, const TestCase& test_case,
    const std::vector<std::size_t>& boundaries) const {
    std::vector<CaseCheckpoint> out;
    if (boundaries.empty() || !binding.has_cloner()) return out;
    (void)run_case_impl(binding, test_case, nullptr, &boundaries, &out, true);
    return out;
}

TestRunner::CapturedRun TestRunner::run_and_capture(
    const reflect::ClassBinding& binding, const TestCase& test_case,
    const std::vector<std::size_t>& boundaries,
    const CaseCheckpoint* from) const {
    CapturedRun out;
    out.result = run_case_impl(binding, test_case, from, &boundaries,
                               &out.checkpoints, false);
    return out;
}

TestResult TestRunner::run_case_from(const reflect::ClassBinding& binding,
                                     const TestCase& test_case,
                                     const CaseCheckpoint& checkpoint) const {
    return run_case_impl(binding, test_case, &checkpoint, nullptr, nullptr,
                         false);
}

TestResult TestRunner::run_case_impl(const reflect::ClassBinding& binding,
                                     const TestCase& test_case,
                                     const CaseCheckpoint* resume,
                                     const std::vector<std::size_t>* boundaries,
                                     std::vector<CaseCheckpoint>* captured,
                                     bool capture_only) const {
    TestResult result;
    result.case_id = test_case.id;

    using ObsClock = std::chrono::steady_clock;
    const bool metered = options_.obs.metrics.enabled();
    const ObsClock::time_point case_start =
        metered ? ObsClock::now() : ObsClock::time_point{};
    const obs::SpanScope case_span(options_.obs.tracer, "test-case",
                                   test_case.id);

    const bit::TestModeGuard test_mode;
    std::string log;
    std::string observations;  // return values (+ per-call state)
    std::string state_report;  // object state before death

    // The method a failure names: the current call, rendered only when a
    // failure or a divergence reads it, or a marker when no call is
    // current ("<none>", "<resume>", "<set-state:...>").
    const MethodCall* current_call = nullptr;
    std::string current_marker = "<none>";
    auto current_method = [&] {
        return current_call != nullptr ? current_call->render()
                                       : current_marker;
    };
    auto record_failure = [&](Verdict verdict, const std::string& message) {
        result.verdict = verdict;
        result.message = message;
        result.failed_method = current_method();
        // Fig. 6 failure block: test case name, error message, method name.
        log += "TestCase ";
        log += test_case.id;
        log += '\n';
        log += message;
        log += "\nMethod called: ";
        log += result.failed_method;
        log += '\n';
    };
    auto finish = [&] {
        result.report = std::move(observations);
        result.report += state_report;
        result.log = std::move(log);
        if (metered) {
            options_.obs.metrics.add(std::string("runner.verdict.") +
                                     to_string(result.verdict));
            options_.obs.metrics.observe_ms(
                "runner.case_ms",
                std::chrono::duration<double, std::milli>(ObsClock::now() -
                                                          case_start)
                    .count());
        }
    };

    // Invariant evaluations are counted (runner.invariant_checks), not
    // traced: one span per InvariantTest() ran after every method call
    // and was over half of a campaign trace's volume — finer than the
    // method-call granularity the trace promises, and heavy enough to
    // distort the streamed-telemetry path it was meant to observe.
    auto observe_invariant = [&](void* object) {
        options_.obs.metrics.add("runner.invariant_checks");
        check_invariant(binding, object);
    };

    CaseObserver* const observer = options_.observer;
    if (observer != nullptr) observer->on_case_begin(test_case);

    // --- Construction (or checkpoint resume) -------------------------------
    const MethodCall* ctor = nullptr;
    void* raw = nullptr;
    if (resume != nullptr) {
        // Clone failures propagate uncaught: the caller falls back to a
        // full run rather than recording a fabricated verdict.
        raw = binding.clone(resume->prototype.get());
        observations = resume->observations;
        current_marker = "<resume>";
    } else {
        try {
            ctor = &test_case.constructor_call();
        } catch (const Error& e) {
            record_failure(Verdict::SetupError, e.what());
            finish();
            return result;
        }

        current_call = ctor;
        try {
            raw = binding.construct(ctor->arguments);
        } catch (const bit::AssertionViolation& av) {
            result.assertion_kind = av.assertion_kind();
            record_failure(Verdict::AssertionViolation, av.what());
            finish();
            return result;
        } catch (const bit::QuiescenceViolation& qv) {
            record_failure(Verdict::IllegalQuiescence, qv.what());
            finish();
            return result;
        } catch (const CrashSignal& cs) {
            record_failure(Verdict::Crash, cs.what());
            finish();
            return result;
        } catch (const ReflectError& re) {
            record_failure(Verdict::SetupError, re.what());
            finish();
            return result;
        } catch (const std::exception& e) {
            record_failure(Verdict::UncaughtException, e.what());
            finish();
            return result;
        }
    }

    CutGuard cut(binding, raw);

    // --- Lockstep reference model (differential oracle seam) ---------------
    // Mirrors every successful call into a fresh model instance (or, on a
    // resume, a clone of the checkpoint's) and records the first
    // disagreement.  Strictly read-only on the CUT: the projection uses
    // uninstrumented const accessors only, so the live run (verdicts,
    // reports, mutation hits) is byte-identical with or without a model
    // attached.
    std::unique_ptr<LockstepModel> model;
    bool model_engaged = false;
    std::string diverged_method;
    // A divergence names the current method: the model is compared right
    // after the runner's call.
    auto model_diverge = [&](std::size_t call_index, const char* aspect,
                             const std::string& expected,
                             const std::string& actual) {
        diverged_method = current_method();
        std::ostringstream os;
        os << "call " << call_index << " " << diverged_method << ": " << aspect
           << " expected \"" << expected << "\" got \"" << actual << "\"";
        result.model_divergence = os.str();
        options_.obs.metrics.add("model.divergences");
        model_engaged = false;  // first divergence is the finding; stop there
    };
    auto model_compare_state = [&](std::size_t call_index) {
        if (!model_engaged || model->conforms(cut.get())) return;
        const std::string live = options_.model->project(cut.get());
        const std::string predicted = model->abstract_state();
        if (live != predicted) {
            model_diverge(call_index, "state", predicted, live);
        }
    };
    const bool modeled = options_.model != nullptr && options_.model->valid();
    if (resume != nullptr) {
        result.model_divergence = resume->model_divergence;
        diverged_method = resume->diverged_method;
        if (modeled && resume->model != nullptr) {
            try {
                model = resume->model->clone();
                model_engaged = model != nullptr;
            } catch (...) {
                model_engaged = false;
            }
        }
    } else if (modeled) {
        try {
            model = options_.model->factory();
            model_engaged =
                model != nullptr && model->construct(ctor->arguments);
            if (model_engaged) {
                const obs::SpanScope span(options_.obs.tracer, "model-compare",
                                          ctor->method_name);
                options_.obs.metrics.add("model.compares");
                model_compare_state(0);
            }
        } catch (...) {
            model_engaged = false;  // a broken model must never fail the run
        }
    }

    // --- Optional mid-life entry: apply the predefined state (§3.3) -------
    // A checkpoint resume skips this: entry-state application is part of
    // call index 0, already folded into the checkpointed prefix.
    if (resume == nullptr && !test_case.entry_state.empty()) {
        current_call = nullptr;
        current_marker = "<set-state:" + test_case.entry_state + ">";
        try {
            binding.apply_state(cut.get(), test_case.entry_state);
        } catch (const ReflectError& re) {
            record_failure(Verdict::SetupError, re.what());
            finish();
            return result;
        } catch (const bit::AssertionViolation& av) {
            result.assertion_kind = av.assertion_kind();
            record_failure(Verdict::AssertionViolation, av.what());
            finish();
            return result;
        } catch (const bit::QuiescenceViolation& qv) {
            record_failure(Verdict::IllegalQuiescence, qv.what());
            finish();
            return result;
        } catch (const CrashSignal& cs) {
            record_failure(Verdict::Crash, cs.what());
            finish();
            return result;
        } catch (const std::exception& e) {
            record_failure(Verdict::UncaughtException, e.what());
            finish();
            return result;
        }
        if (model_engaged) {
            try {
                model_engaged = model->apply_state(test_case.entry_state);
                model_compare_state(0);
            } catch (...) {
                model_engaged = false;
            }
        }
    }

    // --- Checkpoint capture (prefix memoization producer) ------------------
    // A checkpoint at boundary k snapshots the CUT, the observation stream
    // and the lockstep model *before* body call k executes.  Cloning
    // happens with no mutant active; a refusal stops further capture
    // (suffix runs stay full).
    std::size_t next_boundary = 0;
    bool capturing = captured != nullptr && boundaries != nullptr;
    auto snapshot = [&](std::size_t call_index) -> bool {
        if (!cut.alive()) return false;
        CaseCheckpoint checkpoint;
        checkpoint.resume_call = call_index;
        try {
            checkpoint.prototype = std::shared_ptr<void>(
                binding.clone(cut.get()), [b = &binding](void* p) {
                    try {
                        b->destroy(p);
                    } catch (...) {
                    }
                });
            if (model_engaged) checkpoint.model = model->clone();
        } catch (...) {
            return false;
        }
        checkpoint.observations = observations;
        checkpoint.model_divergence = result.model_divergence;
        checkpoint.diverged_method = diverged_method;
        captured->push_back(std::move(checkpoint));
        return true;
    };
    // Boundaries are visited in order; the one at `call_index`, if any,
    // is captured.  A boundary at calls.size() is the implicit wrap-up.
    // Returns true when a capture-only run (capture_case) is done — its
    // last checkpoint taken, or capture stopped — since nothing past that
    // point is ever read.
    auto capture_at = [&](std::size_t call_index) {
        while (next_boundary < boundaries->size() &&
               (*boundaries)[next_boundary] < call_index) {
            ++next_boundary;
        }
        if (next_boundary < boundaries->size() &&
            (*boundaries)[next_boundary] == call_index) {
            capturing = snapshot(call_index);
            ++next_boundary;
        }
        return capture_only &&
               (!capturing || next_boundary == boundaries->size());
    };

    // --- Body: methods along the transaction, invariant around each -------
    try {
        const std::size_t first_call =
            resume != nullptr ? resume->resume_call : 1;
        for (std::size_t i = first_call; i < test_case.calls.size(); ++i) {
            if (observer != nullptr) observer->on_call(i);
            if (capturing && capture_at(i)) return result;
            const MethodCall& call = test_case.calls[i];
            current_call = &call;
            options_.obs.metrics.add("runner.method_calls");
            const obs::SpanScope call_span(options_.obs.tracer, "method-call",
                                           call.method_name);

            if (call.is_destructor) {
                // Observable state is captured before death (Fig. 6 calls
                // Reporter, then deletes the CUT).
                state_report = capture_state(binding, cut.get());
                cut.reset();
                continue;
            }

            if (!cut.alive()) {
                throw SpecError("method call after destructor in transaction " +
                                test_case.transaction_text);
            }

            if (call.expect_rejection) {
                // Error-recovery call: the contract must reject it and the
                // object must remain usable afterwards.
                bool rejected = false;
                try {
                    (void)binding.invoke(cut.get(), call.method_name,
                                         call.arguments);
                } catch (const bit::AssertionViolation& av) {
                    rejected = av.assertion_kind() ==
                               bit::AssertionKind::Precondition;
                    if (!rejected) throw;  // invariant/post break: real failure
                }
                if (!rejected) {
                    record_failure(Verdict::ContractNotEnforced,
                                   "out-of-contract call was accepted");
                    break;
                }
                observations += call.method_name;
                observations += " -> <rejected>\n";
                observe_invariant(cut.get());
                continue;
            }

            observe_invariant(cut.get());
            const domain::Value rv =
                binding.invoke(cut.get(), call.method_name, call.arguments);
            observe_invariant(cut.get());
            const std::string returned =
                rv.is_empty() ? std::string() : render_return(rv);

            if (model_engaged) {
                const obs::SpanScope span(options_.obs.tracer, "model-compare",
                                          call.method_name);
                options_.obs.metrics.add("model.compares");
                try {
                    const ModelPrediction prediction = model->apply(call);
                    if (!prediction.modeled) {
                        model_engaged = false;  // modelling gap, not a finding
                    } else {
                        const std::string expected =
                            prediction.has_return ? prediction.rendered_return
                                                  : std::string();
                        if (expected != returned) {
                            model_diverge(i, "return", expected, returned);
                        } else {
                            model_compare_state(i);
                        }
                    }
                } catch (...) {
                    model_engaged = false;
                }
            }

            if (!rv.is_empty()) {
                observations += call.method_name;
                observations += " -> ";
                observations += returned;
                observations += '\n';
            }
            if (options_.observe_each_call) {
                observations += capture_state(binding, cut.get());
                observations += '\n';
            }
        }

        // Transactions whose death node has no explicit destructor method
        // still end with the object's destruction (delete CUT in Fig. 6).
        if (result.verdict == Verdict::Pass) {
            if (cut.alive()) {
                if (observer != nullptr) {
                    observer->on_call(test_case.calls.size());
                }
                if (capturing && capture_at(test_case.calls.size())) {
                    return result;
                }
                state_report = capture_state(binding, cut.get());
                cut.reset();
            }
            if (options_.promote_divergence &&
                !result.model_divergence.empty()) {
                current_call = nullptr;
                current_marker = diverged_method;
                record_failure(Verdict::ModelDivergence,
                               result.model_divergence);
            } else {
                log += "TestCase ";
                log += test_case.id;
                log += " OK!\n";
            }
        }
    } catch (const bit::AssertionViolation& av) {
        result.assertion_kind = av.assertion_kind();
        record_failure(Verdict::AssertionViolation, av.what());
        if (cut.alive()) {
            state_report = capture_state(binding, cut.get());
        }
    } catch (const bit::QuiescenceViolation& qv) {
        record_failure(Verdict::IllegalQuiescence, qv.what());
        if (cut.alive()) {
            state_report = capture_state(binding, cut.get());
        }
    } catch (const CrashSignal& cs) {
        record_failure(Verdict::Crash, cs.what());
        // No state report: the object is presumed corrupted beyond observation.
    } catch (const ReflectError& re) {
        record_failure(Verdict::SetupError, re.what());
    } catch (const std::exception& e) {
        record_failure(Verdict::UncaughtException, e.what());
        if (cut.alive()) {
            state_report = capture_state(binding, cut.get());
        }
    }

    finish();
    return result;
}

SuiteResult TestRunner::run(const TestSuite& suite) const {
    const reflect::ClassBinding& binding = registry_.at(suite.class_name);

    const obs::SpanScope suite_span(options_.obs.tracer, "suite-run",
                                    suite.class_name);
    // Assertion evaluations are counted per thread (thread_local stats),
    // so the delta below attributes correctly even when several runner
    // copies execute on campaign workers concurrently.
    const bool metered = options_.obs.metrics.enabled();
    const auto& assertion_stats = bit::AssertionStats::instance();
    const std::uint64_t checked_before =
        metered ? assertion_stats.total_checked() : 0;
    const std::uint64_t violated_before =
        metered ? assertion_stats.total_violated() : 0;

    SuiteResult out;
    out.results.reserve(suite.cases.size());
    std::ostringstream log;
    for (const TestCase& tc : suite.cases) {
        TestResult r = run_case(binding, tc);
        log << r.log;
        if (!r.report.empty()) log << r.report << "\n";
        log << "\n";
        out.results.push_back(std::move(r));
    }
    out.log = log.str();

    if (metered) {
        options_.obs.metrics.add("runner.suites");
        options_.obs.metrics.add(
            "bit.assertions_checked",
            assertion_stats.total_checked() - checked_before);
        options_.obs.metrics.add(
            "bit.assertions_violated",
            assertion_stats.total_violated() - violated_before);
    }
    return out;
}

}  // namespace stc::driver
