// Lockstep reference models — the differential-oracle seam of the
// runner (stc::model provides the concrete models).
//
// The paper's oracle is explicitly partial: embedded assertions plus
// hand-validated golden outputs.  A reference model closes part of the
// gap by re-executing every method call of a test case against a cheap,
// obviously-correct implementation of the component's *specified*
// behaviour (Brinkmeyer's executable-specification conformance idea)
// and comparing, after each call,
//   - the predicted return value (rendered exactly like the runner's
//     observation log renders the live return), and
//   - an abstracted projection of the observable state, produced on the
//     model side by abstract_state() and on the live side by a
//     read-only ModelBinding::project of the object under test.
// A model may first answer the state compare by identity
// (LockstepModel::conforms): a "yes" skips both renderings, anything
// else falls through to the rendered compare, which alone decides and
// words a divergence.
// The first mismatch is a *model divergence*: recorded verbatim on the
// TestResult (side channel, never in the report/log, so runs with and
// without a model stay byte-identical) and optionally promoted to
// Verdict::ModelDivergence for engines that treat verdicts as signals
// (the fuzzer's interest map, the shrinker's predicate).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stc/domain/value.h"
#include "stc/driver/test_case.h"

namespace stc::driver {

/// Outcome of mirroring one call into the reference model.
struct ModelPrediction {
    /// False when the model cannot predict this call (unknown method,
    /// unsupported argument shape).  The runner then disengages the
    /// model for the rest of the case — an unmodeled call is a modelling
    /// gap, never a divergence.
    bool modeled = false;
    /// Whether the call is expected to produce an observable return
    /// value (the runner only logs non-empty returns).
    bool has_return = false;
    /// Expected observation-log rendering of the return value, exactly
    /// as the runner's render_return would print the live one
    /// ("<object>", "12", "CInt(7)", ...).  Meaningful iff has_return.
    std::string rendered_return;
};

/// A reference model instance, mirroring the life of ONE object under
/// test (one per test case; never shared across cases or threads).
class LockstepModel {
public:
    virtual ~LockstepModel() = default;

    /// Mirror the constructor call.  Returns false when the argument
    /// shape is not modeled (the runner disengages, silently).
    virtual bool construct(const std::vector<domain::Value>& args) = 0;

    /// Mirror a predefined entry state (§3.3 mid-life entry).  Returns
    /// false for states the model does not know.
    virtual bool apply_state(const std::string& state) = 0;

    /// Mirror one (non-constructor, non-destructor) method call that
    /// the live object executed successfully, and predict its rendered
    /// return value.  Must be deterministic and exception-free.
    virtual ModelPrediction apply(const MethodCall& call) = 0;

    /// Deterministic abstraction of the model's observable state, in
    /// the same format the paired ModelBinding::project produces for
    /// the live object (e.g. "count=2 [CInt(3), CInt(7)]").
    [[nodiscard]] virtual std::string abstract_state() const = 0;

    /// Optional identity fast path for the state compare, one-way: true
    /// promises that the paired ModelBinding::project(object) equals
    /// abstract_state() (say, every live element is the very object the
    /// model holds), so the runner renders neither.  False promises
    /// nothing — the runner then renders both and compares the strings,
    /// and only that compare decides a divergence and writes its text.
    /// Read-only on the object, like project, and never throws.  The
    /// default answers false, which is always correct.
    [[nodiscard]] virtual bool conforms(const void* object) const noexcept {
        (void)object;
        return false;
    }

    /// Snapshot of this instance: a deep, independent copy that predicts
    /// exactly what this one would from here on.  Applying calls to
    /// either copy never changes the other's abstract_state(), and
    /// cloning is deterministic (equal sources give equal clones).
    /// Checkpoints (runner.h CaseCheckpoint) carry one, so a resumed run
    /// keeps its lockstep compares; the kill search advances clones of
    /// its parent state's model instead of replaying from construction.
    [[nodiscard]] virtual std::unique_ptr<LockstepModel> clone() const = 0;
};

/// How a runner binds a reference model to a class under test.
struct ModelBinding {
    /// Fresh model per test case.
    std::function<std::unique_ptr<LockstepModel>()> factory;
    /// Project the live object's observable state into the same
    /// abstraction abstract_state() produces.  MUST be read-only on the
    /// object (only uninstrumented const accessors) and must never
    /// throw — a projection that cannot complete (corrupted structure)
    /// returns a deterministic marker such as "<fault>" instead, which
    /// simply never matches a healthy model state.
    std::function<std::string(const void* object)> project;

    [[nodiscard]] bool valid() const noexcept {
        return static_cast<bool>(factory) && static_cast<bool>(project);
    }
};

}  // namespace stc::driver
