#include "stc/model/model.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "stc/mfc/coblist.h"
#include "stc/mfc/sortable.h"

namespace stc::model {

namespace {

using mfc::CObject;

/// Elements shown before an abstraction truncates with "...".  Bounds
/// the live-side walk too, so a mutated m_nCount of a million can never
/// stall a projection (a count that large diverges at "count=" anyway).
constexpr std::size_t kMaxProjected = 64;

std::string text_of(const CObject* element) {
    return element != nullptr ? element->ToText() : "<null>";
}

/// Shared abstraction format, "count=N [CInt(3), CInt(7)]": produced
/// verbatim by the model's abstract_state() and, element-for-element,
/// by the live projection below — byte equality IS conformance.  Both
/// append into one string: they run after every modelled call.
class Abstraction {
public:
    explicit Abstraction(std::size_t count) {
        text_.reserve(16 + 10 * std::min(count, kMaxProjected));
        text_ = "count=";
        text_ += std::to_string(count);
        text_ += " [";
    }

    void element(const std::string& text) {
        if (!first_) text_ += ", ";
        first_ = false;
        text_ += text;
    }
    void element(const CObject* object) {
        element(text_of(object));
    }

    std::string finish() && {
        text_ += ']';
        return std::move(text_);
    }

private:
    std::string text_;
    bool first_ = true;
};

/// Read-only projection of a live CObList into the shared abstraction.
/// Never throws: a walk the corrupted structure cuts short (checked()
/// StructuralFault, null chain before m_nCount elements, extra nodes
/// beyond it) lands as a deterministic marker that no healthy model
/// state can equal.
std::string project_live(const mfc::CObList& list) noexcept {
    try {
        const int count = list.GetCount();
        const std::size_t target =
            count < 0 ? 0 : static_cast<std::size_t>(count);
        const std::size_t walk_limit = std::min(target, kMaxProjected);

        Abstraction out(target);
        std::size_t walked = 0;
        mfc::POSITION pos = list.GetHeadPosition();
        while (pos != nullptr && walked < walk_limit) {
            out.element(list.GetNext(pos));
            ++walked;
        }
        if (walked < walk_limit) {
            out.element("<short>");  // chain ended before m_nCount
        } else if (target > kMaxProjected) {
            out.element("...");
        } else if (pos != nullptr) {
            out.element("<extra>");  // nodes beyond m_nCount
        }
        return std::move(out).finish();
    } catch (...) {
        return "<fault>";
    }
}

/// The bound class's object viewed as the list both classes are.
using LiveList = const mfc::CObList* (*)(const void* object);

template <typename T>
const mfc::CObList* live_list(const void* object) noexcept {
    return static_cast<const T*>(object);
}

/// Reference model of CObList (and, with sortable=true, of
/// CSortableObList): element pointers in list order.  Elements are
/// owned by the generator's ElementPool and outlive every test case,
/// so holding pointers is safe; predictions render them through the
/// same ToText the binding wrappers use.
class ListModel final : public driver::LockstepModel {
public:
    ListModel(bool sortable, LiveList live) noexcept
        : live_(live), sortable_(sortable) {}

    bool construct(const std::vector<domain::Value>& args) override {
        // Both classes bind a zero-argument constructor.
        return args.empty();
    }

    bool apply_state(const std::string&) override {
        return false;  // no predefined mid-life states are modeled
    }

    driver::ModelPrediction apply(const driver::MethodCall& call) override {
        const std::string& name = call.method_name;
        if (name == "AddHead" || name == "AddTail") {
            const CObject* element = element_arg(call);
            if (element == nullptr) return {};  // unmodeled argument shape
            if (name == "AddHead") {
                elements_.insert(elements_.begin(), element);
            } else {
                elements_.push_back(element);
            }
            return predict("<object>");  // a fresh POSITION, never null
        }
        if (name == "GetCount") {
            return predict(std::to_string(elements_.size()));
        }
        if (name == "IsEmpty") {
            return predict(elements_.empty() ? "1" : "0");
        }
        if (name == "RemoveAll") {
            elements_.clear();
            return driver::ModelPrediction{true, false, {}};
        }
        if (name == "RemoveHead" || name == "RemoveTail") {
            if (elements_.empty()) return predict("<noop>");
            const bool head = name == "RemoveHead";
            const CObject* removed =
                head ? elements_.front() : elements_.back();
            elements_.erase(head ? elements_.begin() : elements_.end() - 1);
            return predict(text_of(removed));
        }
        if (name == "RemoveAt") {
            // Wrapper semantics: empty -> "<noop>", otherwise the index
            // argument is completed modulo the count and the new count
            // is returned.
            if (elements_.empty()) return predict("<noop>");
            const auto index = index_arg(call);
            if (index < 0) return {};  // the live wrapper would fault
            elements_.erase(elements_.begin() + index);
            return predict(std::to_string(elements_.size()));
        }
        if (name == "FindIndex") {
            if (elements_.empty()) return predict("<none>");
            const auto index = index_arg(call);
            if (index < 0) return predict("<none>");
            return predict(text_of(elements_[static_cast<std::size_t>(index)]));
        }
        if (sortable_) {
            if (name == "Sort1" || name == "Sort2" || name == "ShellSort") {
                // All three sorts specify the same observable outcome:
                // ascending by CObject::Compare.  Ties render
                // identically (equal CInts share their ToText), so
                // stability cannot show in the abstraction.
                std::stable_sort(elements_.begin(), elements_.end(),
                                 [](const CObject* a, const CObject* b) {
                                     return a->Compare(*b) < 0;
                                 });
                return driver::ModelPrediction{true, false, {}};
            }
            if (name == "FindMax" || name == "FindMin") {
                if (elements_.empty()) return predict("<empty>");
                // First-extremal wins, exactly like the strict-Less
                // scans in sortable.cpp.
                const CObject* best = elements_.front();
                for (std::size_t i = 1; i < elements_.size(); ++i) {
                    const CObject* current = elements_[i];
                    const bool better = name == "FindMax"
                                            ? best->Compare(*current) < 0
                                            : current->Compare(*best) < 0;
                    if (better) best = current;
                }
                return predict(text_of(best));
            }
        }
        return {};  // unknown method: disengage, never diverge
    }

    [[nodiscard]] std::string abstract_state() const override {
        Abstraction out(elements_.size());
        const std::size_t cap = std::min(elements_.size(), kMaxProjected);
        for (std::size_t i = 0; i < cap; ++i) out.element(elements_[i]);
        if (elements_.size() > cap) out.element("...");
        return std::move(out).finish();
    }

    /// Walks the live chain against the model's element pointers.  True
    /// only where project_live renders exactly abstract_state(): equal
    /// counts of at most kMaxProjected, exactly that many pool nodes in
    /// the chain, and each element the model's very object or one that
    /// renders like it (equal values a sort ordered differently).  A
    /// short or long chain, a fault or a truncated abstraction answers
    /// false, and the rendered compare decides.
    [[nodiscard]] bool conforms(const void* object) const noexcept override {
        if (elements_.size() > kMaxProjected) return false;
        try {
            const mfc::CObList& list = *live_(object);
            if (list.GetCount() != static_cast<int>(elements_.size())) {
                return false;
            }
            mfc::POSITION pos = list.GetHeadPosition();
            for (const CObject* expected : elements_) {
                if (pos == nullptr) return false;
                const CObject* actual = list.GetNext(pos);
                if (actual != expected && text_of(actual) != text_of(expected)) {
                    return false;
                }
            }
            return pos == nullptr;
        } catch (...) {
            return false;
        }
    }

    [[nodiscard]] std::unique_ptr<driver::LockstepModel> clone() const override {
        // Element pointers are shared on purpose: the pool owns them.
        return std::make_unique<ListModel>(*this);
    }

private:
    static driver::ModelPrediction predict(std::string rendered) {
        return driver::ModelPrediction{true, true, std::move(rendered)};
    }

    /// The CObject* argument of an add call; nullptr when the shape is
    /// not the completed pointer the wrappers expect.
    static const CObject* element_arg(const driver::MethodCall& call) {
        if (call.arguments.size() != 1 ||
            call.arguments[0].kind() != domain::ValueKind::Pointer) {
            return nullptr;
        }
        return static_cast<const CObject*>(call.arguments[0].as_pointer());
    }

    /// The wrappers' index completion, with the MODEL's count: the
    /// prediction is what a correct component would answer, so a
    /// mutant that corrupted its count diverges here.
    [[nodiscard]] std::int64_t index_arg(const driver::MethodCall& call) const {
        if (call.arguments.size() != 1) return -1;
        return call.arguments[0].as_int() %
               static_cast<std::int64_t>(elements_.size());
    }

    std::vector<const CObject*> elements_;
    LiveList live_;
    bool sortable_;
};

template <typename T>
driver::ModelBinding make_list_binding(bool sortable) {
    driver::ModelBinding binding;
    binding.factory = [sortable] {
        return std::unique_ptr<driver::LockstepModel>(
            new ListModel(sortable, &live_list<T>));
    };
    binding.project = [](const void* object) {
        return project_live(*live_list<T>(object));
    };
    return binding;
}

const std::map<std::string, driver::ModelBinding>& registry() {
    static const std::map<std::string, driver::ModelBinding> bindings = [] {
        std::map<std::string, driver::ModelBinding> out;
        out.emplace("CObList", make_list_binding<mfc::CObList>(false));
        out.emplace("CSortableObList",
                    make_list_binding<mfc::CSortableObList>(true));
        return out;
    }();
    return bindings;
}

}  // namespace

const driver::ModelBinding* binding_for(const std::string& class_name) {
    const auto& bindings = registry();
    const auto it = bindings.find(class_name);
    return it == bindings.end() ? nullptr : &it->second;
}

std::vector<std::string> modeled_classes() {
    std::vector<std::string> out;
    for (const auto& [name, binding] : registry()) out.push_back(name);
    return out;
}

}  // namespace stc::model
