// Assembly blocks — the t-spec extension describing a *composition* of
// components (the paper's §6 move from intraclass to interclass
// testing; PAPERS.md's "Compositional Specifications for ioco Testing"
// supplies the semantics).  An assembly names a set of roles (instances of
// per-class t-specs), wires role-to-role calls that become *hidden*
// internal actions of the composition, and exports the subset of role
// methods that remain observable on the assembly's public interface:
//
//   Assembly ('Shop') {
//     roles {
//       Role (wallet, 'Wallet')
//       Role (ledger, 'Ledger', 'ledger.tspec')   // optional spec file
//     }
//     wiring {
//       Wire (wallet, m4, ledger, m3, emits)      // hidden action; `emits`
//       Wire (wallet, m5, ledger, m3, emits)      // marks an ioco output
//     }                                           // obligation
//     exports {
//       Export (wallet, m4, 'Deposit')            // optional public alias
//     }
//   }
//
// Record syntax, '//' comments, quoting and '<empty>' are exactly the
// Fig. 3 t-spec lexicon (the same lexer is reused); only the brace
// block structure is new.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace stc::tspec {

/// One named instance of a component class inside the assembly.
struct RoleSpec {
    std::string id;          ///< role name, e.g. "wallet"
    std::string class_name;  ///< component class, e.g. "Wallet"
    /// Optional path of the role's own t-spec file, resolved relative
    /// to the assembly file by the caller; empty means the class is
    /// resolved against a built-in spec registry.
    std::string spec_file;
};

/// A role-to-role call: when `caller_role` executes `caller_method`,
/// the composition internally drives `callee_method` on `callee_role`.
/// In the synchronous product this pair becomes one hidden action —
/// neither half is separately observable on the assembly interface.
struct WireSpec {
    std::string caller_role;
    std::string caller_method;  ///< method id in the caller's t-spec (e.g. m4)
    std::string callee_role;
    std::string callee_method;  ///< method id in the callee's t-spec
    /// ioco output obligation: the hidden action must leave an
    /// observable trace (the callee's state report changes).  A mutant
    /// that silently absorbs the call violates quiescence.
    bool must_emit = false;
};

/// A role method that stays observable on the assembly interface.
struct ExportSpec {
    std::string role;
    std::string method;  ///< method id in the role's t-spec
    std::string alias;   ///< public name; empty = the method's own name
};

/// Parsed assembly block.  Syntactically valid and referentially
/// closed over its own roles (parse_assembly enforces that); deeper
/// validation — method ids existing in the component specs, wiring
/// acyclicity, product determinism — happens in stc::assembly where
/// the per-class specs are available.
struct AssemblySpec {
    std::string name;
    std::vector<RoleSpec> roles;
    std::vector<WireSpec> wiring;
    std::vector<ExportSpec> exports;

    [[nodiscard]] const RoleSpec* find_role(const std::string& id) const {
        for (const auto& r : roles) {
            if (r.id == id) return &r;
        }
        return nullptr;
    }
};

[[nodiscard]] bool operator==(const RoleSpec& a, const RoleSpec& b);
[[nodiscard]] bool operator==(const WireSpec& a, const WireSpec& b);
[[nodiscard]] bool operator==(const ExportSpec& a, const ExportSpec& b);
[[nodiscard]] bool operator==(const AssemblySpec& a, const AssemblySpec& b);

/// Parse an assembly t-spec text.  Throws stc::ParseError on syntax
/// errors and stc::SpecError on record-level inconsistencies (duplicate
/// role ids, wiring or exports naming unknown roles, duplicate public
/// aliases, an empty export set).
[[nodiscard]] AssemblySpec parse_assembly(std::string_view text);

/// Render an AssemblySpec back to assembly-block text (round-trip
/// companion: parse_assembly(print_assembly(s)) == s).
[[nodiscard]] std::string print_assembly(const AssemblySpec& spec);

}  // namespace stc::tspec
