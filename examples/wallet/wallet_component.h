// Packaging of the Wallet/Ledger component: Wallet tested alone (the
// intraclass spec with pool-completed, unobserved Ledgers), the
// audited-wallet assembly (per-role t-specs, wiring, exported
// interface, the computed product and the AuditedWallet facade's
// binding), and the mutation descriptors both campaigns hunt.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stc/assembly/product.h"
#include "stc/driver/generator.h"
#include "stc/reflect/class_binding.h"
#include "stc/tspec/assembly.h"
#include "wallet.h"

namespace stc::examples {

/// Reflection binding of Wallet.
[[nodiscard]] reflect::ClassBinding wallet_binding();

/// Canonical mutation descriptor registry for Wallet.
[[nodiscard]] const mutation::DescriptorRegistry& wallet_descriptors();

/// Wallet tested *alone* (intraclass): the same interface but with its
/// own single-class TFM; Attach's Ledger parameter is completed with a
/// fresh, unobserved Ledger from `pool`.  This is the §6 counterpoint:
/// collaboration faults invisible to intraclass testing.
[[nodiscard]] tspec::ComponentSpec wallet_intraclass_spec();

/// Role t-specs of the audited-wallet assembly keyed by role id:
/// "wallet" (Wallet: Deposit, Withdraw, Balance) and "audit" (Ledger:
/// Record, Count, Total).  Withdraw is enabled only after a Deposit.
[[nodiscard]] std::map<std::string, tspec::ComponentSpec> audited_wallet_role_specs();

/// The assembly: roles wallet: Wallet and audit: Ledger, the silent
/// wires Deposit->Record and Withdraw->Record, and the exports Deposit,
/// Withdraw, Balance, Count and Total.
[[nodiscard]] tspec::AssemblySpec audited_wallet_assembly();

/// The synchronous product of audited_wallet_assembly() over
/// audited_wallet_role_specs(): AuditedWallet's observable t-spec.
[[nodiscard]] assembly::Product audited_wallet_product();

/// Reflection binding of the AuditedWallet facade; method names match
/// the product's exported interface.
[[nodiscard]] reflect::ClassBinding audited_wallet_binding();

/// Arena of Ledger objects for intraclass completions.
class LedgerPool {
public:
    Ledger* make();
    [[nodiscard]] driver::CompletionRegistry completions();
    [[nodiscard]] std::size_t size() const noexcept { return ledgers_.size(); }

private:
    std::vector<std::unique_ptr<Ledger>> ledgers_;
};

}  // namespace stc::examples
