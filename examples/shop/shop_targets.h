// Campaign-target registration for the example components: "wallet"
// (the intraclass Wallet campaign — the §6 counterpoint where
// collaboration faults survive), and the assembly products "shop" and
// "audited-wallet" (the same Wallet mutants hunted through a composed
// interface).
#pragma once

namespace stc::examples {

/// Register the "wallet", "shop" and "audited-wallet" targets with the
/// serve registry (stc::serve::register_builtin_target).  Idempotent;
/// call once from main() before resolving campaign targets.
void register_example_targets();

}  // namespace stc::examples
