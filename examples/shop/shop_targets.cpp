#include "shop_targets.h"

#include <memory>

#include "shop_component.h"
#include "stc/serve/builtin_host.h"
#include "wallet_component.h"

namespace stc::examples {

void register_example_targets() {
    // Wallet tested alone: Attach's Ledger parameter is completed with
    // unobserved pool Ledgers, so write-through mutants survive — the
    // baseline the shop assembly campaign is measured against.
    serve::BuiltinTarget wallet;
    wallet.make_component = [] {
        struct State {
            LedgerPool pool;
            driver::CompletionRegistry completions;
        };
        auto state = std::make_shared<State>();
        state->completions = state->pool.completions();
        serve::BuiltinComponent out;
        out.keepalive = state;
        out.component.emplace(wallet_intraclass_spec(), wallet_binding());
        out.component->set_completions(state->completions);
        out.completions = &state->completions;
        return out;
    };
    wallet.mutants = [] {
        return mutation::enumerate_mutants(wallet_descriptors(), "Wallet");
    };
    serve::register_builtin_target("wallet", std::move(wallet));

    // The assembly product: the component under test is the Shop facade
    // driven by the synchronous product TFM, the mutant population is
    // the member class's (Wallet's) — the ISSUE's interface-vs-assembly
    // comparison runs the same mutants against both targets.
    serve::BuiltinTarget shop;
    shop.assembly = true;
    shop.make_component = [] {
        serve::BuiltinComponent out;
        out.component.emplace(shop_product().spec, shop_binding());
        return out;
    };
    shop.mutants = [] {
        return mutation::enumerate_mutants(wallet_descriptors(), "Wallet");
    };
    serve::register_builtin_target("shop", std::move(shop));

    // The §6 Wallet+Ledger pair as an assembly: the same Wallet mutants,
    // hunted through a facade that also reports the audit Ledger.
    serve::BuiltinTarget audited;
    audited.assembly = true;
    audited.make_component = [] {
        serve::BuiltinComponent out;
        out.component.emplace(audited_wallet_product().spec,
                              audited_wallet_binding());
        return out;
    };
    audited.mutants = [] {
        return mutation::enumerate_mutants(wallet_descriptors(), "Wallet");
    };
    serve::register_builtin_target("audited-wallet", std::move(audited));
}

}  // namespace stc::examples
