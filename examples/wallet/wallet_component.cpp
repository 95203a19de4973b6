#include "wallet_component.h"

#include "stc/reflect/binder.h"
#include "stc/tspec/builder.h"

namespace stc::examples {

using tspec::MethodCategory;

const mutation::DescriptorRegistry& wallet_descriptors() {
    static const mutation::DescriptorRegistry registry = [] {
        mutation::DescriptorRegistry r;
        register_wallet_descriptors(r);
        return r;
    }();
    return registry;
}

tspec::ComponentSpec wallet_intraclass_spec() {
    tspec::SpecBuilder b("Wallet");
    b.attr_range("balance_", 0, 1000000);
    b.method("m1", "Wallet", MethodCategory::Constructor);
    b.method("m2", "~Wallet", MethodCategory::Destructor);
    b.method("m3", "Attach", MethodCategory::New).param_pointer("ledger", "Ledger");
    b.method("m4", "Deposit", MethodCategory::New).param_range("amount", 1, 100);
    b.method("m5", "Withdraw", MethodCategory::New, "int")
        .param_range("amount", 1, 100);
    b.method("m6", "Balance", MethodCategory::New, "int");

    // The call shapes of the audited-wallet role models, but the Ledger
    // is a tester completion the suite never observes.
    b.node("n1", true, {"m1"});
    b.node("n2", false, {"m3"});  // Attach (completed ledger)
    b.node("n3", false, {"m4"});  // Deposit
    b.node("n4", false, {"m5"});  // Withdraw
    b.node("n5", false, {"m6"});  // Balance
    b.node("n6", false, {"m2"});  // death
    b.edge("n1", "n2").edge("n1", "n3").edge("n2", "n3");
    b.edge("n3", "n3").edge("n3", "n4").edge("n3", "n5");
    b.edge("n4", "n5").edge("n4", "n6");
    b.edge("n5", "n6");
    return b.build();
}

Ledger* LedgerPool::make() {
    ledgers_.push_back(std::make_unique<Ledger>());
    return ledgers_.back().get();
}

driver::CompletionRegistry LedgerPool::completions() {
    driver::CompletionRegistry out;
    out.provide("Ledger", [this](support::Pcg32&) {
        return domain::Value::make_pointer(make(), "Ledger");
    });
    return out;
}

reflect::ClassBinding wallet_binding() {
    reflect::Binder<Wallet> b("Wallet");
    b.ctor<>();
    b.method("Attach", &Wallet::Attach);
    b.method("Deposit", &Wallet::Deposit);
    b.method("Withdraw", &Wallet::Withdraw);
    b.method("Balance", &Wallet::Balance);
    return b.take();
}

namespace {

// The wallet's role model follows the intraclass Wallet TFM without
// its Attach (the facade attaches at birth): one or more deposits, then
// at most one withdrawal, then at most one balance query.  Its life may
// also end right after a deposit, which that TFM does not allow.
// Withdraw is enabled only after a Deposit.  Each method sits in
// exactly one TFM node, so the product is deterministic by construction.
tspec::ComponentSpec audited_wallet_role_spec() {
    tspec::SpecBuilder b("Wallet");
    b.method("m1", "Wallet", MethodCategory::Constructor);
    b.method("m2", "~Wallet", MethodCategory::Destructor);
    b.method("m3", "Deposit", MethodCategory::New).param_range("amount", 1, 100);
    b.method("m4", "Withdraw", MethodCategory::New, "int")
        .param_range("amount", 1, 100);
    b.method("m5", "Balance", MethodCategory::New, "int");

    b.node("w1", true, {"m1"});
    b.node("w2", false, {"m3"});  // Deposit
    b.node("w3", false, {"m4"});  // Withdraw
    b.node("w4", false, {"m5"});  // Balance
    b.node("w5", false, {"m2"});  // death
    b.edge("w1", "w2");
    b.edge("w2", "w2").edge("w2", "w3").edge("w2", "w4").edge("w2", "w5");
    b.edge("w3", "w4").edge("w3", "w5");
    b.edge("w4", "w5");
    return b.build();
}

// The audit trail: Record only ever fires as a hidden action, wired
// from the wallet's Deposit and Withdraw; Count and Total may be read
// at any time.
tspec::ComponentSpec audit_role_spec() {
    tspec::SpecBuilder b("Ledger");
    b.method("m1", "Ledger", MethodCategory::Constructor);
    b.method("m2", "~Ledger", MethodCategory::Destructor);
    b.method("m3", "Record", MethodCategory::New).param_range("delta", -100, 100);
    b.method("m4", "Count", MethodCategory::New, "int");
    b.method("m5", "Total", MethodCategory::New, "int");

    b.node("l1", true, {"m1"});
    b.node("l2", false, {"m3"});  // Record
    b.node("l3", false, {"m4"});  // Count
    b.node("l4", false, {"m5"});  // Total
    b.node("l5", false, {"m2"});  // death
    for (const char* from : {"l1", "l2", "l3", "l4"}) {
        b.edge(from, "l2").edge(from, "l3").edge(from, "l4").edge(from, "l5");
    }
    return b.build();
}

}  // namespace

std::map<std::string, tspec::ComponentSpec> audited_wallet_role_specs() {
    std::map<std::string, tspec::ComponentSpec> specs;
    specs.emplace("wallet", audited_wallet_role_spec());
    specs.emplace("audit", audit_role_spec());
    return specs;
}

tspec::AssemblySpec audited_wallet_assembly() {
    tspec::AssemblySpec a;
    a.name = "AuditedWallet";
    a.roles.push_back({"wallet", "Wallet", ""});
    a.roles.push_back({"audit", "Ledger", ""});
    // Silent: the facade checks no emission, so a dropped booking dies
    // by output diff on the reported Ledger, not by quiescence.
    a.wiring.push_back({"wallet", "m3", "audit", "m3", false});
    a.wiring.push_back({"wallet", "m4", "audit", "m3", false});
    a.exports.push_back({"wallet", "m3", ""});
    a.exports.push_back({"wallet", "m4", ""});
    a.exports.push_back({"wallet", "m5", ""});
    a.exports.push_back({"audit", "m4", ""});
    a.exports.push_back({"audit", "m5", ""});
    return a;
}

assembly::Product audited_wallet_product() {
    return assembly::build_product(audited_wallet_assembly(),
                                   audited_wallet_role_specs());
}

reflect::ClassBinding audited_wallet_binding() {
    reflect::Binder<AuditedWallet> b("AuditedWallet");
    b.ctor<>();
    b.method("Deposit", &AuditedWallet::Deposit);
    b.method("Withdraw", &AuditedWallet::Withdraw);
    b.method("Balance", &AuditedWallet::Balance);
    b.method("Count", &AuditedWallet::Count);
    b.method("Total", &AuditedWallet::Total);
    return b.take();
}

}  // namespace stc::examples
