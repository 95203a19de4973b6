// Two collaborating self-testable classes: a Wallet whose
// deposits/withdrawals write through to an attached Ledger, a genuine
// cross-class interaction, and the AuditedWallet facade that assembles
// the pair into one component (the paper's §6 extension, run as the
// `audited-wallet` assembly campaign target).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "stc/bit/assertions.h"
#include "stc/bit/built_in_test.h"
#include "stc/mutation/descriptor.h"

namespace stc::examples {

/// Append-only record of balance movements.
class Ledger : public bit::BuiltInTest {
public:
    Ledger() = default;

    void Record(int delta) { entries_.push_back(delta); }

    [[nodiscard]] int Count() const noexcept { return static_cast<int>(entries_.size()); }

    /// Sum of all recorded movements.
    [[nodiscard]] int Total() const noexcept {
        int total = 0;
        for (int d : entries_) total += d;
        return total;
    }

    void InvariantTest() const override {
        STC_CLASS_INVARIANT(entries_.size() < 100000);
    }

    void Reporter(std::ostream& os) const override {
        os << "Ledger{count=" << Count() << ", total=" << Total() << "}";
    }

private:
    std::vector<int> entries_;
};

/// A balance that never goes negative; movements are mirrored into the
/// attached ledger, so "wallet balance == ledger total" is a cross-class
/// property an assembly suite can check.
class Wallet : public bit::BuiltInTest {
public:
    Wallet() = default;

    /// Attach the audit ledger (the collaborator).
    void Attach(Ledger* ledger) {
        STC_PRECONDITION(ledger != nullptr);
        ledger_ = ledger;
    }

    /// Add funds; recorded when a ledger is attached.  Instrumented with
    /// interface-mutation sites (the collaboration-fault experiments).
    void Deposit(int amount);

    /// Withdraw up to `amount`; returns what was actually withdrawn
    /// (never overdraws).  Instrumented.
    int Withdraw(int amount);

    [[nodiscard]] int Balance() const noexcept { return balance_; }
    [[nodiscard]] bool Audited() const noexcept { return ledger_ != nullptr; }

    void InvariantTest() const override { STC_CLASS_INVARIANT(balance_ >= 0); }

    void Reporter(std::ostream& os) const override {
        os << "Wallet{balance=" << balance_
           << ", audited=" << (ledger_ != nullptr ? "yes" : "no") << "}";
    }

private:
    int balance_ = 0;
    Ledger* ledger_ = nullptr;
};

/// The Wallet+Ledger pair as ONE component: the ledger is attached at
/// birth, so every Deposit and Withdraw books through to it (the hidden
/// Deposit->Record and Withdraw->Record actions of the assembly), and
/// the report shows both objects.  A dropped or corrupted booking thus
/// reaches the output oracle, which Wallet tested alone never sees.
class AuditedWallet : public bit::BuiltInTest {
public:
    AuditedWallet() { wallet_.Attach(&ledger_); }

    void Deposit(int amount) { wallet_.Deposit(amount); }
    int Withdraw(int amount) { return wallet_.Withdraw(amount); }
    [[nodiscard]] int Balance() const noexcept { return wallet_.Balance(); }
    [[nodiscard]] int Count() const noexcept { return ledger_.Count(); }
    [[nodiscard]] int Total() const noexcept { return ledger_.Total(); }

    void InvariantTest() const override {
        wallet_.InvariantTest();
        ledger_.InvariantTest();
    }

    void Reporter(std::ostream& os) const override {
        os << "AuditedWallet{";
        wallet_.Reporter(os);
        os << ", ";
        ledger_.Reporter(os);
        os << "}";
    }

private:
    Ledger ledger_;
    Wallet wallet_;
};

/// Register Wallet's mutation descriptors (Deposit, Withdraw) — the
/// targets of the collaboration-fault experiment.
void register_wallet_descriptors(mutation::DescriptorRegistry& registry);

}  // namespace stc::examples
