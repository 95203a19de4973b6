// Interclass ablation — quantifies the motivation of the paper's §6
// extension: faults in the *interaction* between classes (here:
// Wallet's write-through to its audit Ledger), hunted by two campaigns
// over the same interface mutants of Wallet::Deposit / Wallet::Withdraw:
//
//   wallet         — Wallet tested alone (§3's single-class methodology);
//                    the Ledger parameter is a tester completion the
//                    suite never observes.  All-transactions, the
//                    default criterion.
//   audited-wallet — the Wallet+Ledger assembly (stc::assembly): the
//                    AuditedWallet facade reports the Ledger as well, so
//                    a dropped or corrupted booking reaches the output
//                    oracle.  All-links criterion (all-transactions of
//                    the product runs into the enumeration cap).
//
// Both rows run MutationEngine::run over the registered campaign
// targets, so they evaluate the suites of `concat campaign wallet` and
// `concat campaign audited-wallet --assembly --criterion all-links`.
#include "bench_util.h"
#include "shop_targets.h"
#include "stc/serve/builtin_host.h"

namespace {

using namespace stc;

struct Row {
    std::size_t cases = 0;
    mutation::MutationRun run;
};

Row run_target(const std::string& name, tfm::Criterion criterion,
               const std::vector<mutation::Mutant>& mutants) {
    const serve::BuiltinComponent holder =
        serve::find_builtin_target(name)->make_component();
    driver::GeneratorOptions generator;
    generator.criterion = criterion;
    const driver::TestSuite suite = holder.component->generate_tests(generator);
    const mutation::MutationEngine engine(holder.component->registry());
    return {suite.size(), engine.run(suite, mutants)};
}

void add_row(support::TextTable& table, const std::string& label, const Row& row) {
    const mutation::MutationRun& run = row.run;
    const std::size_t alive =
        run.total() - run.killed() - run.equivalent() - run.not_covered();
    table.add_row({label, std::to_string(row.cases), std::to_string(run.killed()),
                   std::to_string(alive), std::to_string(run.not_covered()),
                   support::percent(run.score())});
}

}  // namespace

int main() {
    bench::banner("Interclass ablation — collaboration faults in Wallet");
    examples::register_example_targets();

    const auto mutants = serve::find_builtin_target("wallet")->mutants();
    std::cout << "\nmutants in Wallet::Deposit / Wallet::Withdraw: "
              << mutants.size() << "\n\n";

    const Row alone =
        run_target("wallet", tfm::Criterion::AllTransactions, mutants);
    const Row assembled =
        run_target("audited-wallet", tfm::Criterion::AllEdges, mutants);

    support::TextTable table(
        {"Campaign", "test cases", "#killed", "alive", "not covered", "Score"});
    table.set_align(0, support::Align::Left);
    add_row(table, "wallet (Wallet alone)", alone);
    add_row(table, "audited-wallet (assembly, all-links)", assembled);
    table.render(std::cout);

    std::cout << "\nmutants killed through the assembly but missed by Wallet "
                 "alone:\n";
    std::size_t interaction_only = 0;
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        const bool intra = alone.run.outcomes[i].fate == mutation::MutantFate::Killed;
        const bool inter =
            assembled.run.outcomes[i].fate == mutation::MutantFate::Killed;
        if (inter && !intra) {
            ++interaction_only;
            std::cout << "  " << mutants[i].id() << "\n";
        }
    }
    std::cout << "total: " << interaction_only
              << " interaction fault(s) visible only through the assembly\n";

    const bool shape_holds = alone.run.baseline_clean &&
                             assembled.run.baseline_clean &&
                             assembled.run.score() > alone.run.score() &&
                             interaction_only > 0;
    return shape_holds ? 0 : 1;
}
