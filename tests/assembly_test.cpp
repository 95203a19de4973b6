// stc::assembly — the synchronous product and its grammar: round-trips
// of the assembly block, referential validation, product construction
// over the shop trio, every rejection path (dangling roles, cyclic
// wiring, nondeterminism, joint death, state explosion), and the §6
// Wallet+Ledger system run as the audited-wallet assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "shop_component.h"
#include "shop_targets.h"
#include "stc/assembly/product.h"
#include "stc/campaign/session.h"
#include "stc/codegen/driver_codegen.h"
#include "stc/core/self_testable.h"
#include "stc/mutation/engine.h"
#include "stc/serve/builtin_host.h"
#include "stc/support/error.h"
#include "stc/tfm/graph.h"
#include "stc/tspec/assembly.h"
#include "stc/tspec/builder.h"
#include "test_paths.h"
#include "wallet_component.h"

namespace stc {
namespace {

using examples::shop_assembly;
using examples::shop_product;
using examples::shop_role_specs;
using tspec::AssemblySpec;
using tspec::MethodCategory;
using tspec::parse_assembly;
using tspec::print_assembly;

// ---------------------------------------------------------------- grammar

TEST(AssemblyGrammar, PrintParseRoundTrip) {
    AssemblySpec a;
    a.name = "Pair";
    a.roles.push_back({"left", "Alpha", ""});
    a.roles.push_back({"right", "Beta", "beta.tspec"});
    a.wiring.push_back({"left", "m3", "right", "m3", true});
    a.wiring.push_back({"right", "m4", "left", "m4", false});
    a.exports.push_back({"left", "m3", "Go"});
    a.exports.push_back({"right", "m4", ""});

    const AssemblySpec back = parse_assembly(print_assembly(a));
    EXPECT_TRUE(back == a);
    // And the rendering is a fixed point.
    EXPECT_EQ(print_assembly(back), print_assembly(a));
}

TEST(AssemblyGrammar, ShopFileMirrorsTheInCodeSpec) {
    std::ifstream in(std::string(STC_SOURCE_DIR) + "/examples/shop/shop.tspec");
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    const AssemblySpec parsed = parse_assembly(text.str());
    EXPECT_TRUE(parsed == shop_assembly());
}

TEST(AssemblyGrammar, SyntaxProblemsAreParseErrors) {
    // Not an assembly block at all.
    EXPECT_THROW((void)parse_assembly("Class ('X')"), ParseError);
    // Missing braces / unterminated block.
    EXPECT_THROW((void)parse_assembly("Assembly ('A')"), ParseError);
    EXPECT_THROW((void)parse_assembly("Assembly ('A') { roles {"), ParseError);
    // Section name must be an identifier.
    EXPECT_THROW((void)parse_assembly("Assembly ('A') { 42 { } }"), ParseError);
    // Trailing input after the closing brace.
    EXPECT_THROW((void)parse_assembly(
                     "Assembly ('A') { roles { Role (r, 'C') } "
                     "exports { Export (r, m3) } } junk"),
                 ParseError);
}

TEST(AssemblyGrammar, RecordProblemsAreSpecErrors) {
    const auto wrap = [](const std::string& body) {
        return "Assembly ('A') { " + body + " }";
    };
    // Unknown section, wrong record kind, wrong arity, bad wire mode.
    EXPECT_THROW((void)parse_assembly(wrap("stuff { Role (r, 'C') }")), SpecError);
    EXPECT_THROW((void)parse_assembly(wrap("roles { Wire (a, b, c, d) }")),
                 SpecError);
    EXPECT_THROW((void)parse_assembly(wrap("roles { Role (r) }")), SpecError);
    EXPECT_THROW((void)parse_assembly(
                     wrap("roles { Role (r, 'C') Role (r, 'D') }")),
                 SpecError);
    EXPECT_THROW((void)parse_assembly(
                     wrap("roles { Role (r, 'C') } wiring "
                          "{ Wire (r, m3, r, m4, loudly) } "
                          "exports { Export (r, m3) }")),
                 SpecError);
}

TEST(AssemblyGrammar, ReferentialProblemsAreSpecErrors) {
    // No roles at all.
    EXPECT_THROW((void)parse_assembly("Assembly ('A') { exports { Export (r, m3) } }"),
                 SpecError);
    // Wires naming unknown roles, and self-wiring.
    EXPECT_THROW((void)parse_assembly(
                     "Assembly ('A') { roles { Role (r, 'C') } "
                     "wiring { Wire (ghost, m3, r, m3) } "
                     "exports { Export (r, m3) } }"),
                 SpecError);
    EXPECT_THROW((void)parse_assembly(
                     "Assembly ('A') { roles { Role (r, 'C') } "
                     "wiring { Wire (r, m3, ghost, m3) } "
                     "exports { Export (r, m3) } }"),
                 SpecError);
    EXPECT_THROW((void)parse_assembly(
                     "Assembly ('A') { roles { Role (r, 'C') } "
                     "wiring { Wire (r, m3, r, m4) } "
                     "exports { Export (r, m3) } }"),
                 SpecError);
    // Empty interface, exports of unknown roles, duplicate public names.
    EXPECT_THROW((void)parse_assembly(
                     "Assembly ('A') { roles { Role (r, 'C') } exports { } }"),
                 SpecError);
    EXPECT_THROW((void)parse_assembly(
                     "Assembly ('A') { roles { Role (r, 'C') } "
                     "exports { Export (ghost, m3) } }"),
                 SpecError);
    EXPECT_THROW((void)parse_assembly(
                     "Assembly ('A') { roles { Role (r, 'C') Role (s, 'C') } "
                     "exports { Export (r, m3, 'Go') Export (s, m3, 'Go') } }"),
                 SpecError);
}

// ---------------------------------------------------------------- product

// Minimal two-role fixture: Alpha.Go (m3) is wired to Beta.Poke (m3).
tspec::ComponentSpec alpha_spec() {
    tspec::SpecBuilder b("Alpha");
    b.method("m1", "Alpha", MethodCategory::Constructor);
    b.method("m2", "~Alpha", MethodCategory::Destructor);
    b.method("m3", "Go", MethodCategory::New);
    b.node("a1", true, {"m1"});
    b.node("a2", false, {"m3"});
    b.node("a3", false, {"m2"});
    b.edge("a1", "a2").edge("a2", "a2").edge("a2", "a3");
    return b.build();
}

tspec::ComponentSpec beta_spec() {
    tspec::SpecBuilder b("Beta");
    b.method("m1", "Beta", MethodCategory::Constructor);
    b.method("m2", "~Beta", MethodCategory::Destructor);
    b.method("m3", "Poke", MethodCategory::New);
    b.node("b1", true, {"m1"});
    b.node("b2", false, {"m3"});
    b.node("b3", false, {"m2"});
    b.edge("b1", "b2").edge("b2", "b2").edge("b2", "b3");
    return b.build();
}

AssemblySpec pair_assembly() {
    AssemblySpec a;
    a.name = "Pair";
    a.roles.push_back({"a", "Alpha", ""});
    a.roles.push_back({"b", "Beta", ""});
    a.wiring.push_back({"a", "m3", "b", "m3", true});
    a.exports.push_back({"a", "m3", "Go"});
    return a;
}

std::map<std::string, tspec::ComponentSpec> pair_specs() {
    std::map<std::string, tspec::ComponentSpec> specs;
    specs.emplace("a", alpha_spec());
    specs.emplace("b", beta_spec());
    return specs;
}

TEST(Product, PairProductIsATinyChain) {
    const auto product = assembly::build_product(pair_assembly(), pair_specs());
    // Birth, the (Go, (a2,b2)) node, death.
    EXPECT_EQ(product.stats.conceivable_tuples, 9u);
    EXPECT_EQ(product.stats.reachable_tuples, 2u);
    EXPECT_EQ(product.spec.nodes.size(), 3u);
    EXPECT_EQ(product.spec.class_name, "Pair");
    ASSERT_EQ(product.spec.methods.size(), 3u);
    EXPECT_EQ(product.spec.methods[2].name, "Go");

    const tfm::Graph g = product.spec.build_tfm();
    const auto ts = g.enumerate_transactions();
    ASSERT_FALSE(ts.empty());
    for (const auto& t : ts) EXPECT_TRUE(g.is_valid_transaction(t.path));
}

TEST(Product, MissingRoleSpecRejected) {
    auto specs = pair_specs();
    specs.erase("b");
    EXPECT_THROW((void)assembly::build_product(pair_assembly(), specs), SpecError);
}

TEST(Product, ClassMismatchRejected) {
    auto specs = pair_specs();
    specs.at("b") = alpha_spec();  // declares class Alpha for role b (Beta)
    EXPECT_THROW((void)assembly::build_product(pair_assembly(), specs), SpecError);
}

TEST(Product, UnknownMethodsAndCtorsInWiresRejected) {
    auto a = pair_assembly();
    a.wiring[0].callee_method = "m9";
    EXPECT_THROW((void)assembly::build_product(a, pair_specs()), SpecError);
    a = pair_assembly();
    a.wiring[0].callee_method = "m1";  // constructors are composed, not wired
    EXPECT_THROW((void)assembly::build_product(a, pair_specs()), SpecError);
    a = pair_assembly();
    a.exports[0].method = "m2";
    EXPECT_THROW((void)assembly::build_product(a, pair_specs()), SpecError);
}

TEST(Product, DanglingRoleRefsRejected) {
    // Hand-built specs (not via parse_assembly) may dangle: the builder
    // must reject them cleanly rather than crash — the fuzz harness
    // leans on this.
    auto a = pair_assembly();
    a.wiring[0].caller_role = "ghost";
    EXPECT_THROW((void)assembly::build_product(a, pair_specs()), SpecError);
    a = pair_assembly();
    a.exports[0].role = "ghost";
    EXPECT_THROW((void)assembly::build_product(a, pair_specs()), SpecError);
}

TEST(Product, CyclicHiddenChainsRejected) {
    auto a = pair_assembly();
    a.wiring.push_back({"b", "m3", "a", "m3", false});  // closes the loop
    EXPECT_THROW((void)assembly::build_product(a, pair_specs()), SpecError);
}

TEST(Product, DuplicatePublicNamesRejected) {
    auto a = pair_assembly();
    a.exports.push_back({"b", "m3", "Go"});
    EXPECT_THROW((void)assembly::build_product(a, pair_specs()), SpecError);
}

TEST(Product, NondeterministicRoleRejected) {
    // Two successor nodes of a1 both group m3: one exported action, two
    // product states.
    tspec::SpecBuilder b("Alpha");
    b.method("m1", "Alpha", MethodCategory::Constructor);
    b.method("m2", "~Alpha", MethodCategory::Destructor);
    b.method("m3", "Go", MethodCategory::New);
    b.node("a1", true, {"m1"});
    b.node("a2", false, {"m3"});
    b.node("a2x", false, {"m3"});
    b.node("a3", false, {"m2"});
    b.edge("a1", "a2").edge("a1", "a2x").edge("a2", "a3").edge("a2x", "a3");

    auto specs = pair_specs();
    specs.at("a") = b.build();
    EXPECT_THROW((void)assembly::build_product(pair_assembly(), specs), SpecError);
}

TEST(Product, JointDeathMustBeReachable) {
    // Beta can only die at birth, Alpha never at birth: once Go fires
    // the roles disagree forever, and from the joint birth state Alpha
    // cannot die — no reachable state lets the assembly die.
    tspec::SpecBuilder b("Beta");
    b.method("m1", "Beta", MethodCategory::Constructor);
    b.method("m2", "~Beta", MethodCategory::Destructor);
    b.method("m3", "Poke", MethodCategory::New);
    b.node("b1", true, {"m1"});
    b.node("b2", false, {"m3"});
    b.node("b3", false, {"m2"});
    b.edge("b1", "b2").edge("b1", "b3").edge("b2", "b2");

    auto specs = pair_specs();
    specs.at("b") = b.build();
    EXPECT_THROW((void)assembly::build_product(pair_assembly(), specs), SpecError);
}

TEST(Product, StateExplosionGuard) {
    assembly::ProductOptions options;
    options.max_states = 1;
    EXPECT_THROW(
        (void)assembly::build_product(shop_assembly(), shop_role_specs(), options),
        SpecError);
}

// ------------------------------------------------------------------- shop

TEST(ShopAssembly, ProductBuildsCleanly) {
    const auto product = shop_product();
    // 5 * 4 * 5 * 4 conceivable tuples; reachability prunes hard.
    EXPECT_EQ(product.stats.conceivable_tuples, 400u);
    EXPECT_LT(product.stats.reachable_tuples, product.stats.conceivable_tuples);
    EXPECT_GT(product.stats.reachable_tuples, 1u);
    EXPECT_EQ(product.stats.hidden_wires, 6u);
    EXPECT_GT(product.stats.hidden_steps, 0u);
    // Clean construction: no disabled exports, no blocked hidden
    // actions, no TFM diagnostics — the shop models were built for it.
    EXPECT_TRUE(product.stats.notes.empty());

    const auto& methods = product.spec.methods;
    ASSERT_EQ(methods.size(), 7u);
    EXPECT_EQ(methods[0].name, "Shop");
    EXPECT_EQ(methods[1].name, "~Shop");
    EXPECT_EQ(methods[2].name, "Purchase");
    EXPECT_EQ(methods[3].name, "Sell");
    EXPECT_EQ(methods[4].name, "Balance");
    EXPECT_EQ(methods[5].name, "OnHand");
    EXPECT_EQ(methods[6].name, "AuditCount");
    ASSERT_EQ(methods[2].parameters.size(), 2u);  // Purchase(sku, cost)
}

TEST(ShopAssembly, ProductTransactionsAreValid) {
    const auto product = shop_product();
    const tfm::Graph g = product.spec.build_tfm();
    EXPECT_TRUE(g.diagnose().empty());

    tfm::EnumerationOptions options;
    options.max_transactions = 500;
    const auto ts = g.enumerate_transactions(options);
    ASSERT_FALSE(ts.empty());
    for (const auto& t : ts) EXPECT_TRUE(g.is_valid_transaction(t.path));
}

TEST(ShopAssembly, ProductIsDeterministicallyOrdered) {
    // Two independent constructions yield byte-identical specs — the
    // fleet determinism gate builds on this.
    const auto p1 = shop_product();
    const auto p2 = shop_product();
    EXPECT_EQ(p1.spec.build_tfm().to_dot(), p2.spec.build_tfm().to_dot());
    EXPECT_EQ(assembly::describe(p1.stats), assembly::describe(p2.stats));
}

TEST(ShopAssembly, DescribeMentionsPruning) {
    const auto product = shop_product();
    const std::string text = assembly::describe(product.stats);
    EXPECT_NE(text.find("conceivable tuples: 400"), std::string::npos);
    EXPECT_NE(text.find("pruned tuples"), std::string::npos);
    EXPECT_NE(text.find("hidden wires:       6"), std::string::npos);
}

// --------------------------------------------------------- audited wallet
//
// The paper's §6 Wallet+Ledger system as a two-role assembly: the Wallet
// mutants of the intraclass `wallet` target, hunted through the
// AuditedWallet facade, which also reports the audit Ledger.

/// One registered campaign target run through MutationEngine::run, with
/// the campaign's probe suite when `probe` is set.
struct TargetRun {
    std::size_t cases = 0;
    std::vector<mutation::Mutant> mutants;
    mutation::MutationRun run;

    [[nodiscard]] bool killed(std::size_t i) const {
        return run.outcomes[i].fate == mutation::MutantFate::Killed;
    }
};

TargetRun run_target(const std::string& name, tfm::Criterion criterion,
                     bool probe = false) {
    examples::register_example_targets();
    const serve::BuiltinTarget* target = serve::find_builtin_target(name);
    const serve::BuiltinComponent holder = target->make_component();
    driver::GeneratorOptions generator;
    generator.criterion = criterion;
    const driver::TestSuite suite = holder.component->generate_tests(generator);
    std::optional<driver::TestSuite> probe_suite;
    if (probe) {
        probe_suite = holder.component->generate_tests(
            campaign::probe_generator(generator));
    }
    TargetRun out;
    out.cases = suite.size();
    out.mutants = target->mutants();
    out.run = mutation::MutationEngine(holder.component->registry())
                  .run(suite, out.mutants, probe_suite ? &*probe_suite : nullptr);
    return out;
}

core::SelfTestableComponent audited_wallet_component() {
    return {examples::audited_wallet_product().spec,
            examples::audited_wallet_binding()};
}

driver::GeneratorOptions all_links() {
    driver::GeneratorOptions options;
    options.criterion = tfm::Criterion::AllEdges;
    return options;
}

TEST(AuditedWalletAssembly, ProductBuildsDeterministically) {
    const auto p1 = examples::audited_wallet_product();
    const auto p2 = examples::audited_wallet_product();
    EXPECT_EQ(p1.spec.build_tfm().to_dot(), p2.spec.build_tfm().to_dot());
    EXPECT_EQ(assembly::describe(p1.stats), assembly::describe(p2.stats));
    EXPECT_TRUE(p1.stats.notes.empty());
    EXPECT_EQ(p1.stats.hidden_wires, 2u);

    std::vector<std::string> names;
    for (const auto& m : p1.spec.methods) names.push_back(m.name);
    EXPECT_EQ(names, (std::vector<std::string>{"AuditedWallet", "~AuditedWallet",
                                               "Deposit", "Withdraw", "Balance",
                                               "Count", "Total"}));
}

/// The product's clean all-links suite run through the ordinary runner.
driver::SuiteResult run_clean_system_suite() {
    const core::SelfTestableComponent component = audited_wallet_component();
    const driver::TestSuite suite = component.generate_tests(all_links());
    EXPECT_EQ(suite.size(), 15u);
    return driver::TestRunner(component.registry()).run(suite);
}

TEST(SystemGen, HealthySystemRunsGreen) {
    const driver::SuiteResult result = run_clean_system_suite();
    EXPECT_EQ(result.failed(), 0u);
    EXPECT_EQ(result.passed(), result.results.size());
    // Reports contain both roles' state.
    for (const auto& r : result.results) {
        EXPECT_NE(r.report.find("Wallet{"), std::string::npos) << r.report;
        EXPECT_NE(r.report.find("Ledger{"), std::string::npos) << r.report;
    }
}

TEST(SystemGen, CrossClassConsistencyHoldsOnAuditedPaths) {
    // The cross-class property: every movement books through to the
    // ledger, so each final report shows balance == ledger total.  The
    // facade attaches the ledger at birth, so every path is audited.
    const driver::SuiteResult result = run_clean_system_suite();
    ASSERT_FALSE(result.results.empty());
    for (const auto& r : result.results) {
        EXPECT_NE(r.report.find("audited=yes"), std::string::npos) << r.report;
        const auto balance = r.report.find("Wallet{balance=");
        const auto total = r.report.find("total=");
        ASSERT_NE(balance, std::string::npos) << r.report;
        ASSERT_NE(total, std::string::npos) << r.report;
        EXPECT_EQ(std::stoi(r.report.substr(balance + 15)),
                  std::stoi(r.report.substr(total + 6)))
            << r.report;
    }
}

TEST(AuditedWalletAssembly, ReproducesTheIntraclassAndInterclassRows) {
    const TargetRun alone =
        run_target("wallet", tfm::Criterion::AllTransactions);
    EXPECT_EQ(alone.cases, 12u);
    ASSERT_EQ(alone.run.total(), 65u);
    EXPECT_TRUE(alone.run.baseline_clean);
    EXPECT_EQ(alone.run.killed(), 42u);

    const TargetRun assembled =
        run_target("audited-wallet", tfm::Criterion::AllEdges);
    EXPECT_EQ(assembled.cases, 15u);
    ASSERT_EQ(assembled.run.total(), 65u);
    EXPECT_TRUE(assembled.run.baseline_clean);
    EXPECT_EQ(assembled.run.killed(), 63u);

    std::vector<std::string> survivors;
    std::vector<std::string> interaction_only;
    for (std::size_t i = 0; i < assembled.mutants.size(); ++i) {
        const mutation::Mutant& m = assembled.mutants[i];
        if (!assembled.killed(i)) survivors.push_back(m.id());
        if (!assembled.killed(i) || alone.killed(i)) continue;
        interaction_only.push_back(m.id());
        // Every one sits on a write-through site: the ledger pointer or
        // an amount booked with the ledger.
        const bool deposit = m.method->method_name() == "Deposit";
        const std::size_t first = deposit ? 2 : 3;
        const std::size_t last = deposit ? 3 : 5;
        EXPECT_TRUE(m.site_index >= first && m.site_index <= last) << m.id();
    }
    EXPECT_EQ(survivors,
              (std::vector<std::string>{"Wallet::Withdraw@s4.IndVarRepReq.ONE",
                                        "Wallet::Withdraw@s4.IndVarRepReq.MAXINT"}));
    EXPECT_EQ(interaction_only.size(), 21u);
    EXPECT_NE(std::find(interaction_only.begin(), interaction_only.end(),
                        "Wallet::Deposit@s2.IndVarRepReq.NULL"),
              interaction_only.end());

    // Probe presumption is unsound for collaboration faults: the
    // amplified probe of Wallet alone kills none of the 23 survivors, so
    // all are presumed equivalent and the score reads 100% — yet the
    // assembly kills 21 of them.
    const TargetRun probed =
        run_target("wallet", tfm::Criterion::AllTransactions, true);
    EXPECT_EQ(probed.run.equivalent(), 23u);
    EXPECT_EQ(probed.run.score(), 1.0);
    std::size_t presumed_yet_killed = 0;
    for (std::size_t i = 0; i < probed.mutants.size(); ++i) {
        if (probed.run.outcomes[i].fate ==
                mutation::MutantFate::EquivalentPresumed &&
            assembled.killed(i)) {
            ++presumed_yet_killed;
        }
    }
    EXPECT_EQ(presumed_yet_killed, 21u);
}

TEST(AuditedWalletAssembly, GeneratedDriverCompilesAndRuns) {
    // The product suite through the ordinary Fig. 6/7 driver generator:
    // the facade is a plain self-testable class, so no multi-class
    // codegen is needed.
    if (std::system("c++ --version > /dev/null 2>&1") != 0) {
        GTEST_SKIP() << "no c++ compiler on PATH";
    }
    const core::SelfTestableComponent component = audited_wallet_component();
    const driver::TestSuite suite = component.generate_tests(all_links());

    codegen::CodegenOptions cg;
    cg.includes = {"wallet.h"};
    cg.usings = {"stc::examples"};
    cg.log_file = "audited_wallet_result.txt";
    const codegen::DriverCodegen generator(component.spec(), cg);

    const std::string root(STC_SOURCE_DIR);
    {
        std::ofstream out("/tmp/stc_audited_wallet_driver.cpp");
        out << generator.suite_source(suite);
    }
    const std::string compile =
        "c++ -std=c++20 -I " + root + "/examples/wallet -I " + root +
        "/src/bit/include -I " + root + "/src/support/include -I " + root +
        "/src/mutation/include -I " + root + "/src/domain/include -I " + root +
        "/src/driver/include -I " + root + "/src/tspec/include -I " + root +
        "/src/tfm/include -I " + root + "/src/reflect/include "
        "/tmp/stc_audited_wallet_driver.cpp " +
        root + "/examples/wallet/wallet.cpp " + root + "/src/bit/bit.cpp " + root +
        "/src/mutation/controller.cpp " + root + "/src/mutation/frame.cpp " + root +
        "/src/mutation/descriptor.cpp " + root + "/src/mutation/mutant.cpp " + root +
        "/src/support/strings.cpp "
        "-o /tmp/stc_audited_wallet_driver > /tmp/stc_audited_wallet_cc.log 2>&1";
    ASSERT_EQ(std::system(compile.c_str()), 0)
        << "generated driver failed to compile";
    ASSERT_EQ(std::system("cd /tmp && rm -f audited_wallet_result.txt && "
                          "./stc_audited_wallet_driver"),
              0);
    std::ifstream log("/tmp/audited_wallet_result.txt");
    ASSERT_TRUE(log.good());
    std::stringstream content;
    content << log.rdbuf();
    const std::string text = content.str();
    std::size_t ok = 0;
    for (auto at = text.find("OK!"); at != std::string::npos;
         at = text.find("OK!", at + 1)) {
        ++ok;
    }
    EXPECT_EQ(ok, suite.size());
    EXPECT_NE(text.find("AuditedWallet{Wallet{"), std::string::npos);
}

}  // namespace
}  // namespace stc
