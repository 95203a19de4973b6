// Tests for the extended DirVar* operators — interface-variable (formal
// parameter) mutation, the half of Delamaro's interface mutation the
// paper's essential subset traded away.
#include <gtest/gtest.h>

#include "stc/mutation/controller.h"
#include "stc/mutation/engine.h"
#include "stc/mutation/frame.h"
#include "stc/mutation/report.h"
#include "wallet_component.h"

namespace stc::mutation {
namespace {

const MethodDescriptor& gadget_desc() {
    static const MethodDescriptor d = MethodDescriptor::Builder("G", "f")
                                          .param("p", int_type())
                                          .local("l", int_type())
                                          .attr("g", int_type(), true)
                                          .attr("e", int_type(), false)
                                          .site("l", "local use")          // s0
                                          .interface_site("p", "param")    // s1
                                          .build();
    return d;
}

// -------------------------------------------------------------- descriptor

TEST(DirVar, InterfaceSitesRequireParams) {
    EXPECT_THROW((void)MethodDescriptor::Builder("C", "f")
                     .local("l", int_type())
                     .interface_site("l")
                     .build(),
                 SpecError);
    // And plain sites still reject params, pointing at interface_site.
    try {
        (void)MethodDescriptor::Builder("C", "f")
            .param("p", int_type())
            .site("p")
            .build();
        FAIL();
    } catch (const SpecError& e) {
        EXPECT_NE(std::string(e.what()).find("interface_site"), std::string::npos);
    }
}

// ------------------------------------------------------------- enumeration

TEST(DirVar, OperatorsPartitionBySiteKind) {
    // IndVar ops never touch the interface site; DirVar ops never touch
    // the local site.
    const auto ind = enumerate_mutants(gadget_desc());  // default: paper set
    for (const auto& m : ind) {
        EXPECT_EQ(m.site_index, 0u) << m.id();
        EXPECT_FALSE(is_dirvar(m.op));
    }
    const auto dir = enumerate_mutants(
        gadget_desc(), {kDirVarOperators.begin(), kDirVarOperators.end()});
    for (const auto& m : dir) {
        EXPECT_EQ(m.site_index, 1u) << m.id();
        EXPECT_TRUE(is_dirvar(m.op));
    }
    // DirVar population on s1: BitNeg 1, RepGlob {g} 1, RepLoc {l} 1,
    // RepExt {e} 1, RepReq 5 = 9.
    EXPECT_EQ(dir.size(), 9u);

    const auto all = enumerate_mutants(
        gadget_desc(), {kExtendedOperators.begin(), kExtendedOperators.end()});
    EXPECT_EQ(all.size(), ind.size() + dir.size());
}

TEST(DirVar, ClassificationHelpers) {
    EXPECT_TRUE(is_dirvar(Operator::DirVarRepReq));
    EXPECT_FALSE(is_dirvar(Operator::IndVarRepReq));
    EXPECT_TRUE(is_bitneg(Operator::DirVarBitNeg));
    EXPECT_TRUE(is_repreq(Operator::DirVarRepReq));
    EXPECT_STREQ(to_string(Operator::DirVarRepLoc), "DirVarRepLoc");
    EXPECT_STREQ(describe(Operator::DirVarRepGlob),
                 "Replaces interface variable by G(R2)");
}

// ------------------------------------------------------------------ frame

TEST(DirVar, FrameAppliesDirVarSubstitutions) {
    // DirVarRepGlob at the interface site: the parameter use reads g.
    const Mutant rep_glob{&gadget_desc(), 1, Operator::DirVarRepGlob, "g", {}};
    {
        MutantActivation activation(rep_glob);
        MutFrame frame(gadget_desc());
        int g = 77;
        frame.bind("g", &g);
        EXPECT_EQ(frame.use(1, 5), 77);   // param use mutated
        EXPECT_EQ(frame.use(0, 5), 5);    // local site untouched
    }
    const Mutant bitneg{&gadget_desc(), 1, Operator::DirVarBitNeg, "", {}};
    {
        MutantActivation activation(bitneg);
        MutFrame frame(gadget_desc());
        EXPECT_EQ(frame.use(1, 5), ~5);
    }
    const Mutant repreq{&gadget_desc(), 1, Operator::DirVarRepReq, "",
                        RequiredConstant{TypeKey::Kind::Int, -1, 0.0, "MINUSONE"}};
    {
        MutantActivation activation(repreq);
        MutFrame frame(gadget_desc());
        EXPECT_EQ(frame.use(1, 5), -1);
    }
}

// ----------------------------------------------------------- end to end

TEST(DirVar, WalletParameterMutantsAreKilled) {
    // Deposit's amount -> ZERO: the deposit vanishes; observable in the
    // wallet balance and the ledger.
    reflect::Registry registry;
    registry.add(examples::wallet_binding());

    examples::LedgerPool ledgers;
    const auto completions = ledgers.completions();
    driver::DriverGenerator generator(examples::wallet_intraclass_spec());
    generator.completions(&completions);
    const auto suite = generator.generate();

    const auto dir_mutants = enumerate_mutants(
        examples::wallet_descriptors(), "Wallet",
        {kDirVarOperators.begin(), kDirVarOperators.end()});
    ASSERT_FALSE(dir_mutants.empty());

    const MutationEngine engine(registry);
    const auto run = engine.run(suite, dir_mutants, nullptr);
    EXPECT_TRUE(run.baseline_clean);
    EXPECT_GT(run.score(), 0.5);

    // Table rendering shows DirVar columns only when present.
    const auto table = MutationTable::build(run);
    const auto cols = table.columns();
    bool has_dirvar = false;
    for (Operator op : cols) has_dirvar = has_dirvar || is_dirvar(op);
    EXPECT_TRUE(has_dirvar);
    EXPECT_EQ(table.grand_total().total, dir_mutants.size());
}

TEST(DirVar, PaperBenchPopulationsUnchanged) {
    // The default (paper) operator set must still produce IndVar-only
    // populations even on descriptors that declare interface sites.
    const auto mutants =
        enumerate_mutants(examples::wallet_descriptors(), "Wallet");
    for (const auto& m : mutants) EXPECT_FALSE(is_dirvar(m.op)) << m.id();
}

}  // namespace
}  // namespace stc::mutation
