// Focused tests for small helpers not centrally exercised elsewhere.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "stc/domain/value.h"
#include "stc/support/rng.h"
#include "stc/support/strings.h"
#include "stc/support/table.h"
#include "stc/tfm/graph.h"

namespace stc {
namespace {

TEST(MiscStrings, PercentHandlesNan) {
    EXPECT_EQ(support::percent(std::nan("")), "n/a");
}

TEST(MiscRng, ChanceRespectsProbabilityEnds) {
    support::Pcg32 rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
    // A fair-ish coin lands both ways over 200 trials.
    int heads = 0;
    for (int i = 0; i < 200; ++i) heads += rng.chance(0.5) ? 1 : 0;
    EXPECT_GT(heads, 50);
    EXPECT_LT(heads, 150);
}

TEST(MiscTable, AlignmentOverride) {
    support::TextTable t({"a", "b"});
    t.set_align(1, support::Align::Left);
    t.add_row({"x", "1"});
    t.add_row({"y", "22"});
    std::ostringstream os;
    t.render(os);
    // Left alignment pads on the right: "| 1  |" not "|  1 |".
    EXPECT_NE(os.str().find("| 1  |"), std::string::npos);
}

TEST(MiscValue, DisplayForms) {
    using domain::Value;
    EXPECT_EQ(Value::make_string("plain").to_display(), "plain");
    EXPECT_EQ(Value::make_pointer(nullptr, "P").to_display(), "<null P*>");
    int x = 0;
    EXPECT_NE(Value::make_pointer(&x, "P").to_display().find("<P* "),
              std::string::npos);
    EXPECT_EQ(Value::make_object(&x, "Obj").to_display(), "<object Obj>");
    EXPECT_EQ(Value{}.to_display(), "/*empty*/");
}

TEST(MiscValue, SourceFormKeepsRealMarker) {
    EXPECT_EQ(domain::Value::make_real(0.5).to_source(), "0.5");
    EXPECT_EQ(domain::Value::make_real(1e20).to_source(), "1e+20");
    EXPECT_EQ(domain::Value::make_real(3.0).to_source(), "3.0");
}

TEST(MiscTfm, DiagnosticNamesAreStable) {
    EXPECT_STREQ(to_string(tfm::DiagnosticKind::NoBirthNode), "no-birth-node");
    EXPECT_STREQ(to_string(tfm::DiagnosticKind::DeadEndMismatch),
                 "cannot-reach-death");
    EXPECT_STREQ(to_string(tfm::DiagnosticKind::DuplicateEdge), "duplicate-edge");
}

TEST(MiscTfm, EmptyGraphBehaves) {
    tfm::Graph g;
    EXPECT_EQ(g.node_count(), 0u);
    EXPECT_TRUE(g.enumerate_transactions().empty());
    const auto diagnostics = g.diagnose();
    // Only "no birth node" applies to an empty graph.
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_EQ(diagnostics[0].kind, tfm::DiagnosticKind::NoBirthNode);
}

TEST(MiscTfm, DotWithoutHighlightHasNoRed) {
    tfm::Graph g;
    g.add_node(tfm::Node{"n0", true, {"m"}});
    const std::string dot = g.to_dot();
    EXPECT_EQ(dot.find("color=red"), std::string::npos);
}

}  // namespace
}  // namespace stc
