#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "stc/bit/assertions.h"
#include "stc/mfc/coblist.h"
#include "stc/mfc/sortable.h"
#include "stc/mfc/component.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/mutant.h"
#include "stc/support/rng.h"

namespace stc::mfc {
namespace {

/// Elements owned by the fixture; lists never own their elements.
class ListTest : public ::testing::Test {
protected:
    CInt* element(int value) {
        pool_.push_back(std::make_unique<CInt>(value));
        return pool_.back().get();
    }

    /// Values along the list, head to tail.
    static std::vector<int> values_of(const CObList& list) {
        std::vector<int> out;
        for (POSITION p = list.GetHeadPosition(); p != nullptr;) {
            out.push_back(dynamic_cast<CInt*>(list.GetNext(p))->value());
        }
        return out;
    }

    std::vector<std::unique_ptr<CInt>> pool_;
};

// --------------------------------------------------------------- basic API

TEST_F(ListTest, StartsEmpty) {
    CObList list;
    EXPECT_TRUE(list.IsEmpty());
    EXPECT_EQ(list.GetCount(), 0);
    EXPECT_EQ(list.GetHeadPosition(), nullptr);
    EXPECT_EQ(list.GetTailPosition(), nullptr);
    EXPECT_TRUE(list.DeepValidState());
}

TEST_F(ListTest, AddHeadPrepends) {
    CObList list;
    list.AddHead(element(1));
    list.AddHead(element(2));
    list.AddHead(element(3));
    EXPECT_EQ(values_of(list), (std::vector<int>{3, 2, 1}));
    EXPECT_EQ(list.GetCount(), 3);
    EXPECT_TRUE(list.DeepValidState());
}

TEST_F(ListTest, AddTailAppends) {
    CObList list;
    list.AddTail(element(1));
    list.AddTail(element(2));
    EXPECT_EQ(values_of(list), (std::vector<int>{1, 2}));
    EXPECT_EQ(dynamic_cast<CInt*>(list.GetHead())->value(), 1);
    EXPECT_EQ(dynamic_cast<CInt*>(list.GetTail())->value(), 2);
}

TEST_F(ListTest, RemoveHeadAndTailReturnElements) {
    CObList list;
    list.AddTail(element(1));
    list.AddTail(element(2));
    list.AddTail(element(3));
    EXPECT_EQ(dynamic_cast<CInt*>(list.RemoveHead())->value(), 1);
    EXPECT_EQ(dynamic_cast<CInt*>(list.RemoveTail())->value(), 3);
    EXPECT_EQ(values_of(list), (std::vector<int>{2}));
    EXPECT_EQ(dynamic_cast<CInt*>(list.RemoveHead())->value(), 2);
    EXPECT_TRUE(list.IsEmpty());
    EXPECT_TRUE(list.DeepValidState());
}

TEST_F(ListTest, RemoveAtEveryPosition) {
    for (int victim = 0; victim < 4; ++victim) {
        CObList list;
        for (int i = 0; i < 4; ++i) list.AddTail(element(i));
        list.RemoveAt(list.FindIndex(victim));
        std::vector<int> expected;
        for (int i = 0; i < 4; ++i) {
            if (i != victim) expected.push_back(i);
        }
        EXPECT_EQ(values_of(list), expected) << "victim " << victim;
        EXPECT_TRUE(list.DeepValidState());
    }
}

TEST_F(ListTest, RemoveAtSingleElement) {
    CObList list;
    list.AddHead(element(9));
    list.RemoveAt(list.GetHeadPosition());
    EXPECT_TRUE(list.IsEmpty());
    EXPECT_TRUE(list.DeepValidState());
}

TEST_F(ListTest, NodeRecyclingThroughFreeList) {
    CObList list;
    const POSITION first = list.AddHead(element(1));
    list.RemoveHead();
    const POSITION second = list.AddHead(element(2));
    // MFC recycles the freed node.
    EXPECT_EQ(first, second);
}

TEST_F(ListTest, IterationForwardAndBackward) {
    CObList list;
    for (int i = 1; i <= 4; ++i) list.AddTail(element(i));
    std::vector<int> backward;
    for (POSITION p = list.GetTailPosition(); p != nullptr;) {
        backward.push_back(dynamic_cast<CInt*>(list.GetPrev(p))->value());
    }
    EXPECT_EQ(backward, (std::vector<int>{4, 3, 2, 1}));
}

TEST_F(ListTest, GetAtSetAt) {
    CObList list;
    list.AddTail(element(1));
    list.AddTail(element(2));
    const POSITION p = list.FindIndex(1);
    EXPECT_EQ(dynamic_cast<CInt*>(list.GetAt(p))->value(), 2);
    list.SetAt(p, element(99));
    EXPECT_EQ(values_of(list), (std::vector<int>{1, 99}));
}

TEST_F(ListTest, InsertBeforeAndAfter) {
    CObList list;
    list.AddTail(element(1));
    list.AddTail(element(3));
    list.InsertAfter(list.GetHeadPosition(), element(2));
    list.InsertBefore(list.GetHeadPosition(), element(0));
    EXPECT_EQ(values_of(list), (std::vector<int>{0, 1, 2, 3}));
    // Null position falls back to AddHead / AddTail (MFC semantics).
    list.InsertBefore(nullptr, element(-1));
    list.InsertAfter(nullptr, element(4));
    EXPECT_EQ(values_of(list), (std::vector<int>{-1, 0, 1, 2, 3, 4}));
    EXPECT_TRUE(list.DeepValidState());
}

TEST_F(ListTest, FindUsesPointerIdentity) {
    CObList list;
    CInt* a = element(7);
    CInt* twin = element(7);
    list.AddTail(a);
    list.AddTail(twin);
    EXPECT_EQ(list.Find(a), list.GetHeadPosition());
    // Identity, not equality: searching for `twin` skips `a`.
    EXPECT_NE(list.Find(twin), list.GetHeadPosition());
    EXPECT_EQ(list.Find(a, list.GetHeadPosition()), nullptr);  // after a: none
    EXPECT_EQ(list.Find(element(8)), nullptr);
}

TEST_F(ListTest, FindIndexBounds) {
    CObList list;
    list.AddTail(element(1));
    list.AddTail(element(2));
    EXPECT_NE(list.FindIndex(0), nullptr);
    EXPECT_NE(list.FindIndex(1), nullptr);
    EXPECT_EQ(list.FindIndex(2), nullptr);
    EXPECT_EQ(list.FindIndex(-1), nullptr);
}

TEST_F(ListTest, RemoveAllEmptiesAndRecycles) {
    CObList list;
    for (int i = 0; i < 5; ++i) list.AddTail(element(i));
    list.RemoveAll();
    EXPECT_TRUE(list.IsEmpty());
    EXPECT_TRUE(list.DeepValidState());
    // Nodes were recycled, not leaked: re-adding reuses the pool.
    for (int i = 0; i < 5; ++i) list.AddTail(element(i));
    EXPECT_EQ(list.GetCount(), 5);
}

TEST_F(ListTest, BulkAddHeadPreservesOrder) {
    CObList target;
    target.AddTail(element(10));
    CObList source;
    source.AddTail(element(1));
    source.AddTail(element(2));
    target.AddHead(&source);
    EXPECT_EQ(values_of(target), (std::vector<int>{1, 2, 10}));
    // The source list is untouched; elements are shared, nodes are not.
    EXPECT_EQ(values_of(source), (std::vector<int>{1, 2}));
    EXPECT_TRUE(target.DeepValidState());
    EXPECT_TRUE(source.DeepValidState());
}

TEST_F(ListTest, BulkAddTailAppends) {
    CObList target;
    target.AddTail(element(10));
    CObList source;
    source.AddTail(element(1));
    source.AddTail(element(2));
    target.AddTail(&source);
    EXPECT_EQ(values_of(target), (std::vector<int>{10, 1, 2}));
    EXPECT_TRUE(target.DeepValidState());
}

TEST_F(ListTest, BulkAddOfEmptyListIsNoop) {
    CObList target;
    target.AddTail(element(1));
    CObList empty;
    target.AddHead(&empty);
    target.AddTail(&empty);
    EXPECT_EQ(values_of(target), (std::vector<int>{1}));
}

TEST_F(ListTest, BulkAddNullAsserts) {
    bit::TestModeGuard test_mode;
    CObList target;
    EXPECT_THROW(target.AddHead(static_cast<CObList*>(nullptr)),
                 bit::AssertionViolation);
    EXPECT_THROW(target.AddTail(static_cast<CObList*>(nullptr)),
                 bit::AssertionViolation);
}

// ----------------------------------------------------- assertions and BIT

TEST_F(ListTest, PreconditionsFireInTestMode) {
    bit::TestModeGuard test_mode;
    CObList list;
    EXPECT_THROW((void)list.RemoveHead(), bit::AssertionViolation);
    EXPECT_THROW((void)list.RemoveTail(), bit::AssertionViolation);
    EXPECT_THROW((void)list.GetHead(), bit::AssertionViolation);
    EXPECT_THROW(list.AddHead(static_cast<CObject*>(nullptr)),
                 bit::AssertionViolation);
    EXPECT_THROW(list.RemoveAt(nullptr), bit::AssertionViolation);
}

TEST_F(ListTest, ForeignPositionFaults) {
    CObList list;
    CObList other;
    other.AddHead(element(1));
    list.AddHead(element(2));
    // A POSITION from another list is outside this list's pool.
    EXPECT_THROW(list.RemoveAt(other.GetHeadPosition()),
                 mutation::StructuralFault);
    EXPECT_THROW((void)list.GetAt(other.GetHeadPosition()),
                 mutation::StructuralFault);
}

TEST_F(ListTest, InvariantTestAndReporter) {
    bit::TestModeGuard test_mode;
    CObList list;
    list.AddTail(element(5));
    list.AddTail(element(6));
    EXPECT_NO_THROW(list.InvariantTest());
    EXPECT_EQ(list.report(), "CObList count=2 [CInt(5), CInt(6)]");
    EXPECT_NO_THROW(list.AssertValid());
}

TEST_F(ListTest, WeakInvariantIsMfcFaithful) {
    // ValidState deliberately checks only head/tail consistency; a count
    // mismatch with intact head/tail is invisible to it but caught by
    // DeepValidState.  (This difference is what the Table 3 experiment
    // depends on.)
    CObList list;
    list.AddTail(element(1));
    EXPECT_TRUE(list.ValidState());
    EXPECT_TRUE(list.DeepValidState());
}

TEST_F(ListTest, ReporterRendersCycleMarkerUnderMutation) {
    // AddHead mutant: link pNext of the new node to itself (RepLoc
    // pNewNode at the "link pNext" site) -> a one-node cycle at the head.
    const auto& registry = descriptors();
    const auto* add_head = registry.find("CObList", "AddHead");
    ASSERT_NE(add_head, nullptr);
    // site 2 = "link pNext"; replace m_pNodeHead value by pNewNode
    // (RepLoc on site 3: "old head value" -> pNewNode).
    const mutation::Mutant m{add_head, 3, mutation::Operator::IndVarRepLoc,
                             "pNewNode", {}};

    CObList list;
    list.AddTail(element(7));
    {
        const mutation::MutantActivation activation(m);
        list.AddHead(element(8));  // head->pNext now points at head
    }
    EXPECT_FALSE(list.DeepValidState());
    const std::string report = list.report();
    EXPECT_NE(report.find("<cycle>"), std::string::npos) << report;
}

TEST_F(ListTest, FreeNodeFaultsOnNullUnderMutation) {
    // RemoveHead mutant: the recycled node replaced by NULL -> FreeNode
    // dereferences null, the simulated crash of the original MFC code.
    const auto* remove_head = descriptors().find("CObList", "RemoveHead");
    ASSERT_NE(remove_head, nullptr);
    const mutation::Mutant m{
        remove_head, 5, mutation::Operator::IndVarRepReq, "",
        mutation::required_constants(mutation::pointer_type("CNode")).front()};

    CObList list;
    list.AddTail(element(1));
    const mutation::MutantActivation activation(m);
    EXPECT_THROW((void)list.RemoveHead(), mutation::StructuralFault);
}

TEST_F(ListTest, RunawayTraversalGuardFires) {
    // Same cycle as above; Find() must fault instead of spinning.
    const auto* add_head = descriptors().find("CObList", "AddHead");
    const mutation::Mutant m{add_head, 3, mutation::Operator::IndVarRepLoc,
                             "pNewNode", {}};
    CObList list;
    list.AddTail(element(7));
    {
        const mutation::MutantActivation activation(m);
        list.AddHead(element(8));
    }
    CInt needle(99);
    EXPECT_THROW((void)list.Find(&needle), mutation::StructuralFault);
}

// ------------------------------------------- checkpoint clone (CopyStateFrom)

/// Test access to a list's representation: its links, to corrupt them
/// the way a mutant does, and its node pool.
class OpenList : public CObList {
public:
    using CObList::is_owned;
    using CObList::m_pNodeFree;
    using CObList::m_pNodeHead;

    /// Elements the free nodes still hold, front of the free list first
    /// (FreeNode keeps a node's data; NewNode clears it on reuse).
    [[nodiscard]] std::vector<const CObject*> free_data() const {
        std::vector<const CObject*> out;
        for (const CNode* node = m_pNodeFree;
             node != nullptr && out.size() <= owned_.size(); node = node->pNext) {
            out.push_back(node->data);
        }
        return out;
    }
    [[nodiscard]] std::size_t pool_size() const { return owned_.size(); }
};

/// The same calls on a list, recorded until the first fault ends them.
std::vector<std::string> walk_until_fault(CObList& list) {
    std::vector<std::string> trace{std::to_string(list.GetCount())};
    try {
        POSITION p = list.GetHeadPosition();
        // One GetNext past the count: a foreign link faults before it.
        for (int i = 0; i <= list.GetCount(); ++i) {
            trace.push_back(list.GetNext(p)->ToText());
        }
    } catch (const mutation::StructuralFault& fault) {
        trace.push_back(fault.what());
    }
    return trace;
}

TEST_F(ListTest, CloneReportsTheSameState) {
    OpenList source;
    for (int i = 1; i <= 6; ++i) source.AddTail(element(i));
    (void)source.RemoveHead();
    source.RemoveAt(source.FindIndex(2));
    source.AddHead(element(9));  // reuses a freed node

    OpenList copy;
    copy.CopyStateFrom(source);
    EXPECT_EQ(copy.report(), source.report());
    EXPECT_EQ(copy.report(), "CObList count=5 [CInt(9), CInt(2), CInt(3), "
                             "CInt(5), CInt(6)]");
    EXPECT_TRUE(copy.DeepValidState());
    EXPECT_EQ(copy.pool_size(), source.pool_size());
    EXPECT_EQ(copy.free_data(), source.free_data());
    for (POSITION p = copy.GetHeadPosition(); p != nullptr; p = p->pNext) {
        EXPECT_TRUE(copy.is_owned(p));
        EXPECT_FALSE(source.is_owned(p));  // no node is shared
    }
}

TEST_F(ListTest, CloneReusesFreeNodesInTheSameOrder) {
    OpenList source;
    for (int i = 1; i <= 5; ++i) source.AddTail(element(i));
    for (int i = 0; i < 3; ++i) (void)source.RemoveHead();

    OpenList copy;
    copy.CopyStateFrom(source);
    ASSERT_EQ(copy.free_data().size(), 3u);
    EXPECT_EQ(copy.free_data(), source.free_data());
    // RemoveHead frees onto the front, AddHead takes from the front: each
    // list must hand out the node at the front of its own free list, and
    // the two free lists must stay alike, past the point where both
    // allocate fresh nodes.
    for (int step = 0; step < 5; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        if (step % 2 == 1) {
            (void)source.RemoveHead();
            (void)copy.RemoveHead();
        }
        CInt* next = element(10 + step);
        const POSITION source_front = source.m_pNodeFree;
        const POSITION copy_front = copy.m_pNodeFree;
        const POSITION source_added = source.AddHead(next);
        const POSITION copy_added = copy.AddHead(next);
        if (source_front != nullptr) {
            EXPECT_EQ(source_added, source_front);
            EXPECT_EQ(copy_added, copy_front);
        } else {
            EXPECT_EQ(copy_front, nullptr);
        }
        EXPECT_EQ(copy.free_data(), source.free_data());
        EXPECT_EQ(copy.report(), source.report());
        EXPECT_EQ(copy.pool_size(), source.pool_size());
    }
}

TEST_F(ListTest, CloneKeepsForeignPointersForeign) {
    CInt stray(42);
    CNode foreign{&stray, nullptr, nullptr};
    OpenList source;
    for (int i = 1; i <= 3; ++i) source.AddTail(element(i));
    source.m_pNodeHead->pNext->pNext = &foreign;  // a mutant's stray link

    OpenList copy;
    copy.CopyStateFrom(source);
    EXPECT_EQ(copy.m_pNodeHead->pNext->pNext, &foreign);
    EXPECT_FALSE(copy.is_owned(&foreign));
    const std::vector<std::string> trace = walk_until_fault(source);
    EXPECT_EQ(walk_until_fault(copy), trace);
    EXPECT_EQ(trace.back(),
              "crash: CObList: dereference of a node outside the pool");

    // A foreign free list: the AddHead that takes from it faults on both.
    CNode foreign_free{};
    source.m_pNodeFree = &foreign_free;
    OpenList free_copy;
    free_copy.CopyStateFrom(source);
    EXPECT_EQ(free_copy.m_pNodeFree, &foreign_free);
    EXPECT_THROW(source.AddHead(element(7)), mutation::StructuralFault);
    EXPECT_THROW(free_copy.AddHead(element(7)), mutation::StructuralFault);
}

TEST_F(ListTest, CloneTeardownFreesExactlyItsOwnNodes) {
    // Under ASan/LSan this fails on a leaked, double-freed or foreign
    // delete; elsewhere it checks that the source survives its clone.
    CInt stray(42);
    CNode foreign{&stray, nullptr, nullptr};
    OpenList source;
    for (int i = 1; i <= 8; ++i) source.AddTail(element(i));
    for (int i = 0; i < 3; ++i) (void)source.RemoveHead();
    const std::string before = source.report();
    {
        OpenList copy;
        copy.CopyStateFrom(source);
        EXPECT_EQ(copy.pool_size(), 8u);
        OpenList corrupted;
        corrupted.CopyStateFrom(copy);
        corrupted.m_pNodeHead->pNext = &foreign;
        OpenList corrupted_copy;
        corrupted_copy.CopyStateFrom(corrupted);
        EXPECT_EQ(corrupted_copy.pool_size(), 8u);
    }
    EXPECT_EQ(source.report(), before);
    EXPECT_TRUE(source.DeepValidState());
}

// ------------------------------------------------------------ sortable list

class SortableTest : public ListTest {
protected:
    CSortableObList list_;

    void fill(const std::vector<int>& values) {
        for (int v : values) list_.AddTail(element(v));
    }
};

TEST_F(SortableTest, Sort1SortsAndRelinks) {
    fill({5, 3, 9, 1, 7});
    list_.Sort1();
    EXPECT_EQ(values_of(list_), (std::vector<int>{1, 3, 5, 7, 9}));
    EXPECT_TRUE(list_.DeepValidState());
    EXPECT_TRUE(list_.IsSorted());
}

TEST_F(SortableTest, Sort2SortsBySwappingData) {
    fill({4, 4, 2, 8, 0});
    const POSITION head_before = list_.GetHeadPosition();
    list_.Sort2();
    EXPECT_EQ(values_of(list_), (std::vector<int>{0, 2, 4, 4, 8}));
    // Sort2 keeps the node chain: the head node is still the same node.
    EXPECT_EQ(list_.GetHeadPosition(), head_before);
    EXPECT_TRUE(list_.DeepValidState());
}

TEST_F(SortableTest, ShellSortSorts) {
    fill({10, -3, 7, 7, 0, 22, -3});
    list_.ShellSort();
    EXPECT_EQ(values_of(list_), (std::vector<int>{-3, -3, 0, 7, 7, 10, 22}));
    EXPECT_TRUE(list_.DeepValidState());
}

TEST_F(SortableTest, SortsHandleTrivialSizes) {
    list_.Sort1();
    list_.Sort2();
    list_.ShellSort();
    EXPECT_TRUE(list_.IsEmpty());

    list_.AddHead(element(42));
    list_.Sort1();
    list_.Sort2();
    list_.ShellSort();
    EXPECT_EQ(values_of(list_), (std::vector<int>{42}));
    EXPECT_TRUE(list_.DeepValidState());
}

TEST_F(SortableTest, Sort1IsStable) {
    // Insertion sort preserves the relative order of equal keys; verify
    // by identity (three distinct CInt objects with the same value).
    CInt* first = element(5);
    CInt* second = element(5);
    CInt* third = element(5);
    list_.AddTail(element(9));
    list_.AddTail(first);
    list_.AddTail(second);
    list_.AddTail(element(1));
    list_.AddTail(third);
    list_.Sort1();

    std::vector<const CObject*> fives;
    for (POSITION p = list_.GetHeadPosition(); p != nullptr;) {
        const CObject* o = list_.GetNext(p);
        if (dynamic_cast<const CInt*>(o)->value() == 5) fives.push_back(o);
    }
    ASSERT_EQ(fives.size(), 3u);
    EXPECT_EQ(fives[0], first);
    EXPECT_EQ(fives[1], second);
    EXPECT_EQ(fives[2], third);
}

TEST_F(SortableTest, FindMaxAndMin) {
    fill({5, -2, 11, 0});
    EXPECT_EQ(dynamic_cast<CInt*>(list_.FindMax())->value(), 11);
    EXPECT_EQ(dynamic_cast<CInt*>(list_.FindMin())->value(), -2);
    // The list is untouched by the queries.
    EXPECT_EQ(values_of(list_), (std::vector<int>{5, -2, 11, 0}));
}

TEST_F(SortableTest, FindOnEmptyListAsserts) {
    bit::TestModeGuard test_mode;
    EXPECT_THROW((void)list_.FindMax(), bit::AssertionViolation);
    EXPECT_THROW((void)list_.FindMin(), bit::AssertionViolation);
}

TEST_F(SortableTest, SortPostconditionsHoldInTestMode) {
    bit::TestModeGuard test_mode;
    fill({3, 1, 2});
    EXPECT_NO_THROW(list_.Sort1());
    EXPECT_NO_THROW(list_.Sort2());
    EXPECT_NO_THROW(list_.ShellSort());
}

TEST_F(SortableTest, IsSortedDetectsDisorder) {
    fill({1, 3, 2});
    EXPECT_FALSE(list_.IsSorted());
    list_.Sort1();
    EXPECT_TRUE(list_.IsSorted());
}

TEST_F(SortableTest, MixedOperationsKeepSortInvariantsAvailable) {
    fill({9, 1});
    list_.Sort1();
    list_.AddHead(element(5));  // deliberately unsorted again
    EXPECT_FALSE(list_.IsSorted());
    list_.Sort2();
    EXPECT_TRUE(list_.IsSorted());
    list_.RemoveHead();
    EXPECT_EQ(values_of(list_), (std::vector<int>{5, 9}));
}

// ------------------------------------------------- property sweep (TEST_P)

// gtest names each instance by a byte dump of its SortCase, so the
// struct must have no padding: uninitialized padding bytes made the
// test names differ from one build to the next.
struct SortCase {
    std::uint64_t seed;
    std::int64_t size;
};
static_assert(std::has_unique_object_representations_v<SortCase>);

class SortProperty : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortProperty, AllThreeSortsAgreeWithStdSort) {
    const auto [seed, size] = GetParam();
    support::Pcg32 rng(seed);

    std::vector<std::unique_ptr<CInt>> pool;
    auto fresh_list = [&pool](const std::vector<int>& values) {
        auto list = std::make_unique<CSortableObList>();
        for (int v : values) {
            pool.push_back(std::make_unique<CInt>(v));
            list->AddTail(pool.back().get());
        }
        return list;
    };

    std::vector<int> values;
    values.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) {
        values.push_back(static_cast<int>(rng.uniform(-50, 50)));
    }
    std::vector<int> expected = values;
    std::sort(expected.begin(), expected.end());

    auto extract = [](const CObList& list) {
        std::vector<int> out;
        for (POSITION p = list.GetHeadPosition(); p != nullptr;) {
            out.push_back(dynamic_cast<CInt*>(list.GetNext(p))->value());
        }
        return out;
    };

    const auto l1 = fresh_list(values);
    l1->Sort1();
    EXPECT_EQ(extract(*l1), expected);
    EXPECT_TRUE(l1->DeepValidState());

    const auto l2 = fresh_list(values);
    l2->Sort2();
    EXPECT_EQ(extract(*l2), expected);
    EXPECT_TRUE(l2->DeepValidState());

    const auto l3 = fresh_list(values);
    l3->ShellSort();
    EXPECT_EQ(extract(*l3), expected);
    EXPECT_TRUE(l3->DeepValidState());
}

INSTANTIATE_TEST_SUITE_P(
    RandomLists, SortProperty,
    ::testing::Values(SortCase{1, 0}, SortCase{2, 1}, SortCase{3, 2}, SortCase{4, 3},
                      SortCase{5, 8}, SortCase{6, 16}, SortCase{7, 33},
                      SortCase{8, 64}, SortCase{9, 100}, SortCase{10, 7}));

class RandomOpsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomOpsProperty, DeepInvariantHoldsUnderRandomOperationSequences) {
    support::Pcg32 rng(GetParam());
    std::vector<std::unique_ptr<CInt>> pool;
    CSortableObList list;
    std::vector<int> model;  // reference model of expected contents

    for (int step = 0; step < 400; ++step) {
        const auto op = rng.index(8);
        const int value = static_cast<int>(rng.uniform(-99, 99));
        switch (op) {
            case 0: {
                pool.push_back(std::make_unique<CInt>(value));
                list.AddHead(pool.back().get());
                model.insert(model.begin(), value);
                break;
            }
            case 1: {
                pool.push_back(std::make_unique<CInt>(value));
                list.AddTail(pool.back().get());
                model.push_back(value);
                break;
            }
            case 2: {
                if (list.IsEmpty()) break;
                list.RemoveHead();
                model.erase(model.begin());
                break;
            }
            case 3: {
                if (list.IsEmpty()) break;
                list.RemoveTail();
                model.pop_back();
                break;
            }
            case 4: {
                if (list.IsEmpty()) break;
                const auto index =
                    static_cast<int>(rng.index(static_cast<std::size_t>(
                        list.GetCount())));
                list.RemoveAt(list.FindIndex(index));
                model.erase(model.begin() + index);
                break;
            }
            case 5: {
                list.Sort1();
                std::sort(model.begin(), model.end());
                break;
            }
            case 6: {
                list.Sort2();
                std::sort(model.begin(), model.end());
                break;
            }
            case 7: {
                list.ShellSort();
                std::sort(model.begin(), model.end());
                break;
            }
            default: break;
        }
        ASSERT_TRUE(list.DeepValidState()) << "step " << step;
        ASSERT_EQ(list.GetCount(), static_cast<int>(model.size()));
    }

    std::vector<int> final_values;
    for (POSITION p = list.GetHeadPosition(); p != nullptr;) {
        final_values.push_back(dynamic_cast<CInt*>(list.GetNext(p))->value());
    }
    EXPECT_EQ(final_values, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOpsProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --------------------------------------------------------- CObject / CInt

TEST(CInt, CompareAndText) {
    const CInt a(1);
    const CInt b(2);
    EXPECT_LT(a.Compare(b), 0);
    EXPECT_GT(b.Compare(a), 0);
    EXPECT_EQ(a.Compare(CInt(1)), 0);
    EXPECT_EQ(a.ToText(), "CInt(1)");
    // Foreign objects order before CInts.
    const CObject plain;
    EXPECT_GT(a.Compare(plain), 0);
    EXPECT_EQ(plain.Compare(a), 0);  // base class has no order
}

}  // namespace
}  // namespace stc::mfc
