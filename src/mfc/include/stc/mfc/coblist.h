// CObList — MFC-compatible doubly linked list of CObject*, rebuilt from
// the documented API and made *self-testable* per the paper's approach:
// it inherits BuiltInTest (InvariantTest + Reporter), carries MFC-style
// assertions as BIT pre/postconditions, and its three methods from the
// paper's Table 3 experiment (AddHead, RemoveAt, RemoveHead) are
// instrumented with interface-mutation use sites.
//
// Crash realism: nodes live in a per-list pool (an address-sorted
// registry of owned nodes + a free list, mirroring MFC's block
// allocator).  Every pointer dereference in the instrumented paths goes
// through checked(), which throws StructuralFault for null/foreign
// pointers — the in-process stand-in for the memory corruption that
// crashed the paper's per-mutant processes.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "stc/bit/assertions.h"
#include "stc/bit/built_in_test.h"
#include "stc/mfc/cobject.h"
#include "stc/mutation/frame.h"

namespace stc::mfc {

/// Internal list node (MFC CObList::CNode).
struct CNode {
    CObject* data = nullptr;
    CNode* pNext = nullptr;
    CNode* pPrev = nullptr;
};

/// Opaque iteration handle (MFC POSITION).
using POSITION = CNode*;

class CObList : public CObject, public bit::BuiltInTest {
public:
    explicit CObList(int nBlockSize = 10);
    ~CObList() override;

    CObList(const CObList&) = delete;
    CObList& operator=(const CObList&) = delete;

    // ---- Size -------------------------------------------------------------
    [[nodiscard]] int GetCount() const noexcept { return m_nCount; }
    [[nodiscard]] bool IsEmpty() const noexcept { return m_nCount == 0; }

    // ---- Head/tail access --------------------------------------------------
    [[nodiscard]] CObject* GetHead() const;
    [[nodiscard]] CObject* GetTail() const;

    // ---- Insertion (instrumented: AddHead) ---------------------------------
    POSITION AddHead(CObject* newElement);
    POSITION AddTail(CObject* newElement);

    /// MFC bulk overloads: splice a copy of another list's elements onto
    /// this one (the lists stay independent; elements are shared).
    void AddHead(CObList* newList);
    void AddTail(CObList* newList);

    // ---- Removal (instrumented: RemoveHead, RemoveAt) ----------------------
    CObject* RemoveHead();
    CObject* RemoveTail();
    void RemoveAt(POSITION position);
    void RemoveAll();

    // ---- Iteration -----------------------------------------------------------
    [[nodiscard]] POSITION GetHeadPosition() const noexcept { return m_pNodeHead; }
    [[nodiscard]] POSITION GetTailPosition() const noexcept { return m_pNodeTail; }
    CObject* GetNext(POSITION& rPosition) const;
    CObject* GetPrev(POSITION& rPosition) const;

    // ---- Positional access ----------------------------------------------------
    [[nodiscard]] CObject* GetAt(POSITION position) const;
    void SetAt(POSITION position, CObject* newElement);
    POSITION InsertBefore(POSITION position, CObject* newElement);
    POSITION InsertAfter(POSITION position, CObject* newElement);

    // ---- Search -----------------------------------------------------------------
    /// Pointer-identity search starting after `startAfter` (MFC semantics).
    [[nodiscard]] POSITION Find(CObject* searchValue,
                                POSITION startAfter = nullptr) const;
    [[nodiscard]] POSITION FindIndex(int nIndex) const;

    // ---- Built-in test capabilities (paper Fig. 4) ------------------------------
    void InvariantTest() const override;
    void Reporter(std::ostream& os) const override;

    /// The class invariant as a predicate — deliberately MFC-faithful and
    /// *weak*: CObList::AssertValid only checked that an empty list has
    /// null head/tail and a non-empty list has plausible head/tail
    /// pointers.  The paper relies on exactly this assertion strength
    /// (the MFC classes "already contain assertions", §4); a stronger
    /// invariant would change the Table 2/3 oracle balance.
    [[nodiscard]] bool ValidState() const noexcept;

    /// Full structural check (count, forward/backward links, pool
    /// membership, acyclicity).  NOT part of the BIT invariant — this is
    /// the ground-truth predicate the unit tests and property tests use.
    [[nodiscard]] bool DeepValidState() const noexcept;

    void AssertValid() const override;
    [[nodiscard]] std::string ToText() const override;

    /// Representation-faithful copy for campaign checkpoint memoization
    /// (stc::mutation::CasePlan::ladder): rebuilds this freshly
    /// constructed, empty list into an isomorphic image of `source` —
    /// node-pool graph, element chain, free-list order and count.  A
    /// behavioural copy (re-AddTail the elements) is NOT enough: a
    /// mutated suffix resumed from the checkpoint may read the
    /// representation itself (m_pNodeFree, head/tail links), and a
    /// free list of a different length would change which fault fires.
    /// Touches raw members only — never a mutation site — so cloning
    /// while a mutant is active cannot perturb its hit flag.  Elements
    /// (CObject*) are shared; foreign node pointers (possible only in
    /// corrupted state, which checkpoints never capture) stay foreign.
    /// Costs one node allocation per owned node and one registry vector.
    void CopyStateFrom(const CObList& source);

protected:
    // Node pool (MFC block allocator surface: a free list of recycled
    // nodes).  Nodes are only ever deleted in the destructor, from the
    // owned registry, so corrupted links can never double-free.
    [[nodiscard]] CNode* NewNode();
    /// Links the node into the free list through a checked dereference
    /// (MFC's FreeNode dereferenced unconditionally — null crashed it).
    void FreeNode(CNode* node);

    /// Pool-validated dereference; throws mutation::StructuralFault for
    /// null or foreign pointers (simulated crash; see file comment).
    CNode* checked(CNode* node) const;
    /// Pool membership: a binary search of owned_.
    [[nodiscard]] bool is_owned(const CNode* node) const noexcept;

    /// Throws StructuralFault when a traversal exceeds the pool size —
    /// the in-process rendering of an infinite loop over a mutated,
    /// cyclic chain (the paper's runs would hang/crash).
    void bump_guard(int& guard) const;

    /// Bind all class attributes into a mutation frame (shared by every
    /// instrumented method of this class and its subclasses).
    void bind_attrs(mutation::MutFrame& frame) const;

    /// Element order used by sortable subclasses; faults on null data.
    [[nodiscard]] static bool Less(const CObject* a, const CObject* b);

    // MFC attribute names kept verbatim: they are the G/E variable sets
    // of the interface-mutation experiment.
    CNode* m_pNodeHead = nullptr;
    CNode* m_pNodeTail = nullptr;
    CNode* m_pNodeFree = nullptr;
    int m_nCount = 0;
    int m_nBlockSize;

    /// Every node this list ever allocated, sorted by address
    /// (std::less order) and never shrunk: the pool the destructor frees.
    std::vector<CNode*> owned_;
};

/// Register CObList's mutation descriptors (AddHead, RemoveHead,
/// RemoveAt — the methods of the paper's Table 3 experiment).
void register_coblist_descriptors(mutation::DescriptorRegistry& registry);

}  // namespace stc::mfc
