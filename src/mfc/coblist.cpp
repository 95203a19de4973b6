#include "stc/mfc/coblist.h"

#include <algorithm>
#include <functional>

#include "stc/mutation/descriptor.h"

namespace stc::mfc {

using mutation::int_type;
using mutation::MethodDescriptor;
using mutation::MutFrame;
using mutation::pointer_type;
using mutation::StructuralFault;

namespace {

/// The registry's order: std::less is a total order on pointers.
constexpr std::less<const CNode*> kAddressOrder{};

// ---- Interface-mutation descriptors for the Table 3 methods -----------
// Site ordinals follow the use() calls in the method bodies below, in
// textual order; keep them in sync.

const MethodDescriptor& add_head_desc() {
    static const MethodDescriptor d =
        MethodDescriptor::Builder("CObList", "AddHead")
            .param("newElement", pointer_type("CObject"))
            .local("pNewNode", pointer_type("CNode"))
            .attr("m_pNodeHead", pointer_type("CNode"), true)
            .attr("m_pNodeTail", pointer_type("CNode"), true)
            .attr("m_nCount", int_type(), true)
            .attr("m_pNodeFree", pointer_type("CNode"), false)
            .attr("m_nBlockSize", int_type(), false)
            .site("pNewNode", "store element")          // s0
            .site("pNewNode", "clear pPrev")            // s1
            .site("pNewNode", "link pNext")             // s2
            .site("m_pNodeHead", "old head value")      // s3
            .site("m_pNodeHead", "empty test")          // s4
            .site("m_pNodeHead", "back-link old head")  // s5
            .site("pNewNode", "back-link target")       // s6
            .site("pNewNode", "tail when empty")        // s7
            .site("pNewNode", "new head")               // s8
            .site("m_nCount", "increment")              // s9
            .interface_site("newElement", "stored element")  // s10 (DirVar)
            .build();
    return d;
}

const MethodDescriptor& remove_head_desc() {
    static const MethodDescriptor d =
        MethodDescriptor::Builder("CObList", "RemoveHead")
            .local("pOldNode", pointer_type("CNode"))
            .local("returnValue", pointer_type("CObject"))
            .attr("m_pNodeHead", pointer_type("CNode"), true)
            .attr("m_pNodeTail", pointer_type("CNode"), true)
            .attr("m_nCount", int_type(), true)
            .attr("m_pNodeFree", pointer_type("CNode"), false)
            .attr("m_nBlockSize", int_type(), false)
            .site("m_pNodeHead", "node to remove")  // s0
            .site("pOldNode", "read element")       // s1
            .site("pOldNode", "advance head")       // s2
            .site("m_pNodeHead", "empty test")      // s3
            .site("m_pNodeHead", "clear back-link") // s4
            .site("pOldNode", "recycle")            // s5
            .site("m_nCount", "decrement")          // s6
            .site("returnValue", "return value")    // s7
            .build();
    return d;
}

const MethodDescriptor& remove_at_desc() {
    static const MethodDescriptor d =
        MethodDescriptor::Builder("CObList", "RemoveAt")
            .param("position", pointer_type("CNode"))
            .local("pOldNode", pointer_type("CNode"))
            .attr("m_pNodeHead", pointer_type("CNode"), true)
            .attr("m_pNodeTail", pointer_type("CNode"), true)
            .attr("m_nCount", int_type(), true)
            .attr("m_pNodeFree", pointer_type("CNode"), false)
            .attr("m_nBlockSize", int_type(), false)
            .site("pOldNode", "head test")          // s0
            .site("m_pNodeHead", "head test rhs")   // s1
            .site("pOldNode", "advance head")       // s2
            .site("pOldNode", "unlink prev side")   // s3
            .site("pOldNode", "prev->next target")  // s4
            .site("pOldNode", "tail test")          // s5
            .site("m_pNodeTail", "tail test rhs")   // s6
            .site("pOldNode", "retreat tail")       // s7
            .site("pOldNode", "unlink next side")   // s8
            .site("pOldNode", "next->prev target")  // s9
            .site("pOldNode", "recycle")            // s10
            .site("m_nCount", "decrement")          // s11
            .interface_site("position", "node handle")  // s12 (DirVar)
            .build();
    return d;
}

}  // namespace

// ---- Construction / destruction -------------------------------------------

CObList::CObList(int nBlockSize) : m_nBlockSize(nBlockSize) {
    STC_PRECONDITION(nBlockSize > 0);
}

CObList::~CObList() {
    // Pool-wise teardown: immune to corrupted links, never double-frees.
    for (const CNode* node : owned_) delete node;
}

void CObList::CopyStateFrom(const CObList& source) {
    m_nBlockSize = source.m_nBlockSize;
    m_nCount = source.m_nCount;
    // The twin of source.owned_[i] is owned_[base + i] until the sort
    // below; a source node's index is a binary search of its registry.
    const std::size_t base = owned_.size();
    owned_.reserve(base + source.owned_.size());
    for (std::size_t i = 0; i < source.owned_.size(); ++i) {
        owned_.push_back(new CNode{});
    }
    // Foreign pointers map to themselves: still outside the pool, so
    // checked() faults on the copy exactly where it would on the source.
    const auto twin_of = [&](CNode* node) -> CNode* {
        const auto& nodes = source.owned_;
        const auto it =
            std::lower_bound(nodes.begin(), nodes.end(), node, kAddressOrder);
        if (it == nodes.end() || *it != node) return node;
        return owned_[base + static_cast<std::size_t>(it - nodes.begin())];
    };
    for (std::size_t i = 0; i < source.owned_.size(); ++i) {
        const CNode* node = source.owned_[i];
        CNode* twin = owned_[base + i];
        twin->data = node->data;
        twin->pNext = twin_of(node->pNext);
        twin->pPrev = twin_of(node->pPrev);
    }
    m_pNodeHead = twin_of(source.m_pNodeHead);
    m_pNodeTail = twin_of(source.m_pNodeTail);
    m_pNodeFree = twin_of(source.m_pNodeFree);
    std::sort(owned_.begin(), owned_.end(), kAddressOrder);
}

// ---- Node pool ---------------------------------------------------------------

CNode* CObList::NewNode() {
    CNode* node = nullptr;
    if (m_pNodeFree != nullptr) {
        node = m_pNodeFree;
        m_pNodeFree = m_pNodeFree->pNext;
    } else {
        node = new CNode{};
        owned_.insert(std::upper_bound(owned_.begin(), owned_.end(), node,
                                       kAddressOrder),
                      node);
    }
    node->data = nullptr;
    node->pNext = nullptr;
    node->pPrev = nullptr;
    return node;
}

void CObList::FreeNode(CNode* node) {
    // MFC's FreeNode links the node into the free list through a raw
    // dereference; a null/foreign node here crashed the original.
    checked(node)->pNext = m_pNodeFree;
    node->pPrev = nullptr;
    m_pNodeFree = node;
}

CNode* CObList::checked(CNode* node) const {
    if (node == nullptr) {
        throw StructuralFault("CObList: null CNode dereference");
    }
    if (!is_owned(node)) {
        throw StructuralFault("CObList: dereference of a node outside the pool");
    }
    return node;
}

bool CObList::is_owned(const CNode* node) const noexcept {
    return node != nullptr &&
           std::binary_search(owned_.begin(), owned_.end(), node, kAddressOrder);
}

void CObList::bump_guard(int& guard) const {
    if (++guard > static_cast<int>(owned_.size()) + 8) {
        throw StructuralFault("CObList: runaway traversal (corrupted links)");
    }
}

void CObList::bind_attrs(MutFrame& frame) const {
    frame.bind_ptr("m_pNodeHead", &m_pNodeHead);
    frame.bind_ptr("m_pNodeTail", &m_pNodeTail);
    frame.bind_ptr("m_pNodeFree", &m_pNodeFree);
    frame.bind("m_nCount", &m_nCount);
    frame.bind("m_nBlockSize", &m_nBlockSize);
}

bool CObList::Less(const CObject* a, const CObject* b) {
    if (a == nullptr || b == nullptr) {
        throw StructuralFault("CObList: null element dereference in comparison");
    }
    return a->Compare(*b) < 0;
}

// ---- Head/tail access -----------------------------------------------------------

CObject* CObList::GetHead() const {
    STC_PRECONDITION(!IsEmpty());
    return checked(m_pNodeHead)->data;
}

CObject* CObList::GetTail() const {
    STC_PRECONDITION(!IsEmpty());
    return checked(m_pNodeTail)->data;
}

// ---- Insertion ---------------------------------------------------------------------

POSITION CObList::AddHead(CObject* newElement) {
    STC_PRECONDITION(newElement != nullptr);

    MutFrame frame(add_head_desc());
    bind_attrs(frame);
    CNode* pNewNode = NewNode();
    frame.bind_ptr("pNewNode", &pNewNode);

    checked(frame.use_ptr(0, pNewNode))->data = frame.use_ptr(10, newElement);
    checked(frame.use_ptr(1, pNewNode))->pPrev = nullptr;
    checked(frame.use_ptr(2, pNewNode))->pNext = frame.use_ptr(3, m_pNodeHead);
    if (frame.use_ptr(4, m_pNodeHead) != nullptr) {
        checked(frame.use_ptr(5, m_pNodeHead))->pPrev = frame.use_ptr(6, pNewNode);
    } else {
        m_pNodeTail = frame.use_ptr(7, pNewNode);
    }
    m_pNodeHead = frame.use_ptr(8, pNewNode);
    m_nCount = frame.use(9, m_nCount) + 1;

    STC_POSTCONDITION(m_nCount > 0);
    return m_pNodeHead;
}

POSITION CObList::AddTail(CObject* newElement) {
    STC_PRECONDITION(newElement != nullptr);

    CNode* pNewNode = NewNode();
    pNewNode->data = newElement;
    pNewNode->pNext = nullptr;
    pNewNode->pPrev = m_pNodeTail;
    if (m_pNodeTail != nullptr) {
        checked(m_pNodeTail)->pNext = pNewNode;
    } else {
        m_pNodeHead = pNewNode;
    }
    m_pNodeTail = pNewNode;
    ++m_nCount;

    STC_POSTCONDITION(m_nCount > 0);
    return m_pNodeTail;
}

void CObList::AddHead(CObList* newList) {
    STC_PRECONDITION(newList != nullptr);
    // Insert in reverse so the other list's order is preserved at our head.
    int guard = 0;
    for (POSITION p = newList->GetTailPosition(); p != nullptr;) {
        newList->bump_guard(guard);
        AddHead(newList->GetPrev(p));
    }
}

void CObList::AddTail(CObList* newList) {
    STC_PRECONDITION(newList != nullptr);
    int guard = 0;
    for (POSITION p = newList->GetHeadPosition(); p != nullptr;) {
        newList->bump_guard(guard);
        AddTail(newList->GetNext(p));
    }
}

// ---- Removal ------------------------------------------------------------------------

CObject* CObList::RemoveHead() {
    STC_PRECONDITION(!IsEmpty());

    MutFrame frame(remove_head_desc());
    bind_attrs(frame);
    CNode* pOldNode = nullptr;
    CObject* returnValue = nullptr;
    frame.bind_ptr("pOldNode", &pOldNode);
    frame.bind_ptr("returnValue", &returnValue);

    pOldNode = frame.use_ptr(0, m_pNodeHead);
    returnValue = checked(frame.use_ptr(1, pOldNode))->data;
    m_pNodeHead = checked(frame.use_ptr(2, pOldNode))->pNext;
    if (frame.use_ptr(3, m_pNodeHead) != nullptr) {
        checked(frame.use_ptr(4, m_pNodeHead))->pPrev = nullptr;
    } else {
        m_pNodeTail = nullptr;
    }
    FreeNode(frame.use_ptr(5, pOldNode));
    m_nCount = frame.use(6, m_nCount) - 1;

    STC_POSTCONDITION(m_nCount >= 0);
    return frame.use_ptr(7, returnValue);
}

CObject* CObList::RemoveTail() {
    STC_PRECONDITION(!IsEmpty());

    CNode* pOldNode = m_pNodeTail;
    CObject* returnValue = checked(pOldNode)->data;
    m_pNodeTail = pOldNode->pPrev;
    if (m_pNodeTail != nullptr) {
        checked(m_pNodeTail)->pNext = nullptr;
    } else {
        m_pNodeHead = nullptr;
    }
    FreeNode(pOldNode);
    --m_nCount;

    STC_POSTCONDITION(m_nCount >= 0);
    return returnValue;
}

void CObList::RemoveAt(POSITION position) {
    STC_PRECONDITION(position != nullptr);
    STC_PRECONDITION(is_owned(position));

    MutFrame frame(remove_at_desc());
    bind_attrs(frame);
    CNode* pOldNode = nullptr;
    frame.bind_ptr("pOldNode", &pOldNode);
    pOldNode = frame.use_ptr(12, position);

    if (frame.use_ptr(0, pOldNode) == frame.use_ptr(1, m_pNodeHead)) {
        m_pNodeHead = checked(frame.use_ptr(2, pOldNode))->pNext;
    } else {
        checked(checked(frame.use_ptr(3, pOldNode))->pPrev)->pNext =
            checked(frame.use_ptr(4, pOldNode))->pNext;
    }
    if (frame.use_ptr(5, pOldNode) == frame.use_ptr(6, m_pNodeTail)) {
        m_pNodeTail = checked(frame.use_ptr(7, pOldNode))->pPrev;
    } else {
        checked(checked(frame.use_ptr(8, pOldNode))->pNext)->pPrev =
            checked(frame.use_ptr(9, pOldNode))->pPrev;
    }
    FreeNode(frame.use_ptr(10, pOldNode));
    m_nCount = frame.use(11, m_nCount) - 1;

    STC_POSTCONDITION(m_nCount >= 0);
}

void CObList::RemoveAll() {
    int guard = 0;
    CNode* node = m_pNodeHead;
    while (node != nullptr && is_owned(node) &&
           guard <= static_cast<int>(owned_.size())) {
        CNode* next = node->pNext;
        FreeNode(node);
        node = next;
        ++guard;
    }
    m_pNodeHead = nullptr;
    m_pNodeTail = nullptr;
    m_nCount = 0;

    STC_POSTCONDITION(IsEmpty());
}

// ---- Iteration -----------------------------------------------------------------------

CObject* CObList::GetNext(POSITION& rPosition) const {
    CNode* node = checked(rPosition);
    rPosition = node->pNext;
    return node->data;
}

CObject* CObList::GetPrev(POSITION& rPosition) const {
    CNode* node = checked(rPosition);
    rPosition = node->pPrev;
    return node->data;
}

// ---- Positional access ------------------------------------------------------------------

CObject* CObList::GetAt(POSITION position) const { return checked(position)->data; }

void CObList::SetAt(POSITION position, CObject* newElement) {
    STC_PRECONDITION(newElement != nullptr);
    checked(position)->data = newElement;
}

POSITION CObList::InsertBefore(POSITION position, CObject* newElement) {
    STC_PRECONDITION(newElement != nullptr);
    if (position == nullptr) return AddHead(newElement);

    CNode* pOldNode = checked(position);
    CNode* pNewNode = NewNode();
    pNewNode->data = newElement;
    pNewNode->pPrev = pOldNode->pPrev;
    pNewNode->pNext = pOldNode;
    if (pOldNode->pPrev != nullptr) {
        checked(pOldNode->pPrev)->pNext = pNewNode;
    } else {
        m_pNodeHead = pNewNode;
    }
    pOldNode->pPrev = pNewNode;
    ++m_nCount;

    STC_POSTCONDITION(m_nCount > 0);
    return pNewNode;
}

POSITION CObList::InsertAfter(POSITION position, CObject* newElement) {
    STC_PRECONDITION(newElement != nullptr);
    if (position == nullptr) return AddTail(newElement);

    CNode* pOldNode = checked(position);
    CNode* pNewNode = NewNode();
    pNewNode->data = newElement;
    pNewNode->pPrev = pOldNode;
    pNewNode->pNext = pOldNode->pNext;
    if (pOldNode->pNext != nullptr) {
        checked(pOldNode->pNext)->pPrev = pNewNode;
    } else {
        m_pNodeTail = pNewNode;
    }
    pOldNode->pNext = pNewNode;
    ++m_nCount;

    STC_POSTCONDITION(m_nCount > 0);
    return pNewNode;
}

// ---- Search ----------------------------------------------------------------------------

POSITION CObList::Find(CObject* searchValue, POSITION startAfter) const {
    CNode* node = startAfter == nullptr ? m_pNodeHead : checked(startAfter)->pNext;
    int guard = 0;
    while (node != nullptr) {
        bump_guard(guard);
        if (checked(node)->data == searchValue) return node;
        node = node->pNext;
    }
    return nullptr;
}

POSITION CObList::FindIndex(int nIndex) const {
    if (nIndex < 0 || nIndex >= m_nCount) return nullptr;
    CNode* node = m_pNodeHead;
    int guard = 0;
    for (int i = 0; i < nIndex; ++i) {
        bump_guard(guard);
        node = checked(node)->pNext;
    }
    return checked(node);
}

// ---- Built-in test capabilities --------------------------------------------------------

bool CObList::ValidState() const noexcept {
    // MFC CObList::AssertValid strength: nothing more than head/tail
    // consistency with the count.
    if (m_nCount < 0) return false;
    if (m_nCount == 0) return m_pNodeHead == nullptr && m_pNodeTail == nullptr;
    return is_owned(m_pNodeHead) && is_owned(m_pNodeTail);
}

bool CObList::DeepValidState() const noexcept {
    if (m_nCount < 0) return false;
    if (m_nCount == 0) return m_pNodeHead == nullptr && m_pNodeTail == nullptr;
    if (!is_owned(m_pNodeHead) || !is_owned(m_pNodeTail)) return false;
    if (m_pNodeHead->pPrev != nullptr || m_pNodeTail->pNext != nullptr) return false;

    int walked = 0;
    const CNode* prev = nullptr;
    for (const CNode* node = m_pNodeHead; node != nullptr; node = node->pNext) {
        if (!is_owned(node)) return false;
        if (node->pPrev != prev) return false;
        if (node->data == nullptr) return false;
        prev = node;
        if (++walked > static_cast<int>(owned_.size())) return false;  // cycle
    }
    return walked == m_nCount && prev == m_pNodeTail;
}

void CObList::InvariantTest() const { STC_CLASS_INVARIANT(ValidState()); }

void CObList::Reporter(std::ostream& os) const {
    os << ToText() << " count=" << m_nCount << " [";
    int guard = 0;
    for (const CNode* node = m_pNodeHead; node != nullptr; node = node->pNext) {
        if (!is_owned(node)) {
            os << " <corrupt>";
            break;
        }
        if (++guard > static_cast<int>(owned_.size())) {
            os << " <cycle>";
            break;
        }
        if (guard > 1) os << ", ";
        os << (node->data != nullptr ? node->data->ToText() : "<null>");
    }
    os << "]";
}

void register_coblist_descriptors(mutation::DescriptorRegistry& registry) {
    registry.add(&add_head_desc());
    registry.add(&remove_head_desc());
    registry.add(&remove_at_desc());
}

void CObList::AssertValid() const {
    if (!ValidState()) {
        throw StructuralFault("CObList::AssertValid: inconsistent list structure");
    }
}

std::string CObList::ToText() const { return "CObList"; }

}  // namespace stc::mfc
