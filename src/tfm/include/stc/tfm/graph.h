// Transaction Flow Model (TFM).
//
// The paper (§3.2) adopts Beizer's transaction-flow model, adapted by
// Siegel for class-level unit testing: a directed graph whose nodes are
// public features (groups of methods) and whose paths from an object's
// birth (a constructor node) to its death (a node with no outgoing
// edges, typically the destructor) are the *transactions* — the
// allowable method sequences from creation to destruction.  The
// transaction-coverage criterion (§3.4.1) requires exercising each
// individual transaction at least once.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace stc::tfm {

/// Index of a node within a Graph.
using NodeIndex = std::size_t;

/// A TFM node: a named group of one or more public methods of the
/// component.  A node is a *birth* node when transactions may start there
/// (it contains a constructor).
struct Node {
    std::string id;                       ///< t-spec node identifier, e.g. "n1".
    bool is_birth = false;                ///< Starting node? (Fig. 3)
    std::vector<std::string> method_ids;  ///< t-spec method ids grouped here.
};

/// A directed link: task `from` may be immediately followed by task `to`.
struct Edge {
    NodeIndex from;
    NodeIndex to;

    friend bool operator==(const Edge&, const Edge&) = default;
};

/// One transaction: a path through the TFM from a birth node to a death
/// node, i.e. one allowable life of an object.
struct Transaction {
    std::vector<NodeIndex> path;

    friend bool operator==(const Transaction&, const Transaction&) = default;
};

/// Longest transaction, in nodes, that the enumerator (and the fuzzer's
/// path mutations) will build.
inline constexpr std::size_t kMaxPathLength = 256;

/// Bounds for transaction enumeration.  Cyclic TFMs have infinitely many
/// paths; the enumerator unrolls cycles up to `max_node_visits` visits of
/// the same node per path (1 = simple paths only, 2 = one loop
/// iteration, ...), and stops after `max_transactions` paths.
struct EnumerationOptions {
    std::size_t max_node_visits = 2;
    std::size_t max_transactions = 100000;
};

/// Structural problems detected by Graph::diagnose().
enum class DiagnosticKind {
    NoBirthNode,        ///< no node is marked as a starting node
    NoDeathNode,        ///< every node has outgoing edges: objects never die
    UnreachableNode,    ///< node not reachable from any birth node
    DeadEndMismatch,    ///< node cannot reach any death node (transactions trap)
    DuplicateEdge,      ///< the same link declared twice
    SelfLoopOnBirth,    ///< birth node loops to itself before first task
};

[[nodiscard]] const char* to_string(DiagnosticKind kind) noexcept;

struct Diagnostic {
    DiagnosticKind kind;
    std::string node_id;  ///< offending node ("" for graph-wide issues)
    std::string detail;
};

/// The TFM directed graph.
class Graph {
public:
    /// Add a node; returns its index. Node ids must be unique.
    NodeIndex add_node(Node node);

    /// Add a directed edge between existing nodes (by id).
    void add_edge(const std::string& from_id, const std::string& to_id);
    void add_edge(NodeIndex from, NodeIndex to);

    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

    [[nodiscard]] const Node& node(NodeIndex i) const;
    [[nodiscard]] std::optional<NodeIndex> find_node(const std::string& id) const;

    [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }
    [[nodiscard]] const std::vector<NodeIndex>& successors(NodeIndex i) const;
    [[nodiscard]] std::size_t out_degree(NodeIndex i) const;
    [[nodiscard]] std::size_t in_degree(NodeIndex i) const;

    /// Whether the directed link from -> to exists.
    [[nodiscard]] bool has_edge(NodeIndex from, NodeIndex to) const;

    /// True when `path` is a structurally valid transaction of this
    /// graph: starts at a birth node, ends at a death node, and every
    /// consecutive pair is a declared link.  The fuzz mutators and the
    /// delta-debugging shrinker accept only candidates that pass this.
    [[nodiscard]] bool is_valid_transaction(
        const std::vector<NodeIndex>& path) const;

    /// For every node: the successor on a shortest path to some death
    /// node (std::nullopt for death nodes themselves and for nodes that
    /// cannot reach death).  Deterministic: BFS in node/edge insertion
    /// order.  Used to steer bounded random walks to termination.
    [[nodiscard]] std::vector<std::optional<NodeIndex>> next_hop_to_death() const;

    /// Birth nodes: marked is_birth. Death nodes: out-degree zero.
    [[nodiscard]] std::vector<NodeIndex> birth_nodes() const;
    [[nodiscard]] std::vector<NodeIndex> death_nodes() const;
    [[nodiscard]] bool is_death(NodeIndex i) const { return out_degree(i) == 0; }

    /// Nodes reachable from any birth node (forward closure).
    [[nodiscard]] std::vector<bool> reachable_from_birth() const;
    /// Nodes from which some death node is reachable (backward closure).
    [[nodiscard]] std::vector<bool> can_reach_death() const;

    /// Structural validation; returns all problems found (empty = sound).
    [[nodiscard]] std::vector<Diagnostic> diagnose() const;

    /// Enumerate transactions (birth -> death paths) under the bounds.
    /// Deterministic order: DFS over nodes/edges in insertion order.
    [[nodiscard]] std::vector<Transaction> enumerate_transactions(
        const EnumerationOptions& options = {}) const;

    /// Flatten a transaction into the method-id sequence it exercises.
    [[nodiscard]] std::vector<std::string> method_sequence(const Transaction& t) const;

    /// Human-readable path, e.g. "n1 -> n4 -> n7".
    [[nodiscard]] std::string describe(const Transaction& t) const;

    /// Graphviz DOT rendering; `highlight` optionally marks one
    /// transaction's path (the paper's Fig. 2 highlights the use-case
    /// scenario path).
    [[nodiscard]] std::string to_dot(const Transaction* highlight = nullptr) const;

private:
    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
    std::vector<std::vector<NodeIndex>> adjacency_;
    std::vector<std::size_t> in_degree_;
};

}  // namespace stc::tfm
