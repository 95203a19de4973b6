#include "stc/tfm/graph.h"

#include <algorithm>
#include <deque>
#include <set>

#include "stc/support/contracts.h"
#include "stc/support/error.h"

namespace stc::tfm {

const char* to_string(DiagnosticKind kind) noexcept {
    switch (kind) {
        case DiagnosticKind::NoBirthNode: return "no-birth-node";
        case DiagnosticKind::NoDeathNode: return "no-death-node";
        case DiagnosticKind::UnreachableNode: return "unreachable-node";
        case DiagnosticKind::DeadEndMismatch: return "cannot-reach-death";
        case DiagnosticKind::DuplicateEdge: return "duplicate-edge";
        case DiagnosticKind::SelfLoopOnBirth: return "self-loop-on-birth";
    }
    return "?";
}

NodeIndex Graph::add_node(Node node) {
    if (node.id.empty()) throw SpecError("TFM node with empty id");
    if (find_node(node.id)) throw SpecError("duplicate TFM node id: " + node.id);
    nodes_.push_back(std::move(node));
    adjacency_.emplace_back();
    in_degree_.push_back(0);
    return nodes_.size() - 1;
}

void Graph::add_edge(const std::string& from_id, const std::string& to_id) {
    const auto from = find_node(from_id);
    const auto to = find_node(to_id);
    if (!from) throw SpecError("TFM edge from unknown node: " + from_id);
    if (!to) throw SpecError("TFM edge to unknown node: " + to_id);
    add_edge(*from, *to);
}

void Graph::add_edge(NodeIndex from, NodeIndex to) {
    STC_EXPECTS(from < nodes_.size() && to < nodes_.size());
    edges_.push_back(Edge{from, to});
    adjacency_[from].push_back(to);
    ++in_degree_[to];
}

const Node& Graph::node(NodeIndex i) const {
    STC_EXPECTS(i < nodes_.size());
    return nodes_[i];
}

std::optional<NodeIndex> Graph::find_node(const std::string& id) const {
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].id == id) return i;
    }
    return std::nullopt;
}

const std::vector<NodeIndex>& Graph::successors(NodeIndex i) const {
    STC_EXPECTS(i < adjacency_.size());
    return adjacency_[i];
}

std::size_t Graph::out_degree(NodeIndex i) const { return successors(i).size(); }

std::size_t Graph::in_degree(NodeIndex i) const {
    STC_EXPECTS(i < in_degree_.size());
    return in_degree_[i];
}

bool Graph::has_edge(NodeIndex from, NodeIndex to) const {
    const auto& next = successors(from);
    return std::find(next.begin(), next.end(), to) != next.end();
}

bool Graph::is_valid_transaction(const std::vector<NodeIndex>& path) const {
    if (path.empty()) return false;
    if (path.front() >= nodes_.size() || !nodes_[path.front()].is_birth) {
        return false;
    }
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (path[i] >= nodes_.size() || path[i + 1] >= nodes_.size()) return false;
        if (!has_edge(path[i], path[i + 1])) return false;
    }
    return is_death(path.back());
}

std::vector<std::optional<NodeIndex>> Graph::next_hop_to_death() const {
    // Multi-source BFS from all death nodes over reversed edges; the
    // recorded hop is the *forward* successor that shrinks the distance.
    std::vector<std::vector<NodeIndex>> reverse(nodes_.size());
    for (const Edge& e : edges_) reverse[e.to].push_back(e.from);

    std::vector<std::optional<NodeIndex>> hop(nodes_.size());
    std::vector<bool> seen(nodes_.size(), false);
    std::deque<NodeIndex> work;
    for (NodeIndex d : death_nodes()) {
        seen[d] = true;
        work.push_back(d);
    }
    while (!work.empty()) {
        const NodeIndex n = work.front();
        work.pop_front();
        for (NodeIndex p : reverse[n]) {
            if (seen[p]) continue;
            seen[p] = true;
            hop[p] = n;
            work.push_back(p);
        }
    }
    return hop;
}

std::vector<NodeIndex> Graph::birth_nodes() const {
    std::vector<NodeIndex> out;
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].is_birth) out.push_back(i);
    }
    return out;
}

std::vector<NodeIndex> Graph::death_nodes() const {
    std::vector<NodeIndex> out;
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
        if (is_death(i)) out.push_back(i);
    }
    return out;
}

std::vector<bool> Graph::reachable_from_birth() const {
    std::vector<bool> seen(nodes_.size(), false);
    std::deque<NodeIndex> work;
    for (NodeIndex b : birth_nodes()) {
        seen[b] = true;
        work.push_back(b);
    }
    while (!work.empty()) {
        const NodeIndex n = work.front();
        work.pop_front();
        for (NodeIndex s : adjacency_[n]) {
            if (!seen[s]) {
                seen[s] = true;
                work.push_back(s);
            }
        }
    }
    return seen;
}

std::vector<bool> Graph::can_reach_death() const {
    // Reverse adjacency walk from all death nodes.
    std::vector<std::vector<NodeIndex>> reverse(nodes_.size());
    for (const Edge& e : edges_) reverse[e.to].push_back(e.from);

    std::vector<bool> seen(nodes_.size(), false);
    std::deque<NodeIndex> work;
    for (NodeIndex d : death_nodes()) {
        seen[d] = true;
        work.push_back(d);
    }
    while (!work.empty()) {
        const NodeIndex n = work.front();
        work.pop_front();
        for (NodeIndex p : reverse[n]) {
            if (!seen[p]) {
                seen[p] = true;
                work.push_back(p);
            }
        }
    }
    return seen;
}

std::vector<Diagnostic> Graph::diagnose() const {
    std::vector<Diagnostic> out;
    if (birth_nodes().empty()) {
        out.push_back({DiagnosticKind::NoBirthNode, "",
                       "mark at least one node as a starting node"});
    }
    if (death_nodes().empty() && !nodes_.empty()) {
        out.push_back({DiagnosticKind::NoDeathNode, "",
                       "every node has outgoing edges; objects are never destroyed"});
    }

    const auto forward = reachable_from_birth();
    const auto backward = can_reach_death();
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
        if (!forward[i]) {
            out.push_back({DiagnosticKind::UnreachableNode, nodes_[i].id,
                           "not reachable from any birth node"});
        } else if (!backward[i]) {
            out.push_back({DiagnosticKind::DeadEndMismatch, nodes_[i].id,
                           "no death node reachable; transactions entering here "
                           "cannot complete"});
        }
        if (nodes_[i].is_birth) {
            for (NodeIndex s : adjacency_[i]) {
                if (s == i) {
                    out.push_back({DiagnosticKind::SelfLoopOnBirth, nodes_[i].id,
                                   "birth node loops to itself"});
                }
            }
        }
    }

    std::set<std::pair<NodeIndex, NodeIndex>> seen_edges;
    for (const Edge& e : edges_) {
        if (!seen_edges.insert({e.from, e.to}).second) {
            out.push_back({DiagnosticKind::DuplicateEdge, nodes_[e.from].id,
                           "edge to " + nodes_[e.to].id + " declared more than once"});
        }
    }
    return out;
}

std::vector<Transaction> Graph::enumerate_transactions(
    const EnumerationOptions& options) const {
    std::vector<Transaction> out;
    std::vector<std::size_t> visits(nodes_.size(), 0);
    std::vector<NodeIndex> path;

    // Iterative DFS with explicit successor cursors keeps deep TFMs from
    // overflowing the stack and yields deterministic insertion order.
    struct Frame {
        NodeIndex node;
        std::size_t next_successor;
    };
    std::vector<Frame> stack;

    auto push = [&](NodeIndex n) {
        stack.push_back({n, 0});
        path.push_back(n);
        ++visits[n];
    };
    auto pop = [&] {
        --visits[stack.back().node];
        path.pop_back();
        stack.pop_back();
    };

    for (NodeIndex birth : birth_nodes()) {
        if (out.size() >= options.max_transactions) break;
        push(birth);
        if (is_death(birth)) {
            out.push_back(Transaction{path});
        }
        while (!stack.empty()) {
            if (out.size() >= options.max_transactions) break;
            Frame& top = stack.back();
            const auto& succ = adjacency_[top.node];
            bool advanced = false;
            while (top.next_successor < succ.size()) {
                const NodeIndex next = succ[top.next_successor++];
                if (visits[next] >= options.max_node_visits) continue;
                if (path.size() >= kMaxPathLength) continue;
                push(next);
                if (is_death(next)) out.push_back(Transaction{path});
                advanced = true;
                break;
            }
            if (!advanced) pop();
        }
        // Stack fully unwound for this birth node; visits[] is all zero again.
    }
    return out;
}

std::vector<std::string> Graph::method_sequence(const Transaction& t) const {
    std::vector<std::string> out;
    for (NodeIndex i : t.path) {
        const Node& n = node(i);
        out.insert(out.end(), n.method_ids.begin(), n.method_ids.end());
    }
    return out;
}

std::string Graph::describe(const Transaction& t) const {
    std::string out;
    for (std::size_t i = 0; i < t.path.size(); ++i) {
        if (i != 0) out += " -> ";
        out += node(t.path[i]).id;
    }
    return out;
}

std::string Graph::to_dot(const Transaction* highlight) const {
    std::set<std::pair<NodeIndex, NodeIndex>> hot;
    std::set<NodeIndex> hot_nodes;
    if (highlight != nullptr) {
        for (std::size_t i = 0; i + 1 < highlight->path.size(); ++i) {
            hot.insert({highlight->path[i], highlight->path[i + 1]});
        }
        hot_nodes.insert(highlight->path.begin(), highlight->path.end());
    }

    std::string out = "digraph tfm {\n  rankdir=LR;\n";
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        out += "  " + n.id + " [label=\"" + n.id;
        for (const auto& m : n.method_ids) out += "\\n" + m;
        out += "\"";
        if (n.is_birth) out += ", shape=doublecircle";
        else if (is_death(i)) out += ", shape=doubleoctagon";
        if (hot_nodes.count(i) != 0) out += ", style=bold, color=red";
        out += "];\n";
    }
    for (const Edge& e : edges_) {
        out += "  " + nodes_[e.from].id + " -> " + nodes_[e.to].id;
        if (hot.count({e.from, e.to}) != 0) out += " [color=red, penwidth=2]";
        out += ";\n";
    }
    out += "}\n";
    return out;
}

}  // namespace stc::tfm
