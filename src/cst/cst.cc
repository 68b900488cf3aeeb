#include "cst/cst.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace twig::cst {

using suffix::CharSymbol;
using suffix::IsTagSymbol;
using suffix::kNoPstNode;
using suffix::PathSuffixTree;
using suffix::PstNodeId;
using suffix::Symbol;
using suffix::TagSymbol;
using tree::NodeId;
using tree::Tree;

Cst::Match Cst::LongestMatch(std::span<const Symbol> symbols,
                             size_t start) const {
  Match match;
  CstNodeId node = root();
  for (size_t i = start; i < symbols.size(); ++i) {
    CstNodeId next = Step(node, symbols[i]);
    if (next == kNoCstNode) break;
    node = next;
    match.node = node;
    match.length = i - start + 1;
  }
  return match;
}

uint32_t Cst::ThresholdForBudget(const PathSuffixTree& pst,
                                 const CstOptions& options) {
  const size_t sig_bytes =
      options.signature_length * options.bytes_per_signature_component;
  // Group retained cost by pt value, then admit groups from most to
  // least frequent while the budget holds. Whole groups keep the
  // threshold semantics (pt >= t) and hence pruning monotonicity.
  std::map<uint32_t, size_t, std::greater<>> cost_by_pt;
  for (PstNodeId n = 1; n < pst.node_count(); ++n) {
    const size_t cost = options.bytes_per_node +
                        (pst.StartsWithTag(n) ? sig_bytes : 0);
    cost_by_pt[pst.PathCount(n)] += cost;
  }
  size_t used = 0;
  uint32_t threshold = 0xffffffffu;  // retain nothing
  for (const auto& [pt, cost] : cost_by_pt) {
    if (used + cost > options.space_budget_bytes) break;
    used += cost;
    threshold = pt;
  }
  return threshold;
}

Cst Cst::Build(const Tree& data, const PathSuffixTree& pst,
               const CstOptions& options) {
  Cst cst;
  cst.signature_length_ = options.signature_length;
  cst.max_value_chars_ = options.max_value_chars;
  cst.data_node_count_ = data.size();
  cst.prune_threshold_ = options.space_budget_bytes > 0
                             ? ThresholdForBudget(pst, options)
                             : std::max<uint32_t>(options.prune_threshold, 1);

  // Copy the label table so the CST is self-contained.
  for (tree::LabelId id = 0; id < data.labels().size(); ++id) {
    cst.labels_.Intern(data.labels().Name(id));
  }

  // -- Retain pt >= threshold, remapping to dense CST IDs. PST IDs are
  // topologically ordered (parents created first), and pt monotonicity
  // guarantees a retained node's parent is retained.
  const size_t sig_bytes =
      options.signature_length * options.bytes_per_signature_component;
  std::vector<CstNodeId> remap(pst.node_count(), kNoCstNode);
  cst.nodes_.push_back(Node{});  // CST root
  remap[pst.root()] = 0;
  for (PstNodeId n = 1; n < pst.node_count(); ++n) {
    if (pst.PathCount(n) < cst.prune_threshold_) continue;
    assert(remap[pst.Parent(n)] != kNoCstNode);
    Node node;
    node.symbol = pst.GetSymbol(n);
    node.parent = remap[pst.Parent(n)];
    node.depth = pst.Depth(n);
    node.starts_with_tag = pst.StartsWithTag(n);
    if (node.starts_with_tag) {
      node.signature_index = static_cast<uint32_t>(cst.signatures_.size());
      cst.signatures_.emplace_back(options.signature_length,
                                   sethash::kEmptyComponent);
    }
    const CstNodeId id = static_cast<CstNodeId>(cst.nodes_.size());
    remap[n] = id;
    cst.size_bytes_ +=
        options.bytes_per_node + (node.starts_with_tag ? sig_bytes : 0);
    cst.nodes_.push_back(std::move(node));
  }
  cst.child_index_ = suffix::ChildIndex::Build(
      cst.nodes_.size(), [&](size_t n) { return cst.nodes_[n].parent; },
      [&](size_t n) { return cst.nodes_[n].symbol; });

  sethash::SetHashFamily family(options.signature_length,
                                options.signature_seed);
  if (!data.empty() && cst.nodes_.size() > 1) {
    cst.AccumulateCounts(data, family);
  }
  return cst;
}

void Cst::AccumulateCounts(const Tree& data,
                           const sethash::SetHashFamily& family) {
  // Dedup marker: last data root that contributed to a node's C_p.
  std::vector<NodeId> last_root(nodes_.size(), tree::kNullNode);
  std::vector<uint32_t> element_hashes;  // reused per root walk

  // Visits a CST node during the walk rooted at data node `walk_root`.
  auto visit = [&](CstNodeId c, NodeId walk_root) {
    Node& node = nodes_[c];
    node.co += 1;
    if (last_root[c] != walk_root) {
      last_root[c] = walk_root;
      node.cp += 1;
      if (node.signature_index != 0xffffffffu) {
        sethash::MergeElement(signatures_[node.signature_index],
                              element_hashes);
      }
    }
  };

  // Extends a walk over the (capped) prefix of a value string.
  auto walk_value_prefix = [&](CstNodeId c, std::string_view value,
                               NodeId walk_root) {
    const size_t take = std::min(value.size(), max_value_chars_);
    for (size_t i = 0; i < take; ++i) {
      c = Step(c, CharSymbol(value[i]));
      if (c == kNoCstNode) return;
      visit(c, walk_root);
    }
  };

  // Recursive walk matching the CST against the subtree below `m`,
  // all within the walk rooted at data node `walk_root`.
  auto walk = [&](auto&& self, NodeId m, CstNodeId c, NodeId walk_root) -> void {
    visit(c, walk_root);
    for (NodeId ch : data.Children(m)) {
      if (data.IsValue(ch)) {
        walk_value_prefix(c, data.Value(ch), walk_root);
      } else {
        CstNodeId next = Step(c, TagSymbol(data.Label(ch)));
        if (next != kNoCstNode) self(self, ch, next, walk_root);
      }
    }
  };

  for (NodeId n = 0; n < data.size(); ++n) {
    if (data.IsValue(n)) {
      // Character-only subpaths: every (value node, offset) is a root.
      // Each (start, depth) visit is a distinct instance, so C_p and
      // C_o increment unconditionally (no markers needed).
      const std::string_view value = data.Value(n);
      const size_t take = std::min(value.size(), max_value_chars_);
      for (size_t start = 0; start < take; ++start) {
        CstNodeId c = root();
        for (size_t i = start; i < take; ++i) {
          c = Step(c, CharSymbol(value[i]));
          if (c == kNoCstNode) break;
          Node& node = nodes_[c];
          node.cp += 1;
          node.co += 1;
        }
      }
      continue;
    }
    // Tag-rooted subpaths: one walk rooted at element node n.
    CstNodeId c0 = Step(root(), TagSymbol(data.Label(n)));
    if (c0 == kNoCstNode) continue;
    element_hashes = family.HashAll(n);
    walk(walk, n, c0, n);
  }
}

Result<Cst> Cst::Materialize(const CstView& view) {
  const uint64_t errors_before = view.storage_error_count();
  Cst out;
  const size_t node_count = view.node_count();
  out.nodes_.resize(node_count);
  out.signatures_.reserve(view.signature_count());
  std::vector<uint32_t> offsets(node_count + 1, 0);
  std::vector<suffix::ChildIndex::Entry> entries;
  entries.reserve(node_count > 0 ? node_count - 1 : 0);
  std::vector<suffix::ChildIndex::Entry> children;
  sethash::Signature scratch;
  for (CstNodeId node = 0; node < node_count; ++node) {
    Node& n = out.nodes_[node];
    n.symbol = view.GetSymbol(node);
    n.parent = view.Parent(node);
    n.depth = view.Depth(node);
    n.starts_with_tag = view.StartsWithTag(node);
    n.cp = view.PresenceCount(node);
    n.co = view.OccurrenceCount(node);
    const sethash::Signature* signature = view.GetSignature(node, &scratch);
    if (signature != nullptr) {
      n.signature_index = static_cast<uint32_t>(out.signatures_.size());
      out.signatures_.push_back(*signature);
    }
    offsets[node] = static_cast<uint32_t>(entries.size());
    view.CopyChildren(node, &children);
    entries.insert(entries.end(), children.begin(), children.end());
  }
  offsets[node_count] = static_cast<uint32_t>(entries.size());
  // A degraded source yields misses, not garbage — but a Cst built
  // from misses would silently answer wrong. Refuse it.
  if (view.storage_error_count() != errors_before) {
    const Status health = view.storage_health();
    return health.ok() ? Status::Corruption("summary storage degraded "
                                            "during materialization")
                       : health;
  }
  // The estimator trusts these invariants without checking them: tag
  // symbols index the label table, and parents precede their children.
  const tree::LabelTable& labels = view.labels();
  for (CstNodeId node = 0; node < node_count; ++node) {
    const Node& n = out.nodes_[node];
    if (n.symbol > suffix::kMaxSymbol) {
      return Status::Corruption("node symbol out of range");
    }
    if (suffix::IsTagSymbol(n.symbol) &&
        suffix::SymbolLabel(n.symbol) >= labels.size()) {
      return Status::Corruption("node tag symbol has no label");
    }
    if (node > 0 && n.parent >= node) {
      return Status::Corruption("node parent out of order");
    }
  }
  // One edge per non-root node; with the per-edge check below, every
  // node but the root is reachable from exactly its own parent.
  if (entries.size() + 1 != node_count) {
    return Status::Corruption("child index entry count mismatch");
  }
  if (!suffix::ChildIndex::FromParts(node_count, std::move(offsets),
                                     std::move(entries),
                                     &out.child_index_)) {
    return Status::Corruption("view's child index is not well-formed");
  }
  for (CstNodeId node = 0; node < node_count; ++node) {
    for (const suffix::ChildIndex::Entry& e : out.child_index_.Children(node)) {
      if (out.nodes_[e.child].parent != node ||
          out.nodes_[e.child].symbol != e.symbol) {
        return Status::Corruption("child index disagrees with node array");
      }
    }
  }
  out.labels_ = labels;
  out.data_node_count_ = view.data_node_count();
  out.prune_threshold_ = view.prune_threshold();
  out.size_bytes_ = view.size_bytes();
  out.signature_length_ = view.signature_length();
  out.max_value_chars_ = view.max_value_chars();
  return out;
}

}  // namespace twig::cst
