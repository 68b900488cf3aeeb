#include "probes.h"

#include <cstdio>

namespace twigbench {

namespace cst = twig::cst;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kQuery: return "query";
    case SpanName::kCoreExpand: return "core.expand";
    case SpanName::kCoreParse: return "core.parse";
    case SpanName::kCoreDecompose: return "core.decompose";
    case SpanName::kCoreCombine: return "core.combine";
    case SpanName::kCstStep: return "cst.step";
    case SpanName::kCstLongestMatch: return "cst.longest_match";
    case SpanName::kCstChildren: return "cst.children";
    case SpanName::kCstCount: return "cst.count";
    case SpanName::kCstSignature: return "cst.signature";
    case SpanName::kCstNode: return "cst.node";
    case SpanName::kCstMeta: return "cst.meta";
    case SpanName::kStorageRead: return "storage.read";
    case SpanName::kTcpRequest: return "serve.tcp.request";
    case SpanName::kSnapshotSwap: return "serve.snapshot.swap";
    case SpanName::kServiceSubmit: return "serve.service.submit";
    case SpanName::kWireParse: return "serve.wire.parse";
    case SpanName::kWireEncode: return "serve.wire.encode";
    case SpanName::kBatchCall: return "util.thread_pool.batch";
    case SpanName::kCount: break;
  }
  return "?";
}

std::vector<int64_t> SpanLog::SelfNanos() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != kNoSpan) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "request\tname\tstart_ns\tend_ns\tparent\n");
  long long base = 0;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      const long long parent =
          span.parent == SpanLog::kNoSpan ? -1 : base + span.parent;
      std::fprintf(out, "%llu\t%s\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned long long>(span.request),
                   SpanNameString(span.name),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns), parent);
    }
    base += static_cast<long long>(log->spans().size());
  }
  return std::fclose(out) == 0;
}

cst::CstNodeId ProbedCst::Step(cst::CstNodeId node,
                               twig::suffix::Symbol symbol) const {
  const ScopedSpan span = Probe(SpanName::kCstStep);
  return inner_->Step(node, symbol);
}

cst::CstView::Match ProbedCst::LongestMatch(
    std::span<const twig::suffix::Symbol> symbols, size_t start) const {
  const ScopedSpan span = Probe(SpanName::kCstLongestMatch);
  return inner_->LongestMatch(symbols, start);
}

size_t ProbedCst::CopyChildren(
    cst::CstNodeId node,
    std::vector<twig::suffix::ChildIndex::Entry>* out) const {
  const ScopedSpan span = Probe(SpanName::kCstChildren);
  return inner_->CopyChildren(node, out);
}

double ProbedCst::PresenceCount(cst::CstNodeId node) const {
  const ScopedSpan span = Probe(SpanName::kCstCount);
  return inner_->PresenceCount(node);
}

double ProbedCst::OccurrenceCount(cst::CstNodeId node) const {
  const ScopedSpan span = Probe(SpanName::kCstCount);
  return inner_->OccurrenceCount(node);
}

bool ProbedCst::StartsWithTag(cst::CstNodeId node) const {
  const ScopedSpan span = Probe(SpanName::kCstNode);
  return inner_->StartsWithTag(node);
}

const twig::sethash::Signature* ProbedCst::GetSignature(
    cst::CstNodeId node, twig::sethash::Signature* scratch) const {
  const ScopedSpan span = Probe(SpanName::kCstSignature);
  return inner_->GetSignature(node, scratch);
}

uint32_t ProbedCst::Depth(cst::CstNodeId node) const {
  const ScopedSpan span = Probe(SpanName::kCstNode);
  return inner_->Depth(node);
}

twig::suffix::Symbol ProbedCst::GetSymbol(cst::CstNodeId node) const {
  const ScopedSpan span = Probe(SpanName::kCstNode);
  return inner_->GetSymbol(node);
}

cst::CstNodeId ProbedCst::Parent(cst::CstNodeId node) const {
  const ScopedSpan span = Probe(SpanName::kCstNode);
  return inner_->Parent(node);
}

uint64_t ProbedCst::data_node_count() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->data_node_count();
}

uint32_t ProbedCst::prune_threshold() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->prune_threshold();
}

size_t ProbedCst::size_bytes() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->size_bytes();
}

size_t ProbedCst::node_count() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->node_count();
}

size_t ProbedCst::signature_count() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->signature_count();
}

size_t ProbedCst::signature_length() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->signature_length();
}

size_t ProbedCst::max_value_chars() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->max_value_chars();
}

twig::Status ProbedCst::storage_health() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->storage_health();
}

uint64_t ProbedCst::storage_error_count() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->storage_error_count();
}

const twig::tree::LabelTable& ProbedCst::labels() const {
  const ScopedSpan span = Probe(SpanName::kCstMeta);
  return inner_->labels();
}

twig::Status ProbedPageSource::ReadPage(uint32_t page_id, char* out) const {
  const ScopedSpan span(log_.load(std::memory_order_relaxed),
                        SpanName::kStorageRead);
  const int64_t start = NowNanos();
  twig::Status status = inner_->ReadPage(page_id, out);
  read_nanos_.fetch_add(static_cast<uint64_t>(NowNanos() - start),
                        std::memory_order_relaxed);
  reads_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

}  // namespace twigbench
