// Measurement probes the benchmark puts around the library's public
// interfaces, so each layer is timed from outside without changing it:
//
//   SpanLog          — an in-memory span recorder (name, start, end,
//                      parent, request id), one per recording thread.
//   ProbedCst        — a cst::CstView decorator that counts every call
//                      into the summary and, when a SpanLog is
//                      attached, records one span per call.
//   ProbedPageSource — a storage::PageSource decorator that counts and
//                      times every page read the buffer pool issues.
//
// Decorators forward every call unchanged, so estimates through them
// are bit-identical to estimates on the wrapped object.

#ifndef TWIGBENCH_PROBES_H_
#define TWIGBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cst/view.h"
#include "storage/page_source.h"

namespace twigbench {

/// Span names, one per layer boundary the benchmark times.
enum class SpanName : uint8_t {
  kQuery,            // one estimate through the staged pipeline
  kCoreExpand,       // core::ExpandQuery
  kCoreParse,        // core::ParseQuery
  kCoreDecompose,    // core::MshDecompose
  kCoreCombine,      // core::Combiner construction + MoCombine
  kCstStep,          // CstView::Step
  kCstLongestMatch,  // CstView::LongestMatch
  kCstChildren,      // CstView::CopyChildren
  kCstCount,         // CstView::PresenceCount / OccurrenceCount
  kCstSignature,     // CstView::GetSignature
  kCstNode,          // CstView::Depth / GetSymbol / Parent / StartsWithTag
  kCstMeta,          // global scalars and the label table
  kStorageRead,      // storage::PageSource::ReadPage
  kTcpRequest,       // client send to reply line over loopback
  kSnapshotSwap,     // in-band swap round trip
  kServiceSubmit,    // serve::EstimateService::SubmitAndWait
  kWireParse,        // serve::ParseRequest
  kWireEncode,       // serve::EstimateWireResponse
  kBatchCall,        // core::TwigEstimator::EstimateBatch
  kCount,
};

const char* SpanNameString(SpanName name);

/// True for the CstView call spans.
inline bool IsCstSpan(SpanName name) {
  return name >= SpanName::kCstStep && name <= SpanName::kCstMeta;
}

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  uint32_t parent = 0;  // index in the same log; kNoSpan for roots
  SpanName name = SpanName::kQuery;
};

/// Records spans of one thread into a preallocated buffer. The parent
/// of a span is the innermost span still open when it begins. Once the
/// buffer is full, Begin records nothing and full() turns true; a
/// phase stops at its next request boundary.
class SpanLog {
 public:
  static constexpr uint32_t kNoSpan = 0xffffffffu;

  explicit SpanLog(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Request id stamped on the spans that begin from now on.
  void set_request(uint64_t request) { request_ = request; }

  uint32_t Begin(SpanName name) {
    if (spans_.size() >= capacity_) {
      full_ = true;
      return kNoSpan;
    }
    const uint32_t index = static_cast<uint32_t>(spans_.size());
    Span span;
    span.name = name;
    span.request = request_;
    span.parent = open_.empty() ? kNoSpan : open_.back();
    span.start_ns = NowNanos();
    spans_.push_back(span);
    open_.push_back(index);
    return index;
  }

  void End(uint32_t index) {
    if (index == kNoSpan) return;
    spans_[index].end_ns = NowNanos();
    open_.pop_back();
  }

  /// Records a finished span with no parent: for requests that overlap
  /// without nesting, such as several connections served by one thread.
  void Record(SpanName name, int64_t start_ns, int64_t end_ns,
              uint64_t request) {
    if (spans_.size() >= capacity_) {
      full_ = true;
      return;
    }
    Span span;
    span.name = name;
    span.request = request;
    span.parent = kNoSpan;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(span);
  }

  bool full() const { return full_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the durations of its
  /// direct children.
  std::vector<int64_t> SelfNanos() const;

 private:
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint64_t request_ = 0;
  bool full_ = false;
};

/// Scoped span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name)
      : log_(log), index_(log ? log->Begin(name) : SpanLog::kNoSpan) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t index_;
};

/// Writes the spans of `logs` as tab-separated lines
/// (request, name, start_ns, end_ns, parent line or -1), with one
/// header line. Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// CstView decorator: counts every call and, with a log attached,
/// records a span per call. Single-threaded: one ProbedCst per thread.
class ProbedCst final : public twig::cst::CstView {
 public:
  explicit ProbedCst(const twig::cst::CstView* inner, SpanLog* log = nullptr)
      : inner_(inner), log_(log) {}

  uint64_t calls() const { return calls_; }

  twig::cst::CstNodeId Step(twig::cst::CstNodeId node,
                            twig::suffix::Symbol symbol) const override;
  Match LongestMatch(std::span<const twig::suffix::Symbol> symbols,
                     size_t start) const override;
  size_t CopyChildren(
      twig::cst::CstNodeId node,
      std::vector<twig::suffix::ChildIndex::Entry>* out) const override;
  double PresenceCount(twig::cst::CstNodeId node) const override;
  double OccurrenceCount(twig::cst::CstNodeId node) const override;
  bool StartsWithTag(twig::cst::CstNodeId node) const override;
  const twig::sethash::Signature* GetSignature(
      twig::cst::CstNodeId node,
      twig::sethash::Signature* scratch) const override;
  uint32_t Depth(twig::cst::CstNodeId node) const override;
  twig::suffix::Symbol GetSymbol(twig::cst::CstNodeId node) const override;
  twig::cst::CstNodeId Parent(twig::cst::CstNodeId node) const override;
  uint64_t data_node_count() const override;
  uint32_t prune_threshold() const override;
  size_t size_bytes() const override;
  size_t node_count() const override;
  size_t signature_count() const override;
  size_t signature_length() const override;
  size_t max_value_chars() const override;
  twig::Status storage_health() const override;
  uint64_t storage_error_count() const override;
  const twig::tree::LabelTable& labels() const override;

 private:
  /// Counts the call and opens its span.
  ScopedSpan Probe(SpanName name) const {
    ++calls_;
    return ScopedSpan(log_, name);
  }

  const twig::cst::CstView* inner_;
  SpanLog* log_;
  mutable uint64_t calls_ = 0;
};

/// PageSource decorator: counts and times every page read, and with a
/// log attached records a span per read.
class ProbedPageSource final : public twig::storage::PageSource {
 public:
  explicit ProbedPageSource(
      std::shared_ptr<const twig::storage::PageSource> inner)
      : PageSource(inner->name(), inner->page_size(), inner->page_count()),
        inner_(std::move(inner)) {}

  twig::Status ReadPage(uint32_t page_id, char* out) const override;

  /// The log the reading thread records into; null = none.
  void set_log(SpanLog* log) { log_.store(log, std::memory_order_relaxed); }
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t read_nanos() const {
    return read_nanos_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const twig::storage::PageSource> inner_;
  std::atomic<SpanLog*> log_{nullptr};
  mutable std::atomic<uint64_t> reads_{0};
  mutable std::atomic<uint64_t> read_nanos_{0};
};

}  // namespace twigbench

#endif  // TWIGBENCH_PROBES_H_
