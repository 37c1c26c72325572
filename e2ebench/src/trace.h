#ifndef TGM_E2EBENCH_TRACE_H_
#define TGM_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tgm::e2e {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One call into a layer of the program, recorded from outside it: the
/// call's name, its interval, the span that was open when it started, the
/// behaviour or query it served, and how much input it handled.
struct Span {
  const char* name = "";
  std::int32_t parent = -1;
  /// Behaviour / query / day index the call served; -1 for none.
  std::int32_t ref = -1;
  /// Input size of the call (events ingested, intervals returned, ...).
  std::int64_t work = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Benchmark thread that made the call: 0 for the main thread, 1.. for
  /// the workers of a parallel phase.
  std::int32_t thread = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span recorder for the traced run. Spans nest by call order on
/// one thread; a parallel phase gives each worker thread its own Tracer and
/// adopts the workers' spans when it joins them. A disabled tracer records
/// nothing and reads no clock, so the untraced run pays only an inlined
/// branch per call.
class Tracer {
 public:
  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_work(std::int64_t work) {
      if (tracer_ != nullptr) tracer_->spans_[Slot()].work = work;
    }

   private:
    std::size_t Slot() const { return static_cast<std::size_t>(index_); }
    Tracer* tracer_;
    std::int32_t index_;
  };

  bool enabled() const { return enabled_; }
  /// Turns recording on or off; only between spans.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  [[nodiscard]] Scope Open(const char* name, std::int32_t ref = -1) {
    if (!enabled_) return Scope(nullptr, -1);
    Span span;
    span.name = name;
    span.parent = open_;
    span.ref = ref;
    span.start_ns = NowNs();
    open_ = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
    return Scope(this, open_);
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Pre-sizes the span store so a long traced loop never reallocates.
  void Reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Appends every span of `worker` (a worker thread's tracer, no span
  /// open) as a descendant of the span open here, tagged with `thread`.
  void Adopt(const Tracer& worker, std::int32_t thread);

  /// Self time of every span: its duration minus the time its direct
  /// children cover. Children of one thread never overlap; a span whose
  /// children ran on several workers at once (a parallel phase's root) has
  /// no meaningful self time.
  std::vector<std::int64_t> SelfTimesNs() const;

  /// Index of the outermost ancestor of every span (itself for a root).
  std::vector<std::int32_t> Roots() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microseconds from the first span), which Perfetto and
  /// chrome://tracing open. Returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  void Close(std::int32_t index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = NowNs();
    open_ = span.parent;
  }

  bool enabled_ = false;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace tgm::e2e

#endif  // TGM_E2EBENCH_TRACE_H_
