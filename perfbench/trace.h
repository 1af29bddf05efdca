#ifndef GTADOC_PERFBENCH_TRACE_H_
#define GTADOC_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded interval around a call into a layer. Times are host
/// microseconds since the tracer was created (steady clock).
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int64_t parent = -1;   ///< index of the enclosing span; -1 for a root
  int64_t request = -1;  ///< request id shared by one request's spans; -1 none
};

/// \brief In-memory span recorder for the traced run.
///
/// Spans are appended to a vector and written out once, when the run ends
/// (WriteJson); nothing is formatted or flushed while the benchmark measures.
/// Parents are explicit indices rather than a stack, because a burst's
/// Submit and Await spans of different requests interleave.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its index (the parent handle for children).
  int64_t Begin(const char* name, int64_t request = -1, int64_t parent = -1);
  /// Closes span `id`.
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in milliseconds of every closed span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Sum of the durations of spans called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;

  /// Writes every span as one JSON object per line, with its self time.
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope; a null tracer records nothing,
/// so untraced code paths pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request = -1,
             int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once, and a
/// child running past its parent's end is clipped).
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // GTADOC_PERFBENCH_TRACE_H_
