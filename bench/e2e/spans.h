// Benchmark-owned span recorder.
//
// Spans are recorded from the benchmark's side of each public engine call
// (never through obs::TraceSpan, which would switch on the engine's own
// internal spans and change what is measured). Each client thread owns one
// recorder, so recording takes no lock; the spans stay in memory and are
// written as a Chrome trace-event file when the run ends.

#ifndef ICP_BENCH_E2E_SPANS_H_
#define ICP_BENCH_E2E_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace icp::e2e {

struct Span {
  const char* name = "";  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the same recorder, -1 for a root.
  int parent = -1;
  /// Spans of one statement execution share this identifier.
  std::uint64_t query = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(int tid, std::size_t capacity) : tid_(tid), capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Opens a root span and returns its index, or -1 once the recorder is
  /// full: the root and its children are then not recorded, and the root
  /// counts in dropped().
  int Root(const char* name, std::int64_t start_ns, std::uint64_t query) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, start_ns, start_ns, -1, query});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Child(int parent, const char* name, std::int64_t start_ns,
             std::int64_t end_ns) {
    if (parent < 0) return;
    const std::uint64_t query = spans_[static_cast<std::size_t>(parent)].query;
    spans_.push_back(Span{name, start_ns, end_ns, parent, query});
  }
  void Close(int index, std::int64_t end_ns) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Roots refused because the recorder was full.
  std::uint64_t dropped() const { return dropped_; }

 private:
  int tid_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Self time of one span name: its durations minus the parts of them that
/// child spans cover, summed over every recorded span of that name.
struct SelfTime {
  std::uint64_t spans = 0;
  double total_ns = 0;
  double self_ns = 0;
};

inline std::map<std::string, SelfTime> ComputeSelfTimes(
    const std::vector<SpanRecorder>& recorders) {
  std::map<std::string, SelfTime> out;
  for (const SpanRecorder& r : recorders) {
    const std::vector<Span>& spans = r.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur = static_cast<double>(spans[i].end_ns -
                                             spans[i].start_ns);
      SelfTime& t = out[spans[i].name];
      ++t.spans;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
    }
  }
  return out;
}

/// Writes every recorder's spans as complete ("X") events, timestamps in
/// microseconds from `epoch_ns`. Returns false if the file cannot be
/// written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<SpanRecorder>& recorders,
                             std::int64_t epoch_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  for (const SpanRecorder& r : recorders) {
    for (const Span& s : r.spans()) {
      const char* parent =
          s.parent >= 0 ? r.spans()[static_cast<std::size_t>(s.parent)].name
                        : "";
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"query\": %llu, \"parent\": \"%s\"}}",
                   first ? "" : ",\n", s.name, r.tid(),
                   static_cast<double>(s.start_ns - epoch_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.query), parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace icp::e2e

#endif  // ICP_BENCH_E2E_SPANS_H_
