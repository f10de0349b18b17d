// In-memory span recorder of the traced benchmark mode.
//
// A span brackets one call from the benchmark into a public function of a
// library layer: {layer, name, start, end, parent, rows in, rows out,
// bytes}. Spans are kept in memory and written out once, when the run
// ends. A layer's self time is its span's duration minus the part of that
// interval its child spans cover; SelfSeconds() computes it.
//
// The tracer is single-threaded: every span is opened and closed on the
// thread that runs the traced mode, so spans nest strictly. The untraced
// mode records no spans at all.

#ifndef PIPEBENCH_TRACE_H_
#define PIPEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pipebench {

struct Span {
  std::string layer;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the tracer's buffer; -1 at the root.
  int64_t parent = -1;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t bytes = 0;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Opens a span and returns its index.
  int64_t Open(std::string layer, std::string name, int64_t parent) {
    Span span;
    span.layer = std::move(layer);
    span.name = std::move(name);
    span.parent = parent;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void Close(int64_t id, uint64_t rows_in, uint64_t rows_out,
             uint64_t bytes) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = NowNs();
    span.rows_in = rows_in;
    span.rows_out = rows_out;
    span.bytes = bytes;
  }

  /// Self times, in seconds, of every span named `layer`.`name`.
  std::vector<double> SelfSeconds(const std::string& layer,
                                  const std::string& name) const {
    // Children of one span never overlap each other (spans nest strictly),
    // so the covered part of the parent is the sum of their durations.
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.layer == layer && s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns -
                                          child_ns[i]) *
                      1e-9);
      }
    }
    return out;
  }

  /// Writes `header` (one JSON line) and then one JSON object per span.
  /// Returns false on an I/O failure.
  bool WriteJsonLines(const std::string& path,
                      const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "%s\n", header.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"layer\": \"%s\", \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %lld, "
                   "\"rows_in\": %llu, \"rows_out\": %llu, \"bytes\": %llu}\n",
                   i, s.layer.c_str(), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.rows_in),
                   static_cast<unsigned long long>(s.rows_out),
                   static_cast<unsigned long long>(s.bytes));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span; nests under `parent`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string layer, std::string name,
             int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer.Open(std::move(layer), std::move(name), parent)) {}
  ~ScopedSpan() { tracer_.Close(id_, rows_in_, rows_out_, bytes_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void Rows(uint64_t in, uint64_t out) {
    rows_in_ = in;
    rows_out_ = out;
  }
  void Bytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  Tracer& tracer_;
  const int64_t id_;
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace pipebench

#endif  // PIPEBENCH_TRACE_H_
