// In-memory span recorder for the benchmark's traced run.
//
// The benchmark times calls into each module's public functions from the
// outside: every call is wrapped in a span carrying a name, the module
// ("layer") it belongs to, start and end on the host steady clock, the span
// that was open when it started (its parent) and a run id. Spans stay in
// memory and are written out once, as Chrome-trace JSON, when the run ends.
//
// A layer's self time is the sum over its spans of the span's duration minus
// the part of that interval its direct children cover.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // Index into the recorder's span list; -1 for a root span.
  int run_id = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  // Spans opened after this call carry `run_id`.
  void set_run_id(int run_id) { run_id_ = run_id; }

  // Opens a span under the innermost open one; returns its index.
  int Open(std::string name, std::string layer);
  // Closes the innermost open span, which must be `index`.
  void Close(int index);

  // RAII wrapper around Open/Close.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, std::string layer)
        : recorder_(recorder), index_(recorder.Open(std::move(name), std::move(layer))) {}
    ~Scope() { recorder_.Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_;
  };

  // Appends a finished span (the self-test builds nested spans by hand).
  int Add(Span span);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  int run_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time per layer, in seconds, over the spans of `run_id`.
std::map<std::string, double> LayerSelfSeconds(const std::vector<Span>& spans, int run_id);

// Durations (ms) of every span of `run_id` named `name`, in recording order.
std::vector<double> SpanDurationsMs(const std::vector<Span>& spans, int run_id,
                                    const std::string& name);

// Chrome trace-event JSON ("X" complete events, microsecond timestamps); the
// run id becomes the pid and the layer the category.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
