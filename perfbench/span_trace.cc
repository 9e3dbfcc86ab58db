#include "perfbench/span_trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::Open(std::string name, std::string layer) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = open_.empty() ? -1 : open_.back();
  span.run_id = run_id_;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

int SpanRecorder::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> LayerSelfSeconds(const std::vector<Span>& spans, int run_id) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.run_id != run_id) {
      continue;
    }
    // Union of the direct children's intervals, clipped to this span.
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : intervals) {
      const int64_t from = std::max(start, cursor);
      const int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    const int64_t duration = span.end_ns - span.start_ns;
    self[span.layer] += static_cast<double>(duration - covered) / 1e9;
  }
  return self;
}

std::vector<double> SpanDurationsMs(const std::vector<Span>& spans, int run_id,
                                    const std::string& name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (span.run_id == run_id && span.name == name) {
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return durations;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  char number[64];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (i > 0) {
      out += ",";
    }
    out += "\n{\"name\":\"" + JsonEscape(span.name) + "\",\"cat\":\"" + JsonEscape(span.layer) +
           "\",\"ph\":\"X\",";
    std::snprintf(number, sizeof(number), "\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    out += number;
    out += "\"pid\":" + std::to_string(span.run_id) + ",\"tid\":0,\"args\":{\"id\":" +
           std::to_string(i) + ",\"parent\":" + std::to_string(span.parent) + "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
