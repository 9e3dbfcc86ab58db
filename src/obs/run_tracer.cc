#include "src/obs/run_tracer.h"

#include <utility>

#include "src/common/json_writer.h"
#include "src/obs/metrics.h"

namespace gemini {

void RunTracer::set_metrics(MetricsRegistry* metrics) {
  dropped_records_counter_ = CounterHandle(metrics, "tracer.dropped_records");
}

TraceAttr TraceAttr::Text(std::string key, std::string value) {
  TraceAttr attr;
  attr.key = std::move(key);
  attr.kind = Kind::kText;
  attr.text = std::move(value);
  return attr;
}

TraceAttr TraceAttr::Int(std::string key, int64_t value) {
  TraceAttr attr;
  attr.key = std::move(key);
  attr.kind = Kind::kInt;
  attr.number = value;
  return attr;
}

TraceAttr TraceAttr::Real(std::string key, double value) {
  TraceAttr attr;
  attr.key = std::move(key);
  attr.kind = Kind::kReal;
  attr.real = value;
  return attr;
}

std::string_view TraceRecordKindName(TraceRecordKind kind) {
  switch (kind) {
    case TraceRecordKind::kSpan:
      return "span";
    case TraceRecordKind::kInstant:
      return "instant";
  }
  return "unknown";
}

const TraceAttr* TraceRecord::FindAttr(std::string_view key) const {
  for (const TraceAttr& attr : attrs) {
    if (attr.key == key) {
      return &attr;
    }
  }
  return nullptr;
}

void RunTracer::Event(std::string name, std::string track, std::vector<TraceAttr> attrs) {
  TraceRecord record;
  record.kind = TraceRecordKind::kInstant;
  record.name = std::move(name);
  record.track = std::move(track);
  record.start = sim_.now();
  record.attrs = std::move(attrs);
  Emit(std::move(record));
}

void RunTracer::Span(std::string name, std::string track, TimeNs start, TimeNs end,
                     std::vector<TraceAttr> attrs) {
  TraceRecord record;
  record.kind = TraceRecordKind::kSpan;
  record.name = std::move(name);
  record.track = std::move(track);
  record.start = start;
  record.duration = end - start;
  record.attrs = std::move(attrs);
  Emit(std::move(record));
}

void RunTracer::Emit(TraceRecord record) {
  // The sink sees every record, even ones the tracer itself will not keep:
  // the flight recorder's bounded ring must stay current when the unbounded
  // trace is off (soak runs) or full.
  if (record_sink_) {
    record_sink_(record);
  }
  if (!enabled_) {
    return;
  }
  if (max_records_ > 0 && records_.size() >= max_records_) {
    ++dropped_records_;
    dropped_records_counter_->Increment();
    return;
  }
  records_.push_back(std::move(record));
}

const TraceRecord* RunTracer::Find(std::string_view name, size_t from) const {
  for (size_t i = from; i < records_.size(); ++i) {
    if (records_[i].name == name) {
      return &records_[i];
    }
  }
  return nullptr;
}

int64_t RunTracer::CountNamed(std::string_view name) const {
  int64_t count = 0;
  for (const TraceRecord& record : records_) {
    count += record.name == name ? 1 : 0;
  }
  return count;
}

namespace {

void AppendAttrs(JsonWriter& json, const std::vector<TraceAttr>& attrs) {
  json.BeginObject();
  for (const TraceAttr& attr : attrs) {
    json.Key(attr.key);
    switch (attr.kind) {
      case TraceAttr::Kind::kText:
        json.Value(attr.text);
        break;
      case TraceAttr::Kind::kInt:
        json.Value(attr.number);
        break;
      case TraceAttr::Kind::kReal:
        json.Value(attr.real);
        break;
    }
  }
  json.EndObject();
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceRecord>& records) {
  // Envelope matches the previous hand-rolled exporter: one event per line,
  // timestamps/durations in microseconds, all rows under pid 1.
  std::string out = "{\n\"traceEvents\": [\n";
  bool first = true;
  for (const TraceRecord& record : records) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    JsonWriter json;
    json.BeginObject();
    json.Key("name").Value(record.name);
    json.Key("cat").Value("gemini");
    json.Key("ph").Value(record.kind == TraceRecordKind::kSpan ? "X" : "i");
    json.Key("ts").Value(static_cast<double>(record.start) / 1000.0);
    if (record.kind == TraceRecordKind::kSpan) {
      json.Key("dur").Value(static_cast<double>(record.duration) / 1000.0);
    } else {
      json.Key("s").Value("g");  // Instant scope: global.
    }
    json.Key("pid").Value(1);
    json.Key("tid").Value(record.track);
    if (!record.attrs.empty()) {
      json.Key("args");
      AppendAttrs(json, record.attrs);
    }
    json.EndObject();
    out += "  ";
    out += json.str();
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

std::string RunTracer::ToChromeTraceJson() const { return ChromeTraceJson(records_); }

std::string TraceRecordJsonl(const TraceRecord& record) {
  JsonWriter json;
  json.BeginObject();
  json.Key("ts_ns").Value(record.start);
  json.Key("dur_ns").Value(record.duration);
  json.Key("kind").Value(TraceRecordKindName(record.kind));
  json.Key("name").Value(record.name);
  json.Key("track").Value(record.track);
  json.Key("attrs");
  AppendAttrs(json, record.attrs);
  json.EndObject();
  return json.str();
}

std::string RunTracer::ToJsonl() const {
  std::string out;
  for (const TraceRecord& record : records_) {
    out += TraceRecordJsonl(record);
    out += '\n';
  }
  return out;
}

Status RunTracer::WriteChromeTrace(const std::string& path) const {
  return WriteTextFile(path, ToChromeTraceJson());
}

}  // namespace gemini
