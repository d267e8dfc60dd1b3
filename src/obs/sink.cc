#include "obs/sink.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>

namespace prompt {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, v);
  return buf;
}

}  // namespace

std::string FormatFieldValue(const RecordField& field) {
  struct Visitor {
    std::string operator()(uint64_t v) const {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
      return buf;
    }
    std::string operator()(int64_t v) const {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRId64, v);
      return buf;
    }
    std::string operator()(double v) const { return FormatDouble(v); }
    std::string operator()(const std::string& v) const { return v; }
  };
  return std::visit(Visitor{}, field.value);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void CsvSink::Write(const Record& record) {
  if (!wrote_header_) {
    wrote_header_ = true;
    bool first = true;
    for (const RecordField& f : record.fields()) {
      if (!first) *out_ << ',';
      first = false;
      *out_ << f.name;
    }
    *out_ << '\n';
  }
  bool first = true;
  for (const RecordField& f : record.fields()) {
    if (!first) *out_ << ',';
    first = false;
    *out_ << FormatFieldValue(f);
  }
  *out_ << '\n';
}

void JsonlSink::Write(const Record& record) {
  *out_ << '{';
  bool first = true;
  for (const RecordField& f : record.fields()) {
    if (!first) *out_ << ',';
    first = false;
    *out_ << '"' << JsonEscape(f.name) << "\":";
    if (std::holds_alternative<std::string>(f.value)) {
      *out_ << '"' << JsonEscape(std::get<std::string>(f.value)) << '"';
    } else {
      *out_ << FormatFieldValue(f);
    }
  }
  *out_ << "}\n";
}

void TableSink::Write(const Record& record) {
  auto pad = [&](const std::string& cell) {
    *out_ << cell;
    for (int i = static_cast<int>(cell.size()); i < width_; ++i) *out_ << ' ';
  };
  if (auto_header_ && !wrote_header_) {
    wrote_header_ = true;
    for (const RecordField& f : record.fields()) pad(f.name);
    *out_ << '\n';
  }
  for (const RecordField& f : record.fields()) {
    std::string cell = FormatFieldValue(f);
    // Tables are for reading, not round-tripping: clip long doubles.
    if (std::holds_alternative<double>(f.value) && cell.size() > 10) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4g", std::get<double>(f.value));
      cell = buf;
    }
    pad(cell);
  }
  *out_ << '\n';
}

void JsonlTraceSink::Write(const BatchTrace& trace) {
  *out_ << "{\"batch_id\":" << trace.batch_id;
  for (const auto& [key, value] : trace.labels) {
    *out_ << ",\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << '"';
  }
  *out_ << ",\"start_us\":" << trace.batch_start
        << ",\"latency_us\":" << trace.latency
        << ",\"tuples\":" << trace.num_tuples << ",\"keys\":" << trace.num_keys
        << ",\"spans\":[";
  bool first = true;
  for (const TraceSpan& s : trace.spans) {
    if (!first) *out_ << ',';
    first = false;
    *out_ << "{\"name\":\"" << JsonEscape(s.name) << "\",\"start_us\":" << s.start
          << ",\"dur_us\":" << s.duration << ",\"depth\":" << s.depth << '}';
  }
  *out_ << "]}\n";
}

std::vector<Record> SnapshotRecords(
    const std::vector<MetricSample>& snapshot) {
  std::vector<Record> out;
  out.reserve(snapshot.size());
  for (const MetricSample& s : snapshot) {
    Record r;
    r.Set("metric", s.FullName());
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        r.Set("kind", "counter").Set("value", s.value);
        break;
      case MetricSample::Kind::kGauge:
        r.Set("kind", "gauge").Set("value", s.value);
        break;
      case MetricSample::Kind::kHistogram:
        r.Set("kind", "histogram")
            .Set("value", s.value)  // mean
            .Set("count", s.count)
            .Set("sum", s.sum)
            .Set("p50", s.p50)
            .Set("p95", s.p95)
            .Set("p99", s.p99);
        break;
    }
    out.push_back(std::move(r));
  }
  return out;
}

void WriteSnapshotText(const std::vector<MetricSample>& snapshot,
                       std::ostream* out) {
  for (const MetricSample& s : snapshot) {
    *out << s.FullName() << "  ";
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
      case MetricSample::Kind::kGauge:
        *out << FormatDouble(s.value);
        break;
      case MetricSample::Kind::kHistogram:
        *out << "count=" << s.count << " mean=" << FormatDouble(s.value)
             << " p50=" << FormatDouble(s.p50)
             << " p95=" << FormatDouble(s.p95)
             << " p99=" << FormatDouble(s.p99);
        break;
    }
    *out << '\n';
  }
}

Result<std::unique_ptr<FileRecordSink>> FileRecordSink::Open(
    const std::string& path, Format format) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!file->is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  auto sink = std::unique_ptr<FileRecordSink>(new FileRecordSink());
  switch (format) {
    case Format::kCsv:
      sink->inner_ = std::make_unique<CsvSink>(file.get());
      break;
    case Format::kJsonl:
      sink->inner_ = std::make_unique<JsonlSink>(file.get());
      break;
    case Format::kTable:
      sink->inner_ = std::make_unique<TableSink>(file.get());
      break;
  }
  sink->file_ = std::move(file);
  return sink;
}

void FileRecordSink::Flush() {
  inner_->Flush();
  file_->flush();
}

Result<std::unique_ptr<FileTraceSink>> FileTraceSink::Open(
    const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!file->is_open()) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  auto sink = std::unique_ptr<FileTraceSink>(new FileTraceSink());
  sink->inner_ = std::make_unique<JsonlTraceSink>(file.get());
  sink->file_ = std::move(file);
  return sink;
}

void FileTraceSink::Flush() {
  inner_->Flush();
  file_->flush();
}

}  // namespace prompt
