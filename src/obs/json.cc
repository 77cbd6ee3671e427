#include "obs/json.h"

#include <cstdio>

#include "obs/json_reader.h"
#include "obs/metrics.h"

namespace rbda {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonObjectWriter::Key(std::string_view key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + JsonEscape(key) + "\":";
}

void JsonObjectWriter::AddString(std::string_view key, std::string_view value) {
  Key(key);
  body_ += "\"" + JsonEscape(value) + "\"";
}

void JsonObjectWriter::AddInt(std::string_view key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
}

void JsonObjectWriter::AddUint(std::string_view key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
}

void JsonObjectWriter::AddDouble(std::string_view key, double value) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  body_ += buf;
}

void JsonObjectWriter::AddBool(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
}

void JsonObjectWriter::AddRaw(std::string_view key,
                              std::string_view json_value) {
  Key(key);
  body_ += json_value;
}

std::string SnapshotToJson(const MetricsRegistry& registry) {
  JsonObjectWriter counters;
  for (const auto& [name, value] : registry.CounterValues()) {
    counters.AddUint(name, value);
  }
  JsonObjectWriter distributions;
  for (const auto& [name, stats] : registry.DistributionValues()) {
    JsonObjectWriter d;
    // count/sum/min/max must stay first and in this order — existing
    // consumers match on the prefix of this object.
    d.AddUint("count", stats.count);
    d.AddUint("sum", stats.sum);
    d.AddUint("min", stats.min);
    d.AddUint("max", stats.max);
    JsonObjectWriter q;
    q.AddUint("p50", stats.p50);
    q.AddUint("p90", stats.p90);
    q.AddUint("p99", stats.p99);
    q.AddUint("p999", stats.p999);
    d.AddRaw("quantiles", q.ToJson());
    distributions.AddRaw(name, d.ToJson());
  }
  JsonObjectWriter gauges;
  for (const auto& [name, value] : registry.GaugeValues()) {
    gauges.AddUint(name, value);
  }
  JsonObjectWriter out;
  out.AddRaw("counters", counters.ToJson());
  out.AddRaw("distributions", distributions.ToJson());
  out.AddRaw("gauges", gauges.ToJson());
  return out.ToJson();
}

bool IsValidJson(std::string_view s) { return ParseJson(s).ok(); }

}  // namespace rbda
