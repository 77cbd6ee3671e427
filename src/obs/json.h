// Minimal JSON support for the observability layer: a string escaper, an
// append-only writer for objects the exporters emit, a registry snapshot
// exporter, and a validity check used by tests and the CLI.
//
// Deliberately not a general JSON library — the repo has no external
// dependencies and does not need one: exporters only ever *write* JSON,
// and the validity check is the one reader the repo has (json_reader.h).
#ifndef RBDA_OBS_JSON_H_
#define RBDA_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace rbda {

class MetricsRegistry;

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included): ", \, control characters.
std::string JsonEscape(std::string_view s);

/// Incremental writer for a single JSON object. Values appear in insertion
/// order; keys are escaped. `AddRaw` splices a pre-rendered JSON value
/// (object, array, or number) under a key.
class JsonObjectWriter {
 public:
  void AddString(std::string_view key, std::string_view value);
  void AddInt(std::string_view key, int64_t value);
  void AddUint(std::string_view key, uint64_t value);
  void AddDouble(std::string_view key, double value);
  void AddBool(std::string_view key, bool value);
  void AddRaw(std::string_view key, std::string_view json_value);

  /// The completed object, e.g. {"a":1,"b":"x"}.
  std::string ToJson() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_;
};

/// Serializes every counter, distribution, and gauge of `registry` as
///   {"counters": {name: value, ...},
///    "distributions": {name: {"count":c,"sum":s,"min":m,"max":M,
///                             "quantiles":{"p50":..,"p90":..,
///                                          "p99":..,"p999":..}}, ...},
///    "gauges": {name: value, ...}}
/// with names in lexicographic order. The count/sum/min/max prefix of
/// each distribution object is a stable, backwards-compatible schema;
/// quantiles are Histogram estimates (histogram.h error bound).
std::string SnapshotToJson(const MetricsRegistry& registry);

/// True iff ParseJson accepts `s`: exactly one well-formed JSON value
/// plus optional surrounding whitespace, with no duplicate object key and
/// at most 32 levels of nesting. Used by tests to validate exporter
/// output.
bool IsValidJson(std::string_view s);

}  // namespace rbda

#endif  // RBDA_OBS_JSON_H_
