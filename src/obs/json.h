// Minimal write-only JSON value type — the serialization substrate of the observability
// layer (docs/metrics_schema.md freezes the schemas built on top). The reports it writes
// are read by the Python tools (tools/check_bench_schema.py and friends), never by C++.
//
// Design constraints, in order:
//   1. No third-party dependency (the repo builds from the system toolchain alone).
//   2. Deterministic output: object keys keep insertion order, numbers print either as
//      exact integers or with round-trip precision, so two runs of a bench diff cleanly.
//   3. Small enough to audit: one value type, one Dump.
//
// Usage:
//   obs::Json rows = obs::Json::Array();
//   rows.Append(obs::Json(42.5));
//   obs::Json j = obs::Json::Object();
//   j.Set("schema_version", 1);
//   j.Set("rows", std::move(rows));
//   std::string text = j.Dump(2);          // pretty, 2-space indent
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace obs {

class Json {
 public:
  Json() : type_(Type::kNull) {}
  Json(bool v) : type_(Type::kBool), bool_(v) {}                        // NOLINT(runtime/explicit)
  Json(int v) : type_(Type::kInt), int_(v) {}                           // NOLINT(runtime/explicit)
  Json(int64_t v) : type_(Type::kInt), int_(v) {}                       // NOLINT(runtime/explicit)
  Json(double v) : type_(Type::kDouble), double_(v) {}                  // NOLINT(runtime/explicit)
  Json(const char* v) : type_(Type::kString), str_(v) {}                // NOLINT(runtime/explicit)
  Json(std::string v) : type_(Type::kString), str_(std::move(v)) {}     // NOLINT(runtime/explicit)
  Json(std::string_view v) : type_(Type::kString), str_(v) {}           // NOLINT(runtime/explicit)

  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  void Append(Json v);                     // array only
  void Set(std::string_view key, Json v);  // object only; replaces an existing key in place

  // Serializes. indent < 0: compact one-line form; indent >= 0: pretty-printed with that
  // many spaces per level. Doubles always carry a '.', 'e' or 'E' (1.0 prints as 1.0) so
  // readers keep the integer/float split; non-finite doubles serialize as null (JSON has
  // no NaN/Inf).
  std::string Dump(int indent = -1) const;

 private:
  enum class Type : uint8_t {
    kNull,
    kBool,
    kInt,     // exact 64-bit integer (counters, block counts, schema version)
    kDouble,  // everything measured (seconds, ratios, throughput)
    kString,
    kArray,
    kObject,
  };

  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

// Writes `text` to `path` atomically enough for bench artifacts (write then rename is
// overkill for single-process emitters; this truncates and writes). Returns false on I/O
// failure.
bool WriteFile(const std::string& path, const std::string& text);

}  // namespace obs

#endif  // SRC_OBS_JSON_H_
