// Minimal JSON support for the JSONL files the tuning subsystem exchanges:
// the persistent evaluation cache and the search event trace.  Both are
// streams of one-line objects (string/number/bool/null values, plus
// shallowly nested objects for grouped counters — no arrays), which is all
// this implements — by design, so a cache line can be appended atomically
// and a trace can be processed with line-oriented tools.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace ifko {

/// Escapes `s` for inclusion inside a JSON string literal (quotes excluded).
[[nodiscard]] std::string jsonEscape(std::string_view s);

/// Builds one flat JSON object; fields render in insertion order.
///
///   JsonWriter w;
///   w.field("event", "candidate").field("cycles", cycles);
///   fputs((w.str() + "\n").c_str(), f);
class JsonWriter {
 public:
  JsonWriter& field(std::string_view key, std::string_view value);
  JsonWriter& field(std::string_view key, const char* value);
  JsonWriter& field(std::string_view key, const std::string& value);
  JsonWriter& field(std::string_view key, int64_t value);
  JsonWriter& field(std::string_view key, uint64_t value);
  JsonWriter& field(std::string_view key, int value);
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, bool value);
  /// Embeds another writer's object as a nested value.
  JsonWriter& field(std::string_view key, const JsonWriter& nested);

  /// The complete object, e.g. {"event":"candidate","cycles":123}.
  [[nodiscard]] std::string str() const;

 private:
  JsonWriter& raw(std::string_view key, std::string rendered);
  std::string body_;
};

/// One parsed JSON value.  Objects nest (boundedly deep); arrays do not.
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  /// Set iff kind == Object (shared_ptr: JsonValue is incomplete here).
  std::shared_ptr<std::map<std::string, JsonValue>> object;

  /// The number as an exact integer: nullopt unless this is a Number
  /// holding an integral value inside int64_t.  File loaders read every
  /// integer field through these, so a fractional, NaN or out-of-range
  /// value is a damaged line, never a silently truncated one.
  [[nodiscard]] std::optional<int64_t> intValue() const;
  /// As intValue, for unsigned fields: negatives are nullopt too.
  [[nodiscard]] std::optional<uint64_t> uintValue() const;

  /// Unchecked truncating casts, for reading numbers this program itself
  /// wrote (line-protocol replies, trace events in benchmarks).
  [[nodiscard]] int64_t asInt() const { return static_cast<int64_t>(number); }
  [[nodiscard]] uint64_t asUint() const {
    return static_cast<uint64_t>(number);
  }
};

/// Parses one JSON object into `out` (cleared first).  Returns false —
/// with a message in *error when given — on malformed input, trailing
/// garbage, arrays, or objects nested deeper than a small bound.
[[nodiscard]] bool parseJsonObject(std::string_view line,
                                   std::map<std::string, JsonValue>* out,
                                   std::string* error = nullptr);

}  // namespace ifko
