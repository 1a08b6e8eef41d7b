// report_scrub — strips machine-dependent fields from a bench/report JSON
// so two runs can be compared byte-for-byte (the CI fast-path equivalence
// tripwire: HBH_FASTPATH=0 and =1 must produce identical simulations).
//
// Dropped members, at any nesting depth:
//   * wall-clock and host-load fields: wall_seconds, wall_ns, cpu_ns,
//     packets_per_second, events_per_second, peak_rss_bytes,
//     audit_wall_seconds
//   * any key containing "fastpath": the fast-path telemetry (stats
//     sub-objects, fastpath.* gauges, fastpath/* profile phases) is zero
//     or absent with HBH_FASTPATH=0 by definition
//
// Everything else — packet counts, event counts, queue pushes, drop
// reasons, per-receiver delays, tree metrics — must match exactly.
//
// Usage: report_scrub <in.json> <out.json>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "metrics/json.hpp"
#include "metrics/json_parse.hpp"

namespace {

using hbh::metrics::JsonValue;
using hbh::metrics::JsonWriter;

bool scrubbed_key(std::string_view key) {
  static constexpr std::string_view kDropped[] = {
      "wall_seconds",      "wall_ns",        "cpu_ns",
      "packets_per_second", "events_per_second", "peak_rss_bytes",
      "audit_wall_seconds",
  };
  for (const std::string_view k : kDropped) {
    if (key == k) return true;
  }
  return key.find("fastpath") != std::string_view::npos;
}

void write_scrubbed(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.boolean);
      break;
    case JsonValue::Kind::kNumber:
      w.value(v.number);
      break;
    case JsonValue::Kind::kString:
      w.value(v.string);
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, child] : v.object) {
        if (scrubbed_key(key)) continue;
        w.key(key);
        write_scrubbed(w, child);
      }
      w.end_object();
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& child : v.array) write_scrubbed(w, child);
      w.end_array();
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: report_scrub <in.json> <out.json>\n");
    return 2;
  }
  JsonValue doc;
  std::string error;
  if (!hbh::metrics::parse_json_file(argv[1], doc, &error)) {
    std::fprintf(stderr, "report_scrub: %s: %s\n", argv[1], error.c_str());
    return 1;
  }
  std::ofstream out{argv[2]};
  if (!out) {
    std::fprintf(stderr, "report_scrub: cannot write %s\n", argv[2]);
    return 1;
  }
  JsonWriter w{out};
  write_scrubbed(w, doc);
  out << '\n';
  if (!w.complete() || !out) {
    std::fprintf(stderr, "report_scrub: write failed for %s\n", argv[2]);
    return 1;
  }
  return 0;
}
