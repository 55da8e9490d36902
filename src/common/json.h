// The one JSON string writer every exporter shares (bench results, the
// obs registry/timeline/flight-recorder/Chrome-trace files, explorer
// schedules, tool reports). Escapes '"', '\\' and every control character
// (\n, \t, \u00XX for the rest), so any label or path yields a file a
// strict JSON parser accepts.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace dqme {

// Writes `s` as a quoted JSON string.
void write_json_string(std::ostream& os, std::string_view s);

// The same, returned as a string.
std::string json_quote(std::string_view s);

}  // namespace dqme
