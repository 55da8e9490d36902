#include "common/json.h"

#include <cstdio>
#include <sstream>

namespace dqme {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (c == '\n') {
      os << "\\n";
    } else if (c == '\t') {
      os << "\\t";
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(u));
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

std::string json_quote(std::string_view s) {
  std::ostringstream os;
  write_json_string(os, s);
  return os.str();
}

}  // namespace dqme
