#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iostream>

namespace dqme::flags {

namespace {

Error malformed(const std::string& flag, const std::string& text,
                const char* what) {
  return Error(flag + " wants " + what + ", got '" + text + "'");
}

template <typename T>
T parse_integer(const std::string& flag, const std::string& text,
                const char* what) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range)
    throw Error(flag + ": value '" + text + "' is out of range");
  if (ec != std::errc() || ptr != end || text.empty())
    throw malformed(flag, text, what);
  return v;
}

}  // namespace

long long to_int64(const std::string& flag, const std::string& text) {
  return parse_integer<long long>(flag, text, "an integer");
}

unsigned long long to_uint64(const std::string& flag,
                             const std::string& text) {
  return parse_integer<unsigned long long>(flag, text,
                                           "a non-negative integer");
}

double to_double(const std::string& flag, const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
    throw malformed(flag, text, "a number");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) throw malformed(flag, text, "a number");
  if (errno == ERANGE)
    throw Error(flag + ": value '" + text + "' is out of range");
  return v;
}

Flags::Flags(std::string program, std::string synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

Flags& Flags::section(std::string title) {
  section_ = std::move(title);
  return *this;
}

Flags& Flags::add(const std::string& name, Arity arity, std::string metavar,
                  std::string help, Setter set) {
  Entry e;
  e.name = name;
  e.arity = arity;
  e.metavar = std::move(metavar);
  e.help = std::move(help);
  e.section = section_;
  e.set = std::move(set);
  entries_.push_back(std::move(e));
  return *this;
}

Flags& Flags::toggle(const std::string& name, bool* out, std::string help,
                     bool to) {
  return add(name, Arity::kNone, {}, std::move(help),
             [out, to](const std::string&) { *out = to; });
}

Flags& Flags::custom(const std::string& name, std::string metavar,
                     std::string help, Setter set) {
  return add(name, Arity::kRequired, std::move(metavar), std::move(help),
             std::move(set));
}

Flags& Flags::repeatable(const std::string& name, std::string metavar,
                         std::string help, Setter set) {
  custom(name, std::move(metavar), std::move(help), std::move(set));
  entries_.back().repeatable = true;
  return *this;
}

Flags& Flags::optional(const std::string& name, bool* present,
                       std::string* value, std::string metavar,
                       std::string help) {
  // Empty `=` values are rejected before any setter runs, so "" here
  // means the bare flag.
  return add(name, Arity::kOptional, std::move(metavar), std::move(help),
             [present, value](const std::string& v) {
               *present = true;
               if (!v.empty()) *value = v;
             });
}

Flags& Flags::passthrough(const std::string& prefix, std::string help) {
  add(prefix, Arity::kNone, {}, std::move(help), nullptr);
  entries_.back().prefix = true;
  return *this;
}

Flags& Flags::min(long long lo, std::string message) {
  Entry& e = entries_.back();
  if (message.empty())
    message = e.name + " wants an integer >= " + std::to_string(lo);
  e.set = [name = e.name, lo, message = std::move(message),
           set = std::move(e.set)](const std::string& v) {
    if (to_int64(name, v) < lo) throw Error(message);
    set(v);
  };
  return *this;
}

bool Flags::has(const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return true;
  return false;
}

std::vector<std::string> Flags::seen_in(const std::string& section) const {
  std::vector<std::string> out;
  for (const Entry& e : entries_)
    if (e.seen && e.section == section) out.push_back(e.name);
  return out;
}

Flags::Entry* Flags::find(const std::string& name) {
  for (Entry& e : entries_)
    if (!e.prefix && e.name == name) return &e;
  return nullptr;
}

Flags::Parsed Flags::parse_args(const std::vector<std::string>& args) {
  Parsed out;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      out.help = true;
      return out;
    }
    if (arg.rfind("--", 0) != 0) {
      out.positional.push_back(arg);
      continue;
    }
    bool passed = false;
    for (const Entry& e : entries_)
      passed = passed || (e.prefix && arg.rfind(e.name, 0) == 0);
    if (passed) {
      out.passthrough.push_back(i);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    Entry* e = find(name);
    if (e == nullptr) throw Error("unknown flag '" + name + "'");
    std::string value;
    if (eq != std::string::npos) {
      if (e->arity == Arity::kNone)
        throw Error(name + " does not take a value");
      value = arg.substr(eq + 1);
      if (value.empty()) throw Error(name + " wants a value after '='");
    } else if (e->arity == Arity::kRequired) {
      if (i + 1 >= args.size()) throw Error("missing value for " + name);
      value = args[++i];
      if (value.empty()) throw Error(name + " wants a non-empty value");
    }
    try {
      e->set(value);
    } catch (const Error&) {
      throw;
    } catch (const std::exception& ex) {
      // Name parsers elsewhere in the library (algo_from_string, ...)
      // report with their own exception type.
      throw Error(name + ": " + ex.what());
    }
    e->seen = true;
  }
  return out;
}

std::vector<std::string> Flags::parse(int& argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Parsed p;
  try {
    p = parse_args(args);
  } catch (const Error& e) {
    fail(e.what());
  }
  if (p.help) {
    print_help(std::cout);
    std::exit(0);
  }
  int keep = 1;
  for (size_t i : p.passthrough) argv[keep++] = argv[i + 1];
  argc = keep;
  return p.positional;
}

void Flags::fail(const std::string& message) const {
  std::cerr << program_ << ": " << message << "\n"
            << "usage: " << program_ << " " << synopsis_
            << "   (--help lists every option)\n";
  std::exit(2);
}

void Flags::print_help(std::ostream& os) const {
  os << "usage: " << program_ << " " << synopsis_ << "\n";
  constexpr size_t kColumn = 24;
  const std::string indent(kColumn, ' ');
  std::string section = "\x01";  // matches no real heading
  for (const Entry& e : entries_) {
    if (e.help.empty()) continue;
    if (e.section != section) {
      section = e.section;
      os << "\n" << (section.empty() ? "options:" : section) << "\n";
    }
    std::string left = "  " + e.name;
    if (e.prefix)
      left += "*";
    else if (e.arity == Arity::kRequired)
      left += " " + e.metavar;
    else if (e.arity == Arity::kOptional)
      left += "[=" + e.metavar + "]";
    std::string help = e.help;
    if (e.repeatable) help += " (repeatable)";
    os << left;
    if (left.size() + 1 >= kColumn)
      os << "\n" << indent;
    else
      os << std::string(kColumn - left.size(), ' ');
    for (const char c : help) {
      os << c;
      if (c == '\n') os << indent;
    }
    os << "\n";
  }
}

}  // namespace dqme::flags
