// One command-line flag table for every tool and bench.
//
// A Flags object is a table of entries — name, arity, help text, typed
// setter — and parse() reads every program's command line the same way:
//
//   * a flag that takes a value accepts `--flag value` and `--flag=value`;
//   * an optional-value flag (`--json[=PATH]`) binds a value only with
//     '=', so in `--json out.json` the second word is a positional;
//   * unknown flags, missing values, empty values and malformed numbers
//     ("9x", "abc") are usage errors: a message naming the flag, exit 2;
//   * --help / -h prints help generated from the entries and exits 0;
//   * non-flag arguments come back as positionals, and arguments matching
//     a passthrough prefix (micro_core's --benchmark_*) stay in argv for a
//     downstream parser.
//
// Repeating a flag that is not marked repeatable keeps the last value.
#pragma once

#include <functional>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace dqme::flags {

// A usage error. parse() prints "<program>: <what>" and exits 2; setters
// throw it to reject a value.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Strict conversions: the whole of `text` must spell a number in range.
// `flag` names the flag in the error message.
long long to_int64(const std::string& flag, const std::string& text);
unsigned long long to_uint64(const std::string& flag, const std::string& text);
double to_double(const std::string& flag, const std::string& text);

template <typename T>
T to_number(const std::string& flag, const std::string& text) {
  if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(to_double(flag, text));
  } else if constexpr (std::is_signed_v<T>) {
    const long long v = to_int64(flag, text);
    if (v < std::numeric_limits<T>::min() || v > std::numeric_limits<T>::max())
      throw Error(flag + ": value '" + text + "' is out of range");
    return static_cast<T>(v);
  } else {
    const unsigned long long v = to_uint64(flag, text);
    if (v > std::numeric_limits<T>::max())
      throw Error(flag + ": value '" + text + "' is out of range");
    return static_cast<T>(v);
  }
}

class Flags {
 public:
  using Setter = std::function<void(const std::string& value)>;

  explicit Flags(std::string program, std::string synopsis = "[options]");

  // Help heading for the entries registered after it.
  Flags& section(std::string title);

  // --name, no value: sets *out = `to` (--no-check style flags clear).
  Flags& toggle(const std::string& name, bool* out, std::string help,
                bool to = true);

  // --name VALUE into an integer, double or string.
  template <typename T>
  Flags& value(const std::string& name, T* out, std::string metavar,
               std::string help) {
    return add(name, Arity::kRequired, std::move(metavar), std::move(help),
               [name, out](const std::string& v) {
                 if constexpr (std::is_same_v<T, std::string>)
                   *out = v;
                 else
                   *out = to_number<T>(name, v);
               });
  }

  // --name NAME, one of `names`.
  template <typename E>
  Flags& choice(const std::string& name, E* out,
                std::vector<std::pair<std::string, E>> names,
                std::string metavar, std::string help) {
    return add(name, Arity::kRequired, std::move(metavar), std::move(help),
               [name, out, names = std::move(names)](const std::string& v) {
                 std::string all;
                 for (const auto& [n, e] : names) {
                   if (n == v) {
                     *out = e;
                     return;
                   }
                   all += (all.empty() ? "" : " | ") + n;
                 }
                 throw Error(name + ": unknown value '" + v + "' (" + all +
                             ")");
               });
  }

  // --name VALUE through a custom setter (throw Error to reject). The
  // repeatable form documents that every occurrence counts.
  Flags& custom(const std::string& name, std::string metavar,
                std::string help, Setter set);
  Flags& repeatable(const std::string& name, std::string metavar,
                    std::string help, Setter set);

  // --name or --name=VALUE: sets *present, and *value when given.
  Flags& optional(const std::string& name, bool* present, std::string* value,
                  std::string metavar, std::string help);

  // Arguments starting with `prefix` are left in argv for another parser.
  Flags& passthrough(const std::string& prefix, std::string help);

  // Rejects values of the last registered entry below `lo`, with `message`
  // (default "<flag> wants an integer >= lo").
  Flags& min(long long lo, std::string message = {});

  bool has(const std::string& name) const;
  // Flags of `section` given on the command line, in table order.
  std::vector<std::string> seen_in(const std::string& section) const;

  struct Parsed {
    std::vector<std::string> positional;
    std::vector<size_t> passthrough;  // indices into the parsed args
    bool help = false;
  };
  // The non-exiting core: throws Error on a usage error.
  Parsed parse_args(const std::vector<std::string>& args);

  // Parses argv[1..argc). Exits 0 after --help and 2 on a usage error.
  // Leaves argv[0] and the passthrough arguments in argv (argc updated)
  // and returns the positionals.
  std::vector<std::string> parse(int& argc, char** argv);

  // Prints "<program>: <message>" and a usage hint, then exits 2.
  [[noreturn]] void fail(const std::string& message) const;

  void print_help(std::ostream& os) const;

 private:
  enum class Arity { kNone, kRequired, kOptional };
  struct Entry {
    std::string name;
    Arity arity = Arity::kNone;
    std::string metavar;
    std::string help;  // empty = hidden from --help
    std::string section;
    Setter set;
    bool repeatable = false;
    bool prefix = false;  // passthrough entry: name is a prefix
    bool seen = false;
  };

  Flags& add(const std::string& name, Arity arity, std::string metavar,
             std::string help, Setter set);
  Entry* find(const std::string& name);

  std::string program_;
  std::string synopsis_;
  std::string section_;
  std::vector<Entry> entries_;
};

}  // namespace dqme::flags
