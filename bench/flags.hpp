// The benches' command line: one table of flags, each bound to the
// variable it sets with a checked type. Malformed input exits 2 with a
// message naming the flag, before the bench does any work.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace rh::bench {

/// Parses one numeric flag token; exits 2 with "<flag>: '<tok>' is not a
/// number" when the whole token is not one.
inline double parse_number(const char* flag, const std::string& tok) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || end == tok.c_str() || *end != '\0') {
    std::fprintf(stderr, "%s: '%s' is not a number\n", flag, tok.c_str());
    std::exit(2);
  }
  return v;
}

/// Parses a whole-token decimal integer of at least `min`: "2x", "1e3",
/// "2.5" and values below `min` (for an unsigned type, any '-') exit 2.
template <typename T>
T parse_integer(const char* flag, const std::string& tok, T min) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [stop, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc{} || stop != end || v < min) {
    parse_number(flag, tok);  // exits when the token is no number at all
    std::fprintf(stderr, "%s: '%s' is not an integer >= %lld\n", flag,
                 tok.c_str(), static_cast<long long>(min));
    std::exit(2);
  }
  return v;
}

/// Parses a finite number >= 0 for flags like --jitter.
inline double parse_non_negative(const char* flag, const std::string& tok) {
  const double v = parse_number(flag, tok);
  if (!std::isfinite(v) || v < 0.0) {
    std::fprintf(stderr, "%s: '%s' is not a non-negative number\n", flag,
                 tok.c_str());
    std::exit(2);
  }
  return v;
}

/// Parses a simulated duration in seconds for flags like --sim-seconds.
/// Exits 2 with a clear error on a malformed token or on a value that is
/// not finite or is under one microsecond (it would round to no time at
/// all), before any fleet is built.
inline double parse_positive_seconds(const char* flag, const std::string& tok) {
  const double v = parse_number(flag, tok);
  if (!std::isfinite(v) || !(v >= 1e-6)) {
    std::fprintf(stderr, "%s: '%s' is not a time of at least 1e-6 s\n", flag,
                 tok.c_str());
    std::exit(2);
  }
  return v;
}

/// Splits "a,b,c" into its tokens; "" is one empty token.
inline std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (auto comma = list.find(','); comma != std::string::npos;
       comma = list.find(',', pos)) {
    out.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  out.push_back(list.substr(pos));
  return out;
}

/// Parses a comma-separated sweep list ("0,0.01,0.05") for flags like
/// --fault-rate and --overcommit. Exits with a clear error on malformed
/// tokens, negative values, or duplicates -- a silently-misparsed sweep
/// point wastes a whole replication grid before anyone notices.
inline std::vector<double> parse_value_list(const char* flag,
                                            const std::string& list) {
  std::vector<double> out;
  for (const std::string& tok : split_list(list)) {
    const double v = parse_number(flag, tok);
    if (v < 0.0) {
      std::fprintf(stderr, "%s: negative value '%s' rejected\n", flag,
                   tok.c_str());
      std::exit(2);
    }
    for (const double prev : out) {
      if (prev == v) {
        std::fprintf(stderr, "%s: duplicate value '%s'\n", flag, tok.c_str());
        std::exit(2);
      }
    }
    out.push_back(v);
  }
  return out;
}

/// The command line the last Flags::parse read.
inline std::vector<std::string>& command_line() {
  static std::vector<std::string> argv;
  return argv;
}

/// `"argv": [...]`: the field every BENCH JSON records its command line in.
inline std::string argv_json() {
  std::string out = "\"argv\": [";
  for (std::size_t i = 0; i < command_line().size(); ++i) {
    out += i == 0 ? "\"" : ", \"";
    for (const char c : command_line()[i]) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof esc, "\\u%04x", c);
        out += esc;
      } else {
        out += c;
      }
    }
    out += '"';
  }
  return out + "]";
}

/// One bench's flag table. Each binding ties a flag to the variable it
/// sets; a flag given twice keeps its last value. parse() exits 2 with
/// the generated usage line on an unknown flag, and with a message naming
/// the flag on a missing or malformed value.
class Flags {
 public:
  /// An integer of at least `min`.
  template <typename T>
  Flags& integer(const char* flag, T& var, std::type_identity_t<T> min = 0) {
    return bind(flag, "N", [flag, &var, min](const std::string& v) {
      var = parse_integer(flag, v, min);
    });
  }
  /// A finite number >= 0.
  Flags& number(const char* flag, double& var) {
    return bind(flag, "X", [flag, &var](const std::string& v) {
      var = parse_non_negative(flag, v);
    });
  }
  /// Simulated seconds, at least 1e-6 (parse_positive_seconds).
  Flags& seconds(const char* flag, double& var) {
    return bind(flag, "S", [flag, &var](const std::string& v) {
      var = parse_positive_seconds(flag, v);
    });
  }
  /// A sweep list of distinct numbers >= 0 (parse_value_list).
  Flags& values(const char* flag, std::vector<double>& var) {
    return bind(flag, "X1,X2,...", [flag, &var](const std::string& v) {
      var = parse_value_list(flag, v);
    });
  }
  /// A list of integers, each at least `min`.
  template <typename T>
  Flags& integers(const char* flag, std::vector<T>& var,
                  std::type_identity_t<T> min = 0) {
    return bind(flag, "N1,N2,...", [flag, &var, min](const std::string& v) {
      var.clear();
      for (const std::string& tok : split_list(v)) {
        var.push_back(parse_integer(flag, tok, min));
      }
    });
  }
  /// A file path.
  Flags& path(const char* flag, std::string& var) {
    return bind(flag, "PATH", [&var](const std::string& v) { var = v; });
  }
  /// A valueless flag: runs `fn` where it appears on the line.
  Flags& action(const char* flag, std::function<void()> fn) {
    return bind(flag, "", [fn = std::move(fn)](const std::string&) { fn(); });
  }

  void parse(int argc, char** argv) {
    command_line().assign(argv, argv + argc);
    for (int i = 1; i < argc; ++i) {
      const auto b = std::ranges::find(bindings_, argv[i], &Binding::flag);
      if (b == bindings_.end()) {
        std::string usage = std::string("usage: ") + argv[0];
        for (const Binding& u : bindings_) {
          usage += " [";
          usage += u.flag;
          if (!u.meta.empty()) usage += " " + u.meta;
          usage += "]";
        }
        std::fprintf(stderr, "%s\n", usage.c_str());
        std::exit(2);
      }
      if (!b->meta.empty() && i + 1 == argc) {
        std::fprintf(stderr, "%s: missing value\n", argv[i]);
        std::exit(2);
      }
      b->set(b->meta.empty() ? std::string() : argv[++i]);
      b->given = true;
    }
  }

  /// Whether the parsed line set `flag`.
  [[nodiscard]] bool given(const std::string& flag) const {
    const auto b = std::ranges::find(bindings_, flag, &Binding::flag);
    return b != bindings_.end() && b->given;
  }

 private:
  struct Binding {
    std::string flag;
    std::string meta;  ///< empty: a valueless action
    std::function<void(const std::string&)> set;
    bool given = false;
  };

  Flags& bind(const char* flag, const char* meta,
              std::function<void(const std::string&)> set) {
    bindings_.push_back({flag, meta, std::move(set)});
    return *this;
  }

  std::vector<Binding> bindings_;
};

}  // namespace rh::bench
