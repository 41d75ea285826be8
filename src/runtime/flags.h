/// \file flags.h
/// \brief Command-line flag parsing shared by every executable.
///
/// One family. Each `Consume*FlagOnce` call accepts both spellings,
/// `--<name> V` and `--<name>=V`, and removes the flag and its value from
/// argv, so what is left is positional. An absent flag takes its default.
/// A flag given twice, given without its value, or given a malformed value
/// is a typed InvalidArgument error that names the flag. Once every flag
/// is consumed, ExpectPositionals makes any leftover argument (an unknown
/// or misspelled flag, or a surplus positional) a usage error, and OrExit
/// reports any of these errors and exits 2.

#ifndef BDISK_RUNTIME_FLAGS_H_
#define BDISK_RUNTIME_FLAGS_H_

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

#include "common/status.h"

namespace bdisk::runtime {

/// \brief Strict decimal uint64 parse: the whole token, no sign, no
/// whitespace, no overflow (ERANGE would otherwise silently saturate to
/// ULLONG_MAX). The single parser behind the uint flags, the channel-spec
/// and device-fault-spec grammars, and endpoint ports.
inline bool ParseUint64Token(const char* token, std::uint64_t* out) {
  if (token == nullptr || token[0] < '0' || token[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token, &end, 10);
  if (end == token || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

/// \brief Strict byte-size parse: a decimal count with an optional binary
/// suffix (`B`, `KiB`, `MiB`, `GiB` — exact spelling, no space). Used by
/// `--store-bytes`-style flags so capacities read as "256MiB" instead of
/// nine-digit literals. Rejects anything else: sign, whitespace, decimal
/// fractions, SI suffixes (`KB`), and products that overflow 64 bits.
inline bool ParseByteSizeToken(const char* token, std::uint64_t* out) {
  if (token == nullptr || token[0] < '0' || token[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(token, &end, 10);
  if (end == token || errno == ERANGE) return false;
  unsigned shift = 0;
  if (*end != '\0') {
    if (std::strcmp(end, "B") == 0) {
      shift = 0;
    } else if (std::strcmp(end, "KiB") == 0) {
      shift = 10;
    } else if (std::strcmp(end, "MiB") == 0) {
      shift = 20;
    } else if (std::strcmp(end, "GiB") == 0) {
      shift = 30;
    } else {
      return false;
    }
  }
  if (shift != 0 && value > (~0ull >> shift)) return false;
  *out = static_cast<std::uint64_t>(value) << shift;
  return true;
}

/// \brief Strict decimal floating-point parse: the whole token as one
/// finite number (`0.2`, `-1.5`, `1e3`). Rejects whitespace, a leading
/// `+`, hex floats, `inf`/`nan`, out-of-range values and trailing junk
/// (`0.2junk`, which atof would quietly read as 0.2). Locale-independent.
inline bool ParseDoubleToken(const char* token, double* out) {
  if (token == nullptr) return false;
  const char* end = token + std::strlen(token);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(token, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Largest accepted thread count — far above any real machine, low enough
/// that a typo cannot exhaust the process spawning threads.
inline constexpr std::uint64_t kMaxThreads = 4096;

/// \brief Strict thread-count parse: a ParseUint64Token value in
/// [1, kMaxThreads].
inline bool ParseThreadsToken(const char* token, unsigned* out) {
  std::uint64_t value = 0;
  if (!ParseUint64Token(token, &value) || value == 0 || value > kMaxThreads) {
    return false;
  }
  *out = static_cast<unsigned>(value);
  return true;
}

namespace flags_internal {

inline Status FlagError(const char* name, const std::string& what) {
  return Status::InvalidArgument(std::string("flag --") + name + what);
}

/// Finds the one occurrence of `--<name>` and removes it from argv
/// (compacting argv and *argc, keeping argv[argc] == NULL). With `value`
/// non-null the flag takes a value (`--<name> V` or `--<name>=V`), stored
/// in *value; with `value` null it is a presence flag. Returns whether the
/// flag was present; argv is left unchanged on error.
inline Result<bool> TakeFlag(int* argc, char** argv, const char* name,
                             const char** value) {
  const std::size_t len = std::strlen(name);
  int at = 0;     // argv index of the flag; 0 = absent.
  int width = 0;  // Arguments it spans, value included.
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0 ||
        std::strncmp(arg + 2, name, len) != 0) {
      continue;
    }
    const char tail = arg[2 + len];
    if (tail != '\0' && tail != '=') continue;  // A longer flag name.
    if (at != 0) return FlagError(name, " given more than once");
    if (value == nullptr && tail == '=') {
      return FlagError(name, " takes no value");
    }
    if (value != nullptr && tail == '\0' && i + 1 >= *argc) {
      return FlagError(name, " needs a value");
    }
    at = i;
    width = value != nullptr && tail == '\0' ? 2 : 1;
    i += width - 1;  // The value is never itself a flag occurrence.
  }
  if (at == 0) return false;
  if (value != nullptr) {
    *value = width == 2 ? argv[at + 1] : argv[at] + 3 + len;
  }
  std::copy(argv + at + width, argv + *argc, argv + at);
  *argc -= width;
  argv[*argc] = nullptr;
  return true;
}

/// ConsumeStringFlagOnce, then `parse` on the value; a value `parse`
/// rejects is an error naming the flag, the token, and `what` it must be.
template <typename T, typename Parse>
Result<T> ConsumeParsedFlagOnce(int* argc, char** argv, const char* name,
                                T fallback, Parse parse, const char* what) {
  const char* token = nullptr;
  BDISK_ASSIGN_OR_RETURN(const bool present,
                         TakeFlag(argc, argv, name, &token));
  if (!present) return fallback;
  T value{};
  if (!parse(token, &value)) {
    return FlagError(name, std::string(": '") + token + "' is not " + what);
  }
  return value;
}

}  // namespace flags_internal

/// \brief String flag: the value of `--<name> V` / `--<name>=V`, or
/// `fallback` when absent.
inline Result<const char*> ConsumeStringFlagOnce(
    int* argc, char** argv, const char* name,
    const char* fallback = nullptr) {
  const char* value = fallback;
  BDISK_RETURN_NOT_OK(
      flags_internal::TakeFlag(argc, argv, name, &value).status());
  return value;
}

/// \brief Presence flag: true iff a bare `--<name>` appears; `--<name>=V`
/// is an error.
inline Result<bool> ConsumeBoolFlagOnce(int* argc, char** argv,
                                        const char* name) {
  return flags_internal::TakeFlag(argc, argv, name, nullptr);
}

/// \brief Unsigned integer flag (ParseUint64Token grammar).
inline Result<std::uint64_t> ConsumeUintFlagOnce(int* argc, char** argv,
                                                 const char* name,
                                                 std::uint64_t fallback) {
  return flags_internal::ConsumeParsedFlagOnce(
      argc, argv, name, fallback, ParseUint64Token,
      "a non-negative integer");
}

/// \brief Byte-size flag (ParseByteSizeToken grammar).
inline Result<std::uint64_t> ConsumeByteSizeFlagOnce(int* argc, char** argv,
                                                     const char* name,
                                                     std::uint64_t fallback) {
  return flags_internal::ConsumeParsedFlagOnce(
      argc, argv, name, fallback, ParseByteSizeToken,
      "a byte size (decimal count with optional B/KiB/MiB/GiB)");
}

/// \brief Floating-point flag (ParseDoubleToken grammar).
inline Result<double> ConsumeDoubleFlagOnce(int* argc, char** argv,
                                            const char* name,
                                            double fallback) {
  return flags_internal::ConsumeParsedFlagOnce(
      argc, argv, name, fallback, ParseDoubleToken, "a decimal number");
}

/// \brief `--threads` (ParseThreadsToken grammar), the pool width every
/// parallel executable takes.
inline Result<unsigned> ConsumeThreadsFlagOnce(int* argc, char** argv,
                                               unsigned fallback = 1) {
  return flags_internal::ConsumeParsedFlagOnce(
      argc, argv, "threads", fallback, ParseThreadsToken,
      "a thread count in 1..4096");
}

/// \brief Usage check once every flag is consumed: OK iff exactly `count`
/// arguments remain. A leftover `--...` argument is reported as an
/// unknown flag, any other surplus as an unexpected argument.
inline Status ExpectPositionals(int argc, char** argv, int count) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      return Status::InvalidArgument(std::string("unknown flag '") +
                                     argv[i] + "'");
    }
  }
  if (argc - 1 > count) {
    return Status::InvalidArgument(std::string("unexpected argument '") +
                                   argv[count + 1] + "'");
  }
  if (argc - 1 < count) {
    return Status::InvalidArgument(
        "expected " + std::to_string(count) + " positional argument(s), got " +
        std::to_string(argc - 1));
  }
  return Status::OK();
}

/// \brief The usage-error exit: unless `status` is OK, prints
/// `error: <message>` (then `usage`, when given) to stderr and exits 2.
inline void OrExit(const Status& status, const char* usage = nullptr) {
  if (status.ok()) return;
  std::fprintf(stderr, "error: %s\n", status.message().c_str());
  if (usage != nullptr) std::fprintf(stderr, "%s\n", usage);
  std::exit(2);
}

/// \brief The value of `result`, or the usage-error exit.
template <typename T>
T OrExit(Result<T> result) {
  OrExit(result.status());
  return std::move(result).value();
}

}  // namespace bdisk::runtime

#endif  // BDISK_RUNTIME_FLAGS_H_
