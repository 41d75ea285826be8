#include "bdisk/spec_parser.h"

#include <charconv>
#include <sstream>
#include <unordered_set>

#include "runtime/flags.h"

namespace bdisk::broadcast {

namespace {

Status LineError(int line_no, const std::string& message) {
  return Status::InvalidArgument("spec line " + std::to_string(line_no) +
                                 ": " + message);
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream iss(line);
  std::string token;
  while (iss >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

/// Splits "key=value"; returns false if '=' is absent.
bool SplitKeyValue(const std::string& token, std::string* key,
                   std::string* value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
    return false;
  }
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

Result<std::uint64_t> ParseUint(const std::string& s, int line_no) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return LineError(line_no, "expected an unsigned integer, got '" + s + "'");
  }
  return value;
}

Result<double> ParseDouble(const std::string& s, int line_no) {
  double value = 0.0;
  if (!runtime::ParseDoubleToken(s.c_str(), &value)) {
    return LineError(line_no, "expected a finite decimal number, got '" + s +
                                  "'");
  }
  return value;
}

Result<std::vector<std::uint64_t>> ParseUintList(const std::string& s,
                                                 int line_no) {
  std::vector<std::uint64_t> out;
  std::string item;
  std::istringstream iss(s);
  while (std::getline(iss, item, ',')) {
    BDISK_ASSIGN_OR_RETURN(std::uint64_t v, ParseUint(item, line_no));
    out.push_back(v);
  }
  if (out.empty()) {
    return LineError(line_no, "expected a comma-separated list, got '" + s +
                                  "'");
  }
  return out;
}

}  // namespace

Result<WorkloadSpec> ParseWorkloadSpec(const std::string& text) {
  WorkloadSpec spec;
  std::unordered_set<std::string> names;
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "channel" || directive == "blocksize") {
      if (tokens.size() != 2) {
        return LineError(line_no, directive + " takes exactly one value");
      }
      BDISK_ASSIGN_OR_RETURN(std::uint64_t v, ParseUint(tokens[1], line_no));
      if (v == 0) return LineError(line_no, directive + " must be positive");
      (directive == "channel" ? spec.channel_bytes_per_second
                              : spec.block_size) = v;
      continue;
    }

    if (directive == "file") {
      if (tokens.size() < 2) return LineError(line_no, "file needs a name");
      ByteFileSpec f;
      f.name = tokens[1];
      if (!names.insert(f.name).second) {
        return LineError(line_no, "duplicate file name '" + f.name + "'");
      }
      bool have_bytes = false;
      bool have_latency = false;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key;
        std::string value;
        if (!SplitKeyValue(tokens[i], &key, &value)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] +
                                        "'");
        }
        if (key == "bytes") {
          BDISK_ASSIGN_OR_RETURN(f.bytes, ParseUint(value, line_no));
          have_bytes = true;
        } else if (key == "latency") {
          BDISK_ASSIGN_OR_RETURN(f.latency_seconds,
                                 ParseDouble(value, line_no));
          have_latency = true;
        } else if (key == "faults") {
          BDISK_ASSIGN_OR_RETURN(f.fault_tolerance,
                                 ParseUint(value, line_no));
        } else {
          return LineError(line_no, "unknown file attribute '" + key + "'");
        }
      }
      if (!have_bytes || !have_latency) {
        return LineError(line_no, "file needs bytes= and latency=");
      }
      if (f.bytes == 0) {
        return LineError(line_no, "file '" + f.name +
                                      "' has zero length; bytes must be "
                                      "positive");
      }
      if (!(f.latency_seconds > 0.0)) {
        return LineError(line_no, "file '" + f.name +
                                      "' needs a positive latency");
      }
      spec.byte_files.push_back(std::move(f));
      continue;
    }

    if (directive == "gfile") {
      if (tokens.size() < 2) return LineError(line_no, "gfile needs a name");
      GeneralizedFileSpec f;
      f.name = tokens[1];
      if (!names.insert(f.name).second) {
        return LineError(line_no, "duplicate file name '" + f.name + "'");
      }
      bool have_blocks = false;
      bool have_latencies = false;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key;
        std::string value;
        if (!SplitKeyValue(tokens[i], &key, &value)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] +
                                        "'");
        }
        if (key == "blocks") {
          BDISK_ASSIGN_OR_RETURN(f.size_blocks, ParseUint(value, line_no));
          have_blocks = true;
        } else if (key == "latencies") {
          BDISK_ASSIGN_OR_RETURN(f.latency_slots,
                                 ParseUintList(value, line_no));
          have_latencies = true;
        } else {
          return LineError(line_no, "unknown gfile attribute '" + key + "'");
        }
      }
      if (!have_blocks || !have_latencies) {
        return LineError(line_no, "gfile needs blocks= and latencies=");
      }
      if (f.size_blocks == 0) {
        return LineError(line_no, "gfile '" + f.name +
                                      "' has zero length; blocks must be "
                                      "positive");
      }
      for (std::uint64_t d : f.latency_slots) {
        if (d == 0) {
          return LineError(line_no, "gfile '" + f.name +
                                        "' has a zero latency bound");
        }
      }
      spec.generalized_files.push_back(std::move(f));
      continue;
    }

    return LineError(line_no, "unknown directive '" + directive + "'");
  }

  if (spec.byte_files.empty() && spec.generalized_files.empty()) {
    return Status::InvalidArgument("spec declares no files");
  }
  if (!spec.byte_files.empty() && !spec.generalized_files.empty()) {
    return Status::InvalidArgument(
        "spec mixes byte-domain 'file' and slot-domain 'gfile' entries; "
        "use one domain per spec");
  }
  if (!spec.byte_files.empty() && spec.channel_bytes_per_second == 0) {
    return Status::InvalidArgument(
        "byte-domain specs need a 'channel <bytes/sec>' line");
  }
  return spec;
}

}  // namespace bdisk::broadcast
