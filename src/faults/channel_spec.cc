#include "faults/channel_spec.h"

#include <map>
#include <vector>

#include "runtime/flags.h"

namespace bdisk::faults {

namespace {

/// Splits `text` on `sep` (no escaping; empty pieces preserved).
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t pos = text.find(sep, begin);
    if (pos == std::string::npos) {
      out.push_back(text.substr(begin));
      return out;
    }
    out.push_back(text.substr(begin, pos - begin));
    begin = pos + 1;
  }
}

/// Key-value arguments of one model term, with type- and range-checked
/// extraction and unknown-key detection.
class ModelArgs {
 public:
  static Result<ModelArgs> Parse(const std::string& model,
                                 const std::vector<std::string>& kvs) {
    ModelArgs args(model);
    for (const std::string& kv : kvs) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size()) {
        return Status::InvalidArgument("channel spec: expected key=value in '" +
                                       model + "', got '" + kv + "'");
      }
      const std::string key = kv.substr(0, eq);
      if (!args.values_.emplace(key, kv.substr(eq + 1)).second) {
        return Status::InvalidArgument("channel spec: duplicate key '" + key +
                                       "' in '" + model + "'");
      }
    }
    return args;
  }

  Result<double> Probability(const std::string& key, double fallback) {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_.push_back(key);
    double value = 0.0;
    if (!runtime::ParseDoubleToken(it->second.c_str(), &value) ||
        value < 0.0 || value > 1.0) {
      return Status::InvalidArgument("channel spec: '" + key + "=" +
                                     it->second + "' in '" + model_ +
                                     "' is not a probability in [0, 1]");
    }
    return value;
  }

  Result<std::uint64_t> Uint(const std::string& key, std::uint64_t fallback) {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_.push_back(key);
    std::uint64_t value = 0;
    if (!runtime::ParseUint64Token(it->second.c_str(), &value)) {
      return Status::InvalidArgument("channel spec: '" + key + "=" +
                                     it->second + "' in '" + model_ +
                                     "' is not a 64-bit non-negative integer");
    }
    return value;
  }

  /// Fails if any supplied key was never consumed (typo detection).
  Status CheckAllConsumed() const {
    for (const auto& [key, value] : values_) {
      bool used = false;
      for (const std::string& c : consumed_) {
        if (c == key) used = true;
      }
      if (!used) {
        return Status::InvalidArgument("channel spec: unknown key '" + key +
                                       "' for model '" + model_ + "'");
      }
    }
    return Status::OK();
  }

 private:
  explicit ModelArgs(std::string model) : model_(std::move(model)) {}

  std::string model_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> consumed_;
};

Result<std::unique_ptr<ChannelModel>> ParseOneModel(const std::string& term) {
  const std::size_t colon = term.find(':');
  const std::string name = term.substr(0, colon);
  std::vector<std::string> kvs;
  if (colon != std::string::npos) {
    kvs = Split(term.substr(colon + 1), ',');
  }
  BDISK_ASSIGN_OR_RETURN(ModelArgs args, ModelArgs::Parse(term, kvs));

  std::unique_ptr<ChannelModel> model;
  if (name == "lossless") {
    model = std::make_unique<LosslessChannel>();
  } else if (name == "bernoulli") {
    BDISK_ASSIGN_OR_RETURN(const double p, args.Probability("p", 0.1));
    BDISK_ASSIGN_OR_RETURN(const std::uint64_t seed, args.Uint("seed", 1));
    model = std::make_unique<BernoulliChannel>(p, seed);
  } else if (name == "gilbert") {
    GilbertElliottChannel::Params params;
    BDISK_ASSIGN_OR_RETURN(params.p_good_to_bad,
                           args.Probability("pgb", params.p_good_to_bad));
    BDISK_ASSIGN_OR_RETURN(params.p_bad_to_good,
                           args.Probability("pbg", params.p_bad_to_good));
    BDISK_ASSIGN_OR_RETURN(params.loss_good,
                           args.Probability("lg", params.loss_good));
    BDISK_ASSIGN_OR_RETURN(params.loss_bad,
                           args.Probability("lb", params.loss_bad));
    BDISK_ASSIGN_OR_RETURN(const std::uint64_t seed, args.Uint("seed", 1));
    model = std::make_unique<GilbertElliottChannel>(params, seed);
  } else if (name == "corrupt") {
    BDISK_ASSIGN_OR_RETURN(const double p, args.Probability("p", 0.05));
    BDISK_ASSIGN_OR_RETURN(const std::uint64_t seed, args.Uint("seed", 1));
    model = std::make_unique<CorruptionChannel>(p, seed);
  } else if (name == "outage") {
    BDISK_ASSIGN_OR_RETURN(const std::uint64_t period, args.Uint("period", 0));
    BDISK_ASSIGN_OR_RETURN(const std::uint64_t start, args.Uint("start", 0));
    BDISK_ASSIGN_OR_RETURN(const std::uint64_t len, args.Uint("len", 0));
    model = std::make_unique<OutageChannel>(period, start, len);
  } else {
    return Status::InvalidArgument(
        "channel spec: unknown model '" + name +
        "' (expected lossless, bernoulli, gilbert, corrupt, or outage)");
  }
  BDISK_RETURN_NOT_OK(args.CheckAllConsumed());
  return model;
}

}  // namespace

Result<std::unique_ptr<ChannelModel>> ParseChannelSpec(
    const std::string& spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("channel spec: empty specification");
  }
  std::vector<std::unique_ptr<ChannelModel>> parts;
  for (const std::string& term : Split(spec, '+')) {
    BDISK_ASSIGN_OR_RETURN(std::unique_ptr<ChannelModel> model,
                           ParseOneModel(term));
    parts.push_back(std::move(model));
  }
  if (parts.size() == 1) return std::move(parts.front());
  return std::unique_ptr<ChannelModel>(
      std::make_unique<ComposedChannel>(std::move(parts)));
}

}  // namespace bdisk::faults
