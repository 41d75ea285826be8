#include "obs/trace.h"

#include <cstdio>

#include "common/check.h"
#include "obs/json.h"

namespace bdisk::obs {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kArrival: return "arrival";
    case TraceEventKind::kBlock: return "block";
    case TraceEventKind::kLost: return "lost";
    case TraceEventKind::kCorrupt: return "corrupt";
    case TraceEventKind::kEpoch: return "epoch";
    case TraceEventKind::kDecodeStart: return "decode";
    case TraceEventKind::kIncomplete: return "incomplete";
  }
  return "unknown";
}

std::string TraceTriggerName(std::uint8_t trigger) {
  static constexpr struct { std::uint8_t bit; const char* name; } kBits[] = {
      {kTraceSampled, "sampled"},   {kTraceDeadlineMiss, "deadline_miss"},
      {kTraceUndecodable, "undecodable"}, {kTraceStall, "stall"},
      {kTraceSwap, "swap"},
  };
  std::string out;
  for (const auto& b : kBits) {
    if ((trigger & b.bit) == 0) continue;
    if (!out.empty()) out += '+';
    out += b.name;
  }
  return out.empty() ? "none" : out;
}

void TraceSink::Record(TraceSpan span) {
  BDISK_DCHECK(span.trigger != 0);
  ++recorded_;
  if (options_.flight_recorder_depth == 0) {
    retained_.push_back(std::move(span));
    return;
  }
  const bool anomaly = (span.trigger & ~kTraceSampled) != 0;
  if (anomaly) {
    // Dump the anomaly's causal neighborhood, then the anomaly itself;
    // the ring restarts empty.
    for (TraceSpan& s : ring_) retained_.push_back(std::move(s));
    ring_.clear();
    retained_.push_back(std::move(span));
    return;
  }
  ring_.push_back(std::move(span));
  if (ring_.size() > options_.flight_recorder_depth) {
    ring_.pop_front();
    ++dropped_;
  }
}

void TraceSink::Merge(TraceSink&& other) {
  // Replaying other's survivors through Record reproduces the serial
  // automaton exactly: other's retained log and ring together are its
  // capture subsequence in chronological order, and any span other
  // evicted in-shard had > K non-anomaly successors before the next
  // anomaly — the serial run evicts it on the same grounds.
  const std::uint64_t total = recorded_ + other.recorded_;
  dropped_ += other.dropped_;
  for (TraceSpan& s : other.retained_) Record(std::move(s));
  for (TraceSpan& s : other.ring_) Record(std::move(s));
  recorded_ = total;
  other.retained_.clear();
  other.ring_.clear();
  other.recorded_ = 0;
  other.dropped_ = 0;
}

namespace {

const char* OutcomeName(const TraceSpan& span) {
  if (!span.completed) return "undecodable";
  return span.met_deadline ? "ok" : "deadline_miss";
}

const char* EventCategory(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kBlock: return "rx";
    case TraceEventKind::kLost:
    case TraceEventKind::kCorrupt: return "fault";
    case TraceEventKind::kEpoch: return "swap";
    default: return "span";
  }
}

void BeginEvent(JsonWriter* w, const char* ph, std::uint64_t pid,
                std::uint64_t tid, std::uint64_t ts) {
  w->BeginObject();
  w->Key("ph");
  w->String(ph);
  w->Key("pid");
  w->Uint(pid);
  w->Key("tid");
  w->Uint(tid);
  w->Key("ts");
  w->Uint(ts);
}

void AppendProcessName(std::string* out, bool* first, std::uint64_t pid,
                       const std::string& name) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ph");
  w.String("M");
  w.Key("pid");
  w.Uint(pid);
  w.Key("tid");
  w.Uint(0);
  w.Key("name");
  w.String("process_name");
  w.Key("args");
  w.BeginObject();
  w.Key("name");
  w.String(name);
  w.EndObject();
  w.EndObject();
  *out += *first ? "\n" : ",\n";
  *first = false;
  *out += w.str();
}

void AppendSpan(std::string* out, bool* first, std::uint64_t pid,
                const TraceSpan& span) {
  const std::uint64_t tid = span.request_id;
  {
    JsonWriter w;
    BeginEvent(&w, "X", pid, tid, span.start_slot);
    w.Key("dur");
    w.Uint(span.end_slot - span.start_slot);
    w.Key("name");
    if (span.kind == TraceSpanKind::kRetrieval) {
      w.String("retrieve " + span.file_name);
      w.Key("cat");
      w.String("retrieval");
    } else {
      w.String("interval " + std::to_string(span.request_id));
      w.Key("cat");
      w.String("controller");
    }
    w.Key("args");
    w.BeginObject();
    if (span.kind == TraceSpanKind::kRetrieval) {
      w.Key("request");
      w.Uint(span.request_id);
      w.Key("file");
      w.String(span.file_name);
      w.Key("file_index");
      w.Uint(span.file);
      w.Key("start_slot");
      w.Uint(span.start_slot);
      w.Key("deadline_slots");
      w.Uint(span.deadline_slots);
      w.Key("outcome");
      w.String(OutcomeName(span));
      w.Key("latency");
      w.Uint(span.latency);
      w.Key("stall_slots");
      w.Uint(span.stall_slots);
      w.Key("errors_observed");
      w.Uint(span.errors_observed);
      w.Key("corrupt_detected");
      w.Uint(span.corrupt_detected);
    } else {
      w.Key("interval");
      w.Uint(span.request_id);
      w.Key("swapped");
      w.Bool(span.completed);
    }
    w.Key("trigger");
    w.String(TraceTriggerName(span.trigger));
    w.EndObject();
    w.EndObject();
    *out += *first ? "\n" : ",\n";
    *first = false;
    *out += w.str();
  }
  for (const TraceEvent& event : span.events) {
    JsonWriter w;
    BeginEvent(&w, "i", pid, tid, event.slot);
    w.Key("s");
    w.String("t");
    w.Key("name");
    w.String(TraceEventKindName(event.kind));
    w.Key("cat");
    w.String(EventCategory(event.kind));
    switch (event.kind) {
      case TraceEventKind::kBlock:
      case TraceEventKind::kLost:
      case TraceEventKind::kCorrupt:
        w.Key("args");
        w.BeginObject();
        w.Key("block");
        w.Uint(event.block);
        w.Key("distinct");
        w.Uint(event.distinct);
        w.EndObject();
        break;
      case TraceEventKind::kEpoch:
        w.Key("args");
        w.BeginObject();
        w.Key("epoch");
        w.Uint(event.block);
        w.EndObject();
        break;
      case TraceEventKind::kDecodeStart:
      case TraceEventKind::kIncomplete:
        w.Key("args");
        w.BeginObject();
        w.Key("distinct");
        w.Uint(event.distinct);
        w.EndObject();
        break;
      case TraceEventKind::kArrival:
        break;
    }
    w.EndObject();
    *out += ",\n";
    *out += w.str();
  }
}

}  // namespace

std::string RenderChromeTrace(
    const std::vector<TraceTrack>& tracks,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    BDISK_CHECK(tracks[t].sink != nullptr);
    const std::vector<TraceSpan>& spans = tracks[t].sink->spans();
    bool any_retrieval = false;
    bool any_controller = false;
    for (const TraceSpan& span : spans) {
      (span.kind == TraceSpanKind::kRetrieval ? any_retrieval
                                              : any_controller) = true;
    }
    if (any_retrieval) {
      AppendProcessName(&out, &first, 2 * t, tracks[t].name);
    }
    if (any_controller) {
      AppendProcessName(&out, &first, 2 * t + 1,
                        tracks[t].name + " (controller)");
    }
    for (const TraceSpan& span : spans) {
      const std::uint64_t pid =
          span.kind == TraceSpanKind::kRetrieval ? 2 * t : 2 * t + 1;
      AppendSpan(&out, &first, pid, span);
    }
  }
  out += "\n],\n\"otherData\":";
  {
    JsonWriter w;
    w.BeginObject();
    w.Key("clock");
    w.String("sim-slots-as-us");
    for (const auto& [key, value] : metadata) {
      w.Key(key);
      w.String(value);
    }
    w.EndObject();
    out += w.str();
  }
  out += ",\n\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status WriteChromeTrace(
    const std::vector<TraceTrack>& tracks,
    const std::vector<std::pair<std::string, std::string>>& metadata,
    const std::string& path) {
  const std::string text = RenderChromeTrace(tracks, metadata);
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
    return Status::OK();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open trace output '" + path + "'");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    return Status::Internal("short write to trace output '" + path + "'");
  }
  return Status::OK();
}

}  // namespace bdisk::obs
