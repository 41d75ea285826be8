#include "harness.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

#include "common/random.h"
#include "ida/block.h"

// ---------------------------------------------------------------------------
// Allocation counter: the benchmark binary replaces the global operator new
// so the traced replay can report allocations per datagram.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pipebench {

namespace {

std::uint64_t ClockNs(clockid_t clock) {
  struct timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// JSON number with all its digits (never NaN/inf: those become 0).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

std::uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void SlotTimes::AddRound(std::vector<std::uint32_t>* round_ns) {
  if (round_ns->empty()) return;
  const auto quantile_us = [round_ns](double q) {
    const std::size_t k = static_cast<std::size_t>(
        q * static_cast<double>(round_ns->size() - 1));
    std::nth_element(round_ns->begin(), round_ns->begin() + k,
                     round_ns->end());
    return static_cast<double>((*round_ns)[k]) / 1e3;
  };
  p50_us.push_back(quantile_us(0.50));
  p99_us.push_back(quantile_us(0.99));
  samples += round_ns->size();
  round_ns->clear();
}

std::vector<std::uint64_t> StratifiedStarts(std::size_t count,
                                            std::uint64_t window,
                                            std::uint64_t seed) {
  bdisk::Rng rng(seed * 0xD1B54A32D192ED03ULL + 7);
  std::vector<std::uint64_t> stratum(count);
  for (std::size_t i = 0; i < count; ++i) stratum[i] = i;
  for (std::size_t i = count; i > 1; --i) {
    std::swap(stratum[i - 1], stratum[rng.Uniform(i)]);
  }
  std::vector<std::uint64_t> starts(count);
  for (std::size_t i = 0; i < count; ++i) {
    starts[i] = (stratum[i] * window + rng.Uniform(window)) / count;
  }
  return starts;
}

void Report::Fail(const std::string& why) {
  correct = false;
  const std::string note = "CHECK FAILED: " + why;
  if (std::find(notes.begin(), notes.end(), note) == notes.end()) {
    notes.push_back(note);
  }
}

void Report::NoteSeries(const std::string& label,
                        const std::vector<double>& values) {
  std::ostringstream out;
  out << label << ":";
  for (const double v : values) out << " " << v;
  notes.push_back(out.str());
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(metrics[i].name) << ": {\"value\": "
        << JsonNumber(metrics[i].value)
        << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kFetch: return "sim.fetch";
    case Layer::kStoreRead: return "store.read";
    case Layer::kStoreWrite: return "store.write";
    case Layer::kEncode: return "net.encode";
    case Layer::kShim: return "faults.shim";
    case Layer::kSend: return "net.send";
    case Layer::kRecv: return "net.recv";
    case Layer::kDecode: return "net.decode";
    case Layer::kOffer: return "sim.offer";
    case Layer::kReconstruct: return "ida.reconstruct";
    case Layer::kPrepare: return "sim.engine.prepare";
    case Layer::kDrain: return "sim.engine.drain";
    case Layer::kCollect: return "sim.engine.collect";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t keep_limit) : keep_limit_(keep_limit) {
  spans_.reserve(keep_limit_);
  stack_.reserve(16);
}

void Tracer::Begin(Layer layer, std::uint64_t request) {
  Frame frame;
  frame.layer = layer;
  if (spans_.size() < keep_limit_) {
    Span span;
    span.layer = layer;
    span.request = request;
    span.parent = stack_.empty() ? -1 : stack_.back().kept_index;
    frame.kept_index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(span);
  }
  frame.start = NowNs();
  if (frame.kept_index >= 0) spans_[frame.kept_index].start = frame.start;
  stack_.push_back(frame);
}

void Tracer::End() {
  const std::uint64_t end = NowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end - frame.start;
  const std::size_t i = static_cast<std::size_t>(frame.layer);
  self_ns_[i] += duration - std::min(duration, frame.child_ns);
  ++count_[i];
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.kept_index >= 0) spans_[frame.kept_index].end = end;
}

std::uint64_t Tracer::SelfNsSum() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : self_ns_) sum += v;
  return sum;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%lld,\"request\":%llu}\n",
                 i, LayerName(s.layer),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

bdisk::store::IoResult CountingDevice::ReadBlock(std::uint64_t index,
                                                 void* out) {
  ++counts_.reads;
  ScopedSpan span(tracer_, Layer::kStoreRead);
  return inner_->ReadBlock(index, out);
}

bdisk::store::IoResult CountingDevice::WriteBlock(std::uint64_t index,
                                                  const void* data) {
  ++counts_.writes;
  ScopedSpan span(tracer_, Layer::kStoreWrite);
  const std::uint64_t t0 = NowNs();
  bdisk::store::IoResult r = inner_->WriteBlock(index, data);
  counts_.write_ns += NowNs() - t0;
  return r;
}

bdisk::store::IoResult CountingDevice::Sync() {
  ++counts_.syncs;
  return bdisk::store::IoResult::Ok();
}

double CrcNsPerKib(std::size_t block_size) {
  bdisk::ida::Block block;
  block.header.file_id = 1;
  block.header.reconstruct_threshold = 1;
  block.header.total_blocks = 1;
  block.payload.resize(block_size);
  bdisk::Rng rng(11);
  for (auto& b : block.payload) b = static_cast<std::uint8_t>(rng.Uniform(256));
  bdisk::ida::StampChecksum(&block);
  // Enough iterations for ~10 ms at a byte-serial CRC rate.
  const std::uint64_t iters =
      std::max<std::uint64_t>(16, (8ull << 20) / std::max<std::size_t>(
                                                     block_size, 1));
  std::uint64_t valid = 0;
  const std::uint64_t t0 = NowNs();
  for (std::uint64_t i = 0; i < iters; ++i) {
    valid += bdisk::ida::VerifyChecksum(block) ==
             bdisk::ida::ChecksumState::kValid;
  }
  const std::uint64_t elapsed = NowNs() - t0;
  if (valid != iters) return 0.0;
  return static_cast<double>(elapsed) / static_cast<double>(iters) /
         (static_cast<double>(block_size) / 1024.0);
}

}  // namespace pipebench
