// Shared plumbing of the pipeline benchmark: clocks, the metric report,
// the in-memory span tracer, the counting block-device decorator and the
// allocation counter. Everything here observes the library from outside:
// it times calls into public functions and wraps public seams
// (store::BlockDevice); nothing reaches into library internals.

#ifndef PIPEBENCH_HARNESS_H_
#define PIPEBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/block_device.h"

namespace pipebench {

// ---------------------------------------------------------------------------
// Clocks and process counters.
// ---------------------------------------------------------------------------

/// Monotonic wall clock, nanoseconds.
std::uint64_t NowNs();
/// CPU time of the whole process (user + sys, all threads), nanoseconds.
std::uint64_t ProcessCpuNs();
/// CPU time of the calling thread, nanoseconds.
std::uint64_t ThreadCpuNs();
/// Peak resident set (VmHWM) in MiB; 0 when unavailable.
double PeakRssMb();
/// Heap allocations made by this process so far (global operator new).
std::uint64_t AllocationCount();

// ---------------------------------------------------------------------------
// Small statistics helpers.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// `total` per op; 0 when there were no ops.
inline double PerOp(double total, double ops) {
  return ops > 0 ? total / ops : 0.0;
}

/// Destroys `*state`, runs `set_up` (returning a Result<T>), appends its
/// wall seconds to `seconds`, and on success stores the result in
/// `*state`. Workloads set up afresh before every round, so the set-up
/// samples spread over the run as the rounds do.
template <typename T, typename SetUp>
bdisk::Status TimedSetUp(std::optional<T>* state, std::vector<double>* seconds,
                         SetUp set_up) {
  state->reset();
  const std::uint64_t t0 = NowNs();
  bdisk::Result<T> result = set_up();
  seconds->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  if (!result.ok()) return result.status();
  state->emplace(std::move(*result));
  return bdisk::Status::OK();
}
/// Per-slot wall times, summarized round by round: a run reports the
/// median over its rounds of each round's p50 and p99, so one round that
/// another tenant's burst slowed does not set the run's tail.
struct SlotTimes {
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::size_t samples = 0;

  /// Summarizes one round's samples (ns) and clears them.
  void AddRound(std::vector<std::uint32_t>* round_ns);
};

/// `count` start slots in [0, window): one per equal stratum of the window,
/// at a seeded offset inside it, in a seeded order. Against i.i.d. uniform
/// starts this keeps the seed-to-seed spread of mean delay and data age
/// small while every start stays random.
std::vector<std::uint64_t> StratifiedStarts(std::size_t count,
                                            std::uint64_t window,
                                            std::uint64_t seed);

// ---------------------------------------------------------------------------
// Command line and report.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for scratch files (store device, span dump).
  std::string work_dir = ".bench_build/pipebench/work";
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's result: the last stdout line is its JSON form.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable notes, printed to stderr before the JSON line.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a correctness failure (sets correct = false) with a reason.
  void Fail(const std::string& why);
  /// Adds a note listing `values` after `label`.
  void NoteSeries(const std::string& label, const std::vector<double>& values);
  std::string ToJson() const;
};

// ---------------------------------------------------------------------------
// Span tracer.
// ---------------------------------------------------------------------------

/// Layers the traced runs attribute time to. The names are the metric
/// prefixes of the per-layer report.
enum class Layer : std::uint8_t {
  kFetch,        // sim: BroadcastServer::FetchTransmission / TransmissionAt
  kStoreRead,    // store: BlockDevice::ReadBlock
  kStoreWrite,   // store: BlockDevice::WriteBlock
  kEncode,       // net: EncodeBlockDatagram / EncodeControlDatagram
  kShim,         // faults: FaultingSocket::SendDatagram (minus its sink)
  kSend,         // net: SocketSink::SendDatagram
  kRecv,         // net: UdpSocket::Recv
  kDecode,       // net: DecodeDatagram
  kOffer,        // sim: ReconstructingClient::OfferEx loop
  kReconstruct,  // ida: ReconstructingClient::Reconstruct
  kPrepare,      // sim.engine: EventShardRunner::Prepare
  kDrain,        // sim.engine: EventShardRunner::Drain
  kCollect,      // sim.engine: EventShardRunner::Collect
  kCount,
};

const char* LayerName(Layer layer);

/// Records spans (name, start, end, parent, request id) around calls into
/// the library. Self time per layer (duration minus the part covered by
/// child spans) is accumulated for every span; the raw spans are kept in
/// memory up to a cap and written out by WriteSpans at the end of a run.
/// Single-threaded.
class Tracer {
 public:
  explicit Tracer(std::size_t keep_limit);

  void Begin(Layer layer, std::uint64_t request);
  void End();

  std::uint64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t count(Layer layer) const {
    return count_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t SelfNsSum() const;
  std::size_t kept() const { return spans_.size(); }

  /// Writes the kept spans as JSON lines; returns false on I/O failure.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint64_t request = 0;
    std::int64_t parent = -1;
    Layer layer = Layer::kFetch;
  };
  struct Frame {
    Layer layer = Layer::kFetch;
    std::uint64_t start = 0;
    std::uint64_t child_ns = 0;
    std::int64_t kept_index = -1;
  };

  std::size_t keep_limit_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::uint64_t self_ns_[static_cast<std::size_t>(Layer::kCount)] = {};
  std::uint64_t count_[static_cast<std::size_t>(Layer::kCount)] = {};
};

/// RAII span; a null tracer makes it free, so traced and untraced runs
/// share one code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Counting block device.
// ---------------------------------------------------------------------------

/// Per-device operation counts.
struct DeviceCounts {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t syncs = 0;
  /// Wall time inside WriteBlock (always measured: writes happen at
  /// set-up and at version commits, never per transmitted block).
  std::uint64_t write_ns = 0;
};

/// A store::BlockDevice decorator that counts every operation and, when a
/// tracer is attached, records a span per read and write. Sync is counted
/// but never forwarded: that is the benchmark's flush policy (README.md),
/// so no durability barrier's latency lands in a measurement.
class CountingDevice final : public bdisk::store::BlockDevice {
 public:
  explicit CountingDevice(std::unique_ptr<bdisk::store::BlockDevice> inner)
      : inner_(std::move(inner)) {}

  std::size_t block_size() const override { return inner_->block_size(); }
  std::uint64_t block_count() const override { return inner_->block_count(); }

  bdisk::store::IoResult ReadBlock(std::uint64_t index, void* out) override;
  bdisk::store::IoResult WriteBlock(std::uint64_t index,
                                    const void* data) override;
  bdisk::store::IoResult Sync() override;

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  const DeviceCounts& counts() const { return counts_; }
  void ResetCounts() { counts_ = DeviceCounts{}; }

 private:
  std::unique_ptr<bdisk::store::BlockDevice> inner_;
  Tracer* tracer_ = nullptr;
  DeviceCounts counts_;
};

// ---------------------------------------------------------------------------
// Timed loops.
// ---------------------------------------------------------------------------

/// Mean wall ns of ida::VerifyChecksum over one stamped block of
/// `block_size` payload bytes, per KiB of payload.
double CrcNsPerKib(std::size_t block_size);

}  // namespace pipebench

#endif  // PIPEBENCH_HARNESS_H_
