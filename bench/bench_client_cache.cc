// E12 (extension) — client cache management on broadcast disks
// (Acharya et al. [1], cited in the paper's Section 1).
//
// Clients access items Zipf-skewed; the server broadcasts a multi-speed
// program whose frequencies only partly track access probabilities (the
// server serves a *population*, individual clients deviate). A client
// cache hides re-access latency; the broadcast-aware PIX policy (evict the
// item with the smallest access-probability / broadcast-frequency ratio)
// should beat LRU, because re-fetching a rarely-broadcast item is far more
// expensive than re-fetching a hot one.

#include <cstdio>
#include <vector>

#include "bdisk/multi_disk.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "faults/channel_model.h"
#include "runtime/flags.h"
#include "sim/cache.h"
#include "sim/simulation.h"

namespace {

using namespace bdisk;             // NOLINT
using namespace bdisk::broadcast;  // NOLINT
using namespace bdisk::sim;        // NOLINT

// Multi-speed program: the first sixth of the items spin fast, the next
// third at half speed, the rest slow — deliberately *not* aligned with
// every client's access skew.
BroadcastProgram BuildServerProgram(std::size_t files) {
  std::vector<DiskSpec> disks(3);
  disks[0].relative_frequency = 4;
  disks[1].relative_frequency = 2;
  disks[2].relative_frequency = 1;
  for (std::size_t i = 0; i < files; ++i) {
    const std::size_t disk = i < files / 6 ? 0 : (i < files / 2 ? 1 : 2);
    disks[disk].files.push_back(
        {"F" + std::to_string(i), 4, 6, {}});
  }
  // Small --files values can leave a disk empty; drop it.
  std::vector<DiskSpec> populated;
  for (DiskSpec& d : disks) {
    if (!d.files.empty()) populated.push_back(std::move(d));
  }
  auto p = BuildMultiDiskProgram(populated);
  if (!p.ok()) std::exit(1);
  return std::move(p->program);
}

double MeanAccessLatency(const BroadcastProgram& program, std::size_t capacity,
                         CachePolicy policy, const ZipfDistribution& zipf,
                         Rng* rng) {
  const faults::LosslessChannel channel;
  Simulator sim(program, channel, 400000);
  ClientCache cache(capacity, policy);

  // Broadcast frequency of each item: transmissions per period.
  std::vector<double> frequency(program.file_count());
  for (FileIndex f = 0; f < program.file_count(); ++f) {
    frequency[f] = static_cast<double>(program.CountOf(f)) /
                   static_cast<double>(program.period());
  }

  RunningStats latency;
  std::uint64_t now = 0;
  const int kAccesses = 4000;
  for (int k = 0; k < kAccesses; ++k) {
    const auto file =
        static_cast<FileIndex>(zipf.Sample(rng->UniformDouble()));
    // Client think time between accesses.
    now += 1 + rng->Uniform(2 * program.period());
    if (now >= 300000) now = rng->Uniform(1000);  // Wrap within horizon.
    if (cache.Lookup(file)) {
      latency.Add(0.0);
      continue;
    }
    ClientRequest req;
    req.file = file;
    req.start_slot = now;
    auto outcome = sim.Retrieve(req);
    if (!outcome.ok() || !outcome->completed) std::exit(1);
    latency.Add(static_cast<double>(outcome->latency));
    now = outcome->completion_slot;
    cache.Insert(file, zipf.ProbabilityOf(file), frequency[file]);
  }
  return latency.mean();
}

}  // namespace

int main(int argc, char** argv) {
  // Workload shape flags (runtime/flags.h): --files N items on the
  // broadcast, --theta X Zipf skew of the client's accesses.
  const auto files = static_cast<std::size_t>(
      runtime::OrExit(runtime::ConsumeUintFlagOnce(&argc, argv, "files", 12)));
  const double theta = runtime::OrExit(
      runtime::ConsumeDoubleFlagOnce(&argc, argv, "theta", 0.95));
  runtime::OrExit(runtime::ExpectPositionals(argc, argv, 0));
  if (files < 2) {
    std::fprintf(stderr, "--files must be >= 2\n");
    return 2;
  }
  const BroadcastProgram program = BuildServerProgram(files);
  const ZipfDistribution zipf(files, theta);

  std::printf("E12 / client cache policies on a multi-speed broadcast "
              "disk\n");
  std::printf("%zu items x 4 blocks (dispersed to 6), period %llu slots, "
              "Zipf(%.2f) access, 4000 accesses per point\n\n",
              files, static_cast<unsigned long long>(program.period()),
              theta);
  std::printf("%-10s %-14s %-14s %-14s\n", "cache", "no cache", "LRU",
              "PIX");
  bool ok = true;
  for (std::size_t capacity : {1u, 2u, 4u, 6u, 8u}) {
    Rng rng_none(1000 + capacity);
    Rng rng_lru(1000 + capacity);
    Rng rng_pix(1000 + capacity);
    const double none =
        MeanAccessLatency(program, 0, CachePolicy::kLru, zipf, &rng_none);
    const double lru =
        MeanAccessLatency(program, capacity, CachePolicy::kLru, zipf,
                          &rng_lru);
    const double pix =
        MeanAccessLatency(program, capacity, CachePolicy::kPix, zipf,
                          &rng_pix);
    std::printf("%-10zu %-14.2f %-14.2f %-14.2f\n", capacity, none, lru,
                pix);
    ok &= lru <= none + 1e-9;
    ok &= pix <= lru * 1.05;  // PIX at least competitive, usually better.
  }
  benchutil::EmitJson("bench_client_cache", "shape_ok", ok ? 1 : 0, 1);
  std::printf("\nshape checks (caching helps; PIX >= LRU within noise): "
              "%s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
