#include "gf/gf_dispatch.h"

#include <cstdio>
#include <cstdlib>

namespace bdisk::gf {

namespace {

using internal::KernelTable;

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
bool CpuHasSsse3() { return __builtin_cpu_supports("ssse3") != 0; }
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }
bool CpuHasGfni() {
  return __builtin_cpu_supports("gfni") != 0 &&
         __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
}
#else
bool CpuHasSsse3() { return false; }
bool CpuHasAvx2() { return false; }
bool CpuHasGfni() { return false; }
#endif

std::vector<const KernelTable*> BuildSupported() {
  std::vector<const KernelTable*> out;
  out.push_back(internal::GenericKernels());
  if (const KernelTable* k = internal::Ssse3Kernels();
      k != nullptr && CpuHasSsse3()) {
    out.push_back(k);
  }
  if (const KernelTable* k = internal::Avx2Kernels();
      k != nullptr && CpuHasAvx2()) {
    out.push_back(k);
  }
  if (const KernelTable* k = internal::GfniKernels();
      k != nullptr && CpuHasGfni()) {
    out.push_back(k);
  }
  // NEON is architecturally guaranteed on AArch64; the getter is non-null
  // exactly when the binary targets it.
  if (const KernelTable* k = internal::NeonKernels(); k != nullptr) {
    out.push_back(k);
  }
  return out;
}

const KernelTable& Select() {
  const auto& supported = Dispatch::Supported();
  const char* env = std::getenv("BDISK_GF_IMPL");
  if (env != nullptr && *env != '\0') {
    if (const KernelTable* k = Dispatch::ByName(env); k != nullptr) return *k;
    std::fprintf(stderr,
                 "bdisk: BDISK_GF_IMPL=%s is unknown or unsupported on this "
                 "host; falling back to %s (supported:",
                 env, supported.back()->name);
    for (const KernelTable* k : supported) std::fprintf(stderr, " %s", k->name);
    std::fprintf(stderr, ")\n");
  }
  return *supported.back();
}

}  // namespace

const std::vector<const internal::KernelTable*>& Dispatch::Supported() {
  static const std::vector<const KernelTable*> kSupported = BuildSupported();
  return kSupported;
}

const internal::KernelTable& Dispatch::Active() {
  static const KernelTable& kActive = Select();
  return kActive;
}

const internal::KernelTable* Dispatch::ByName(std::string_view name) {
  for (const KernelTable* k : Supported()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

}  // namespace bdisk::gf
