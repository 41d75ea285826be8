// A program whose data cycle outgrows 64 bits, for the tests that hold the
// data cycle and every horizon sized from it to saturate or fail rather
// than wrap: program_test.cc, simulation_test.cc and adaptive_test.cc. Each
// test is its own binary, so this is header-only.

#ifndef BDISK_TESTS_PRIME_ROTATION_PROGRAM_H_
#define BDISK_TESTS_PRIME_ROTATION_PROGRAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bdisk/program.h"

namespace bdisk::broadcast {

// `files` files (at most 16) of one block each (m = 1), one slot per file
// per period, file f rotating the f-th prime's count of blocks (2, 3, 5,
// ..., 53). The data cycle is the period times the product of those
// primes: 15 * (2 * ... * 47) still fits in 64 bits, 16 * (2 * ... * 53)
// ~ 5.2e20 does not.
inline Result<BroadcastProgram> PrimeRotationProgram(std::size_t files = 16) {
  constexpr std::uint32_t kPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19,
                                       23, 29, 31, 37, 41, 43, 47, 53};
  std::vector<ProgramFile> program_files;
  std::vector<FileIndex> slots;
  for (std::size_t f = 0; f < files; ++f) {
    program_files.push_back({"F" + std::to_string(f), 1, kPrimes[f], {}});
    slots.push_back(static_cast<FileIndex>(f));
  }
  return BroadcastProgram::Create(std::move(program_files), std::move(slots));
}

}  // namespace bdisk::broadcast

#endif  // BDISK_TESTS_PRIME_ROTATION_PROGRAM_H_
