//===- tests/Golden.h - Golden-fixture comparison ---------------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one comparison every golden test makes: the produced dump against
/// tests/golden/NAME.golden, byte for byte. A mismatch does not print the
/// two dumps (hundreds of kilobytes for the deep fixtures). It writes the
/// produced one to <build>/golden-out/NAME.golden and reports the first
/// line that differs and the tools/trace_diff.py command that names the
/// first request, in simulated time, where the two replays part. The
/// written file is also what re-emitting a golden on purpose copies.
///
/// A suite that includes this header defines ACCEL_SOURCE_DIR and
/// ACCEL_BINARY_DIR (tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_TESTS_GOLDEN_H
#define ACCEL_TESTS_GOLDEN_H

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace accel {
namespace testutil {

/// \returns success when \p Got equals tests/golden/\p Name.golden byte
/// for byte; otherwise writes \p Got to <build>/golden-out/\p Name.golden
/// and fails with the first differing line and the trace_diff command.
inline ::testing::AssertionResult matchesGolden(const std::string &Name,
                                                const std::string &Got) {
  const std::string File = Name + ".golden";
  const std::string WantPath =
      std::string(ACCEL_SOURCE_DIR) + "/tests/golden/" + File;
  std::ifstream In(WantPath, std::ios::binary);
  if (!In.good())
    return ::testing::AssertionFailure()
           << "golden fixture missing: " << WantPath;
  std::ostringstream WantBuf;
  WantBuf << In.rdbuf();
  const std::string Want = WantBuf.str();
  if (Got == Want)
    return ::testing::AssertionSuccess();

  const std::filesystem::path OutDir =
      std::filesystem::path(ACCEL_BINARY_DIR) / "golden-out";
  const std::string GotPath = (OutDir / File).string();
  std::filesystem::create_directories(OutDir);
  std::ofstream(GotPath, std::ios::binary) << Got;

  // The first line that differs, 1-based; a missing line reads as end
  // of file.
  size_t Common = 0;
  for (size_t N = std::min(Want.size(), Got.size());
       Common != N && Want[Common] == Got[Common];)
    ++Common;
  size_t Line = 1, Pos = 0;
  for (size_t I = 0; I != Common; ++I)
    if (Want[I] == '\n') {
      ++Line;
      Pos = I + 1;
    }
  auto LineAt = [Pos](const std::string &S) -> std::string {
    if (Pos >= S.size())
      return "(end of file)";
    size_t End = S.find('\n', Pos);
    return S.substr(Pos, End == std::string::npos ? End : End - Pos);
  };
  return ::testing::AssertionFailure()
         << File << " differs from the produced dump at line " << Line
         << "\n  golden:   " << LineAt(Want) << "\n  produced: "
         << LineAt(Got) << "\nproduced dump written to " << GotPath
         << "\ncompare: python3 " << ACCEL_SOURCE_DIR
         << "/tools/trace_diff.py " << WantPath << " " << GotPath;
}

} // namespace testutil
} // namespace accel

#endif // ACCEL_TESTS_GOLDEN_H
