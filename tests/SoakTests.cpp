//===- tests/SoakTests.cpp - Long-lived components in bounded memory -------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Soaks of the two long-lived components every serving loop is built
/// on: one sim::EngineSession and one accelos::Runtime must run in
/// memory that tracks their active work, not everything they ever ran.
/// The binary replaces global operator new/delete to count live heap
/// bytes, so each test compares the live heap at two points of one run.
///
//===----------------------------------------------------------------------===//

#include "accelos/ProxyCL.h"
#include "accelos/Runtime.h"
#include "sim/DeviceSpec.h"
#include "sim/Engine.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

namespace {
/// Live bytes and allocations of every global operator new in this
/// binary.
std::atomic<int64_t> LiveBytes{0};
std::atomic<uint64_t> Allocations{0};
/// Each block starts with its size, padded to keep malloc's alignment.
constexpr std::size_t Header = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
} // namespace

// Out of line, so no caller sees malloc and free paired with new/delete.
[[gnu::noinline]] void *operator new(std::size_t Size) {
  if (void *P = std::malloc(Size + Header)) {
    std::memcpy(P, &Size, sizeof Size);
    ++Allocations;
    LiveBytes += static_cast<int64_t>(Size);
    return static_cast<char *>(P) + Header;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept {
  if (P == nullptr)
    return;
  char *Block = static_cast<char *>(P) - Header;
  std::size_t Size = 0;
  std::memcpy(&Size, Block, sizeof Size);
  LiveBytes -= static_cast<int64_t>(Size);
  std::free(Block);
}
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  ::operator delete(P);
}

using namespace accel;

namespace {

//===----------------------------------------------------------------------===//
// EngineSession
//===----------------------------------------------------------------------===//

/// A closed loop on one session: each client relaunches its view-mode
/// kernel the moment the previous launch completes, as the serving loops
/// do. Clients differ in size, so launches finish out of admission order
/// and an oversubscribed device queues some of them.
class EngineClosedLoop {
public:
  static constexpr int Clients = 24;

  EngineClosedLoop()
      : Session(sim::DeviceSpec::nvidiaK20m()), Costs(64, 3000.0) {
    for (int C = 0; C != Clients; ++C)
      launch(C);
    Session.admitFrom(LaunchBuf);
  }

  /// Runs advance/admit cycles until \p Target launches were admitted.
  void runUntil(uint64_t Target) {
    while (Launched < Target) {
      ASSERT_TRUE(Session.advanceNextEvent(Done)) << "closed loop stalled";
      for (const sim::KernelExecResult &K : Done)
        launch(K.AppId);
      Session.admitFrom(LaunchBuf);
    }
  }

  size_t inFlight() const { return Session.inFlight(); }

private:
  void launch(int Client) {
    sim::KernelLaunchDesc L;
    L.AppId = Client;
    L.ArrivalTime = Session.now();
    L.WGThreads = 512;
    L.RegsPerThread = 16;
    L.Mode = sim::KernelLaunchDesc::ModeKind::WorkQueue;
    L.ViewCosts = Costs.data();
    L.ViewBegin = static_cast<uint64_t>(Client) % 8;
    L.ViewEnd = L.ViewBegin + 2 + 6 * (static_cast<uint64_t>(Client) % 5);
    L.PhysicalWGs = 1 + static_cast<uint64_t>(Client) % 3;
    L.Batch = 2;
    LaunchBuf.push_back(L);
    ++Launched;
  }

  sim::EngineSession Session;
  std::vector<double> Costs;
  std::vector<sim::KernelLaunchDesc> LaunchBuf;
  std::vector<sim::KernelExecResult> Done;
  uint64_t Launched = 0;
};

TEST(SoakTest, EngineSessionHeapIsFlatAcrossLaunches) {
  EngineClosedLoop Loop;
  Loop.runUntil(20'000);
  const int64_t Warm = LiveBytes.load();
  const uint64_t WarmAllocations = Allocations.load();
  Loop.runUntil(200'000);
  // Finished launches' records are recycled: the session holds only its
  // active window, and a warm admit/advance cycle allocates nothing.
  EXPECT_EQ(LiveBytes.load(), Warm);
  EXPECT_EQ(Allocations.load(), WarmAllocations);
  EXPECT_EQ(Loop.inFlight(), static_cast<size_t>(EngineClosedLoop::Clients));
}

//===----------------------------------------------------------------------===//
// Runtime
//===----------------------------------------------------------------------===//

const char *ScaleSource = R"(
  kernel void scale(global float* d, float f) {
    long gid = get_global_id(0);
    d[gid] = d[gid] * f;
  }
)";

TEST(SoakTest, RuntimeHeapIsFlatAcrossRequests) {
  // submit + wait only: no drain() ever runs, so nothing may wait for
  // one to release per-request state.
  constexpr uint64_t N = 64;
  sim::DeviceSpec Spec = sim::DeviceSpec::nvidiaK20m();
  Spec.GlobalMemBytes = 1 << 20;
  ocl::Device Dev(Spec);
  accelos::Runtime RT(Dev);
  accelos::ProxyCL Proxy(RT, 1);
  ocl::Program *P = cantFail(Proxy.createProgram(ScaleSource));
  ocl::Kernel K = cantFail(Proxy.createKernel(*P, "scale"));
  ocl::Buffer B = cantFail(Proxy.createBuffer(N * 4));
  std::vector<float> Init(N, 1.0f);
  cantFail(B.write(Init.data(), N * 4));
  cantFail(Proxy.setKernelArg(K, 0, ocl::KernelArg::buffer(B)));
  cantFail(Proxy.setKernelArg(K, 1, ocl::KernelArg::scalarF32(1.0f)));
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = N;
  Range.LocalSize[0] = 16;

  int64_t Failures = 0;
  auto Run = [&](int64_t Requests) {
    for (int64_t I = 0; I != Requests; ++I) {
      Expected<accelos::RequestHandle> H = RT.submit(1, K, Range);
      if (!H || !H->wait())
        ++Failures;
    }
  };
  Run(1'000);
  const int64_t Warm = LiveBytes.load();
  constexpr int64_t Requests = 10'000;
  Run(Requests);
  EXPECT_EQ(Failures, 0);
  EXPECT_EQ(RT.pendingRequests(), 0u);
  // Only the per-id status byte may grow (amortized vector growth).
  EXPECT_LE(LiveBytes.load() - Warm, 4 * Requests);
}

} // namespace
