//===- accelos/ProxyCL.h - Application-side interception shim ---*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ProxyCL (level 2 of the paper's Fig. 5): the library that replaces
/// standard OpenCL inside each application. Every call is marshalled as
/// a message over a per-application channel to the accelOS runtime —
/// the paper uses interprocess shared memory [26]; here the channel is
/// in-process but the message accounting is kept so the interception
/// cost model stays visible. Applications never see the transformation
/// or the scheduling: the API is shaped like the standard one.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_ACCELOS_PROXYCL_H
#define ACCEL_ACCELOS_PROXYCL_H

#include "accelos/Runtime.h"

#include <cstdint>
#include <string>

namespace accel {
namespace accelos {

/// Message counters of one application's channel to accelOS.
struct ChannelStats {
  uint64_t Messages = 0;
  uint64_t PayloadBytes = 0;
};

/// The per-application OpenCL facade.
class ProxyCL {
public:
  ProxyCL(Runtime &RT, int AppId) : RT(&RT), AppId(AppId) {}

  int appId() const { return AppId; }
  const ChannelStats &channel() const { return Stats; }

  /// clCreateProgramWithSource + clBuildProgram: intercepted, routed to
  /// the JIT compiler (FSM path (a)).
  Expected<ocl::Program *> createProgram(const std::string &Source) {
    send(Source.size());
    return RT->createProgram(AppId, Source);
  }

  /// clCreateKernel: passthrough (FSM path (c)).
  Expected<ocl::Kernel> createKernel(ocl::Program &Prog,
                                     const std::string &Name) {
    send(Name.size());
    RT->otherRequest();
    return ocl::Kernel::create(Prog, Name);
  }

  /// clCreateBuffer: passthrough, but accounted by the memory manager
  /// which may pause this application.
  Expected<ocl::Buffer> createBuffer(uint64_t Size) {
    send(sizeof(Size));
    RT->otherRequest();
    return RT->memory().allocate(AppId, Size);
  }

  /// clReleaseMemObject: tells the memory manager space was freed. The
  /// buffer is moved in, and its destructor returns the storage to the
  /// device when the call ends.
  void releaseBuffer(ocl::Buffer) {
    send(sizeof(uint64_t));
    RT->otherRequest();
    RT->memory().released();
  }

  /// clSetKernelArg: passthrough.
  Error setKernelArg(ocl::Kernel &K, unsigned Index, ocl::KernelArg Arg) {
    send(sizeof(Arg));
    RT->otherRequest();
    return K.setArg(Index, Arg);
  }

  /// clEnqueueNDRangeKernel: intercepted, routed to the Kernel
  /// Scheduler (FSM path (b)).
  Error enqueueNDRange(ocl::Kernel &K, const kir::NDRangeCfg &Range) {
    send(sizeof(Range));
    return RT->enqueueKernel(AppId, K, Range);
  }

  /// The async form of enqueueNDRange (Arax-style client API): the
  /// request is admitted as an arrival event, the returned handle
  /// exposes status()/wait(), and \p Cb (optional) fires on completion.
  /// Safe to call from this application's own producer thread — each
  /// ProxyCL owns its channel counters, and the runtime's submission
  /// path is mutex-guarded.
  Expected<RequestHandle> submitNDRange(ocl::Kernel &K,
                                        const kir::NDRangeCfg &Range,
                                        CompletionCallback Cb = nullptr) {
    send(sizeof(Range));
    return RT->submit(AppId, K, Range, std::move(Cb));
  }

  /// submitNDRange with an explicit arrival time (scripted traces).
  Expected<RequestHandle> submitNDRangeAt(ocl::Kernel &K,
                                          const kir::NDRangeCfg &Range,
                                          double At,
                                          CompletionCallback Cb = nullptr) {
    send(sizeof(Range));
    return RT->submitAt(AppId, K, Range, At, std::move(Cb));
  }

private:
  void send(uint64_t Payload) {
    ++Stats.Messages;
    Stats.PayloadBytes += Payload;
  }

  Runtime *RT;
  int AppId;
  ChannelStats Stats;
};

} // namespace accelos
} // namespace accel

#endif // ACCEL_ACCELOS_PROXYCL_H
