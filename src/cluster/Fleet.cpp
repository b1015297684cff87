//===- cluster/Fleet.cpp - Multi-device fleet and placement ------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "cluster/Fleet.h"

#include "harness/Streaming.h"
#include "support/ErrorHandling.h"

#include <cassert>
#include <limits>

using namespace accel;
using namespace accel::cluster;

size_t Fleet::addDevice(const sim::DeviceSpec &Spec) {
  size_t Idx = Drivers.size();
  for (size_t I = 0; I != Idx; ++I) {
    if (Drivers[I].device() == Spec) {
      Drivers.push_back(Drivers[I]); // deque: Drivers[I] stays put
      MeanSolo.push_back(MeanSolo[I]);
      Rate.push_back(Rate[I]);
      return Idx;
    }
  }
  if (Drivers.empty())
    Drivers.emplace_back(Spec);
  else
    Drivers.emplace_back(Spec, Drivers.front().suite());
  harness::ExperimentDriver &D = Drivers.back();
  double Solo = harness::meanIsolatedBaselineDuration(D);
  double Work = 0;
  for (size_t I = 0; I != D.numKernels(); ++I) {
    for (double C : D.kernel(I).WGCosts)
      Work += C;
  }
  Work /= static_cast<double>(D.numKernels());
  MeanSolo.push_back(Solo);
  Rate.push_back(Solo > 0 ? Work / Solo : 1.0);
  return Idx;
}

double Fleet::meanSoloDurationAcrossFleet() const {
  assert(!MeanSolo.empty() && "empty fleet has no time unit");
  double Sum = 0;
  for (double S : MeanSolo)
    Sum += S;
  return Sum / static_cast<double>(MeanSolo.size());
}

PlacementPolicy::~PlacementPolicy() = default;

void PlacementPolicy::attach(std::vector<double> ServiceRates,
                             const std::vector<bool> &Alive) {
  assert((Alive.empty() || Alive.size() == ServiceRates.size()) &&
         "alive mask must be fleet-sized");
  Loads.assign(ServiceRates.size(), DeviceLoad{});
  for (size_t D = 0; D != ServiceRates.size(); ++D) {
    Loads[D].ServiceRate = ServiceRates[D];
    Loads[D].Alive = Alive.empty() || Alive[D];
  }
  onAttach();
}

void PlacementPolicy::admitTo(size_t Device, double Cost) {
  assert(Device < Loads.size() && Loads[Device].Alive &&
         "admitting to an out-of-service device");
  Loads[Device].OutstandingCost += Cost;
  ++Loads[Device].OutstandingRequests;
  onAdmit(Device, Cost);
}

void PlacementPolicy::completeOn(size_t Device, double DrainedCost,
                                 bool Finished) {
  assert(Device < Loads.size() && "completion on an unknown device");
  Loads[Device].OutstandingCost -= DrainedCost;
  if (Finished) {
    assert(Loads[Device].OutstandingRequests > 0 &&
           "finishing a request the view never admitted");
    --Loads[Device].OutstandingRequests;
  }
  onComplete(Device, DrainedCost, Finished);
}

void PlacementPolicy::withdrawFrom(size_t Device, double RemainingCost) {
  assert(Device < Loads.size() && Loads[Device].OutstandingRequests > 0 &&
         "withdrawing a request the view never admitted");
  Loads[Device].OutstandingCost -= RemainingCost;
  --Loads[Device].OutstandingRequests;
  onWithdraw(Device, RemainingCost);
}

void PlacementPolicy::deviceDown(size_t Device) {
  assert(Device < Loads.size() && "unknown device went down");
  Loads[Device].Alive = false;
  onDeviceDown(Device);
}

void PlacementPolicy::deviceUp(size_t Device) {
  assert(Device < Loads.size() && "unknown device came up");
  Loads[Device].Alive = true;
  onDeviceUp(Device);
}

std::optional<size_t>
PlacementPolicy::suggestMigration(const PlacementRequest & /*Req*/,
                                  size_t /*Current*/) {
  return std::nullopt;
}

namespace {

/// Blind rotation: device (i mod N) serves the i-th placed request.
/// The baseline a heterogeneous fleet punishes — a slow device receives
/// an equal slice of the traffic and backs up. With part of the fleet
/// out of service the cursor skips dead devices (on a fault-free replay
/// the sequence is the classic i mod N). Rotation has side effects, so
/// it never volunteers migrations.
class RoundRobinPlacement : public PlacementPolicy {
public:
  size_t place(const PlacementRequest &) override {
    const std::vector<DeviceLoad> &L = loads();
    for (size_t Probe = 0; Probe != L.size(); ++Probe) {
      size_t D = (Next + Probe) % L.size();
      if (L[D].Alive) {
        Next = D + 1;
        return D;
      }
    }
    accel_unreachable("place() with no device in service");
  }

  const char *name() const override { return "round-robin"; }

protected:
  void onAttach() override { Next = 0; }

private:
  size_t Next = 0;
};

/// Join-shortest-residual-work: the in-service device with the least
/// outstanding thread-cycles wins (ties to the lowest index).
/// Load-aware but speed-blind: a cycle of work on a slow device counts
/// the same as one on a fast device.
class LeastLoadedPlacement : public PlacementPolicy {
public:
  size_t place(const PlacementRequest &) override { return bestOf(loads()); }

  std::optional<size_t> suggestMigration(const PlacementRequest &,
                                         size_t Current) override {
    size_t Best = bestOf(loads());
    if (Best == Current)
      return std::nullopt;
    return Best;
  }

  const char *name() const override { return "least-loaded"; }

private:
  static size_t bestOf(const std::vector<DeviceLoad> &Loads) {
    size_t Best = Loads.size();
    for (size_t I = 0; I != Loads.size(); ++I) {
      if (!Loads[I].Alive)
        continue;
      if (Best == Loads.size() ||
          Loads[I].OutstandingCost < Loads[Best].OutstandingCost)
        Best = I;
    }
    assert(Best != Loads.size() && "no device in service");
    return Best;
  }
};

/// Join-shortest-expected-completion (Gavel-style): estimate when each
/// in-service device would finish the request — its outstanding work
/// divided by its measured service rate, plus the request's own
/// isolated duration on that device — and place on the earliest (ties
/// to the lowest index). A device half as fast sees its backlog
/// weighted double, so it is handed proportionally less traffic and the
/// fleet-wide fair shares survive heterogeneity. Migration prices the
/// remaining range the same way (the harness scales the solo estimates
/// by the unexecuted fraction).
class HeterogeneityAwarePlacement : public PlacementPolicy {
public:
  size_t place(const PlacementRequest &Req) override {
    return bestOf(loads(), Req);
  }

  std::optional<size_t> suggestMigration(const PlacementRequest &Req,
                                         size_t Current) override {
    size_t Best = bestOf(loads(), Req);
    if (Best == Current)
      return std::nullopt;
    return Best;
  }

  const char *name() const override { return "heterogeneity-aware"; }

private:
  static size_t bestOf(const std::vector<DeviceLoad> &Loads,
                       const PlacementRequest &Req) {
    size_t Best = Loads.size();
    double BestTime = std::numeric_limits<double>::infinity();
    for (size_t I = 0; I != Loads.size(); ++I) {
      const DeviceLoad &L = Loads[I];
      if (!L.Alive)
        continue;
      double Rate = L.ServiceRate > 0 ? L.ServiceRate : 1.0;
      double Est = L.OutstandingCost / Rate + Req.soloOn(I);
      if (Est < BestTime) {
        Best = I;
        BestTime = Est;
      }
    }
    assert(Best != Loads.size() && "no device in service");
    return Best;
  }
};

} // namespace

std::unique_ptr<PlacementPolicy>
cluster::makePlacementPolicy(PlacementKind Kind) {
  switch (Kind) {
  case PlacementKind::RoundRobin:
    return std::make_unique<RoundRobinPlacement>();
  case PlacementKind::LeastLoaded:
    return std::make_unique<LeastLoadedPlacement>();
  case PlacementKind::HeterogeneityAware:
    return std::make_unique<HeterogeneityAwarePlacement>();
  }
  accel_unreachable("bad placement kind");
}
