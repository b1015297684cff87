//===- cluster/Fleet.h - Multi-device fleet and placement -------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet layer: where the paper's runtime fair-shares ONE
/// accelerator, a production serving system shards traffic across many,
/// usually heterogeneous, devices. A cluster::Fleet is a registry of
/// simulated devices — any mix of sim::DeviceSpec::nvidiaK20m(),
/// amdR9295X2(), or custom specs — each carrying its own workload view
/// (harness::ExperimentDriver: isolated durations and launches on that
/// device) over one compiled suite the whole fleet shares, and each
/// served by its own sim::EngineSession + accelos::AdmissionScheduler
/// when the cluster replay (harness::runClusterReplay) drives them on
/// one merged event clock.
///
/// Placement is the new scheduling decision this layer introduces:
/// which device a request runs on. It is pluggable
/// (cluster::PlacementPolicy) with three built-ins:
///
///  - RoundRobin: rotate blindly — the baseline every load balancer
///    starts from, and exactly what heterogeneity punishes (a slow
///    device is handed an equal share of the traffic);
///  - LeastLoaded: join-shortest-residual-work — place on the device
///    with the least outstanding (queued + in-flight) work, measured in
///    thread-cycles;
///  - HeterogeneityAware: normalize the residual work by each device's
///    measured throughput and add the request's own isolated duration
///    *on that device* — join-shortest-expected-completion, the
///    Gavel-style correction (Narayanan et al.): a device half as fast
///    must be handed half the work for the fleet-wide shares to stay
///    fair.
///
/// The interface is lifecycle-aware: the policy is not a stateless
/// oracle handed a snapshot per decision, it is *attached* to the
/// replay and notified of every admission, completion, withdrawal, and
/// device up/down transition. The PlacementPolicy base class maintains
/// the per-device load view (DeviceLoad) incrementally from those
/// notifications — it is the replay's single source of truth for
/// outstanding work — and subclasses observe the same events through
/// protected hooks when they keep extra state. Beyond place(), a policy
/// may also volunteer quantum-boundary migrations through
/// suggestMigration(): the harness consults it when a device's residual
/// backlog diverges from the fleet mean, and half-executed virtual
/// ranges then carry their remaining work groups to the new device.
///
/// Applications never name a device (the Arax-style decoupling): they
/// submit against the fleet, the policy binds the request at arrival
/// time, and the binding is revisited only at quantum-slice boundaries
/// (migration) or when the device leaves the fleet (failover).
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_CLUSTER_FLEET_H
#define ACCEL_CLUSTER_FLEET_H

#include "harness/Experiment.h"
#include "sim/DeviceSpec.h"

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

namespace accel {
namespace cluster {

/// A registry of simulated devices, each with its own workload view
/// over the fleet's one compiled suite. Devices are append-only;
/// drivers and specs are reference-stable once added (the replay keeps
/// pointers into them).
class Fleet {
public:
  /// Adds one device to the fleet: a view of it over the fleet's suite
  /// (compiled when the first device is added), and its mean isolated
  /// (solo) kernel duration — the throughput probe
  /// heterogeneity-aware placement normalizes by. A device whose spec
  /// equals an earlier device's copies that device's view, isolated
  /// durations included, and its probe instead of re-running them.
  /// \returns the device's fleet index.
  size_t addDevice(const sim::DeviceSpec &Spec);

  size_t size() const { return Drivers.size(); }
  bool empty() const { return Drivers.empty(); }

  /// The workload view of device \p I (non-const: isolated durations
  /// are cached lazily).
  harness::ExperimentDriver &driver(size_t I) { return Drivers[I]; }

  const sim::DeviceSpec &device(size_t I) const {
    return Drivers[I].device();
  }

  /// Mean isolated (solo, baseline) duration of the suite on device
  /// \p I: the natural time unit of that device.
  double meanSoloDuration(size_t I) const { return MeanSolo[I]; }

  /// Measured service rate of device \p I in thread-cycles of suite
  /// work per simulation time unit: mean kernel work over mean solo
  /// duration. The ratio between two devices' rates is the
  /// heterogeneity the placement policies reason about.
  double serviceRate(size_t I) const { return Rate[I]; }

  /// Mean of meanSoloDuration over the fleet — the natural time unit
  /// for calibrating cluster-wide arrival rates and round quanta.
  double meanSoloDurationAcrossFleet() const;

private:
  std::deque<harness::ExperimentDriver> Drivers; ///< Reference-stable.
  std::vector<double> MeanSolo;
  std::vector<double> Rate;
};

/// What a placement policy sees of one device. Maintained incrementally
/// by the PlacementPolicy base class from the replay's lifecycle
/// notifications.
struct DeviceLoad {
  /// Thread-cycles of work placed on the device and not yet completed
  /// (queued and in-flight requests' remaining virtual groups).
  double OutstandingCost = 0;
  /// Requests placed and not yet completed.
  size_t OutstandingRequests = 0;
  /// Fleet::serviceRate of the device.
  double ServiceRate = 1.0;
  /// False while the device is out of service (scripted failure, or an
  /// elastic device that has not joined yet). place() and
  /// suggestMigration() must never pick a dead device.
  bool Alive = true;
};

/// One placement decision's input. \c SoloDurations points at a
/// harness-owned, fleet-indexed vector of isolated-duration estimates
/// for THIS request's kernel on each device (scaled down to the
/// remaining virtual range when deciding a migration); it is valid only
/// for the duration of the place()/suggestMigration() call.
struct PlacementRequest {
  int Tenant = 0;
  size_t KernelIdx = 0;
  double ArrivalTime = 0;
  const std::vector<double> *SoloDurations = nullptr;

  /// Estimated isolated duration of the request's remaining work on
  /// device \p Device.
  double soloOn(size_t Device) const {
    return SoloDurations ? (*SoloDurations)[Device] : 0.0;
  }
};

/// Pluggable, lifecycle-aware dispatch: which device a request runs on.
///
/// The replay drives the non-virtual lifecycle methods (attach /
/// admitTo / completeOn / withdrawFrom / deviceDown / deviceUp); the
/// base class applies each event to its private DeviceLoad view and
/// then forwards to the matching protected hook, so every policy prices
/// decisions off the same incrementally-maintained numbers. Decisions
/// are the virtual place() / suggestMigration() pair. Policies may keep
/// private state across decisions (e.g. a rotation cursor); attach()
/// reinitializes everything, so the same policy object replays
/// deterministically.
class PlacementPolicy {
public:
  virtual ~PlacementPolicy();

  /// Binds the policy to a fleet at replay start: resets the load view
  /// to one entry per device with the given service rates, all costs
  /// zero. \p Alive marks devices in service at time zero (empty =
  /// all); an elastic device scripted to join later starts dead. Calls
  /// onAttach() for subclass state.
  void attach(std::vector<double> ServiceRates,
              const std::vector<bool> &Alive = {});

  /// A request carrying \p Cost thread-cycles of remaining work was
  /// bound to \p Device (initial placement, failover, or migration).
  void admitTo(size_t Device, double Cost);

  /// A quantum slice of a request on \p Device completed, draining
  /// \p DrainedCost thread-cycles; \p Finished is true when it was the
  /// request's last slice.
  void completeOn(size_t Device, double DrainedCost, bool Finished);

  /// A request with \p RemainingCost thread-cycles left was unbound
  /// from \p Device (about to fail over, migrate, or be lost).
  void withdrawFrom(size_t Device, double RemainingCost);

  /// \p Device left the fleet (scripted failure / scale-down). Its
  /// outstanding work is withdrawn separately, one request at a time.
  void deviceDown(size_t Device);

  /// \p Device (re)joined the fleet with no outstanding work.
  void deviceUp(size_t Device);

  /// The load view: one entry per device, indexed by fleet position.
  const std::vector<DeviceLoad> &loads() const { return Loads; }

  /// Picks an in-service fleet index for \p Req. The view always
  /// contains at least one Alive device when this is called.
  virtual size_t place(const PlacementRequest &Req) = 0;

  /// Asked at a quantum-slice boundary when \p Current's backlog has
  /// diverged from the fleet mean: propose an in-service device for the
  /// request's remaining range, or std::nullopt to stay put. Must be
  /// side-effect free (the harness may discard the suggestion). The
  /// default never migrates.
  virtual std::optional<size_t> suggestMigration(const PlacementRequest &Req,
                                                 size_t Current);

  virtual const char *name() const = 0;

protected:
  /// Subclass hooks, called after the base view reflects the event.
  virtual void onAttach() {}
  virtual void onAdmit(size_t /*Device*/, double /*Cost*/) {}
  virtual void onComplete(size_t /*Device*/, double /*DrainedCost*/,
                          bool /*Finished*/) {}
  virtual void onWithdraw(size_t /*Device*/, double /*RemainingCost*/) {}
  virtual void onDeviceDown(size_t /*Device*/) {}
  virtual void onDeviceUp(size_t /*Device*/) {}

private:
  std::vector<DeviceLoad> Loads;
};

/// The built-in policies.
enum class PlacementKind {
  RoundRobin,
  LeastLoaded,
  HeterogeneityAware,
};

/// \returns a fresh instance of the built-in policy \p Kind.
std::unique_ptr<PlacementPolicy> makePlacementPolicy(PlacementKind Kind);

} // namespace cluster
} // namespace accel

#endif // ACCEL_CLUSTER_FLEET_H
