// Simulation parameters (Table II of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/types.h"

namespace spire {

/// Every SimConfig field, in declaration order: the one list behind
/// SimConfig::Keys(), SimConfig::FromOptions and the repro-file writer.
#define SPIRE_SIM_FIELDS(X)                                                \
  X(duration_epochs) X(pallet_interval) X(min_cases_per_pallet)            \
  X(max_cases_per_pallet) X(items_per_case) X(read_rate)                   \
  X(nonshelf_ticks_per_epoch) X(shelf_period) X(num_shelves)               \
  X(mean_shelf_stay) X(entry_dwell) X(belt_dwell) X(packaging_dwell)       \
  X(exit_dwell) X(packaging_timeout) X(transit_time) X(theft_interval)     \
  X(patrol_reader) X(patrol_dwell) X(transfer_sites) X(transfer_interval)  \
  X(transfer_dwell) X(transfer_transit) X(transfer_round_trips)            \
  X(transfer_cases) X(transfer_items) X(seed)

/// All knobs of the warehouse trace generator. Defaults follow the paper's
/// accuracy experiments (Section VI-B): 6 pallets injected per hour, 5 cases
/// per pallet, 20 items per case, 1-hour average shelving period, 3-hour
/// simulation, read rate 0.85, shelf readers once per minute, non-shelf
/// readers every epoch (2 interrogations per second).
struct SimConfig {
  /// Total simulated epochs (1 epoch = 1 second). Paper: 3-24 hours.
  Epoch duration_epochs = 3 * 3600;

  /// A new pallet enters every `pallet_interval` epochs. Paper: 1/4s-600s.
  Epoch pallet_interval = 600;

  /// Cases per arriving pallet, uniform in [min, max]. Paper: 5-8.
  int min_cases_per_pallet = 5;
  int max_cases_per_pallet = 5;

  /// Items per case. Paper: 20.
  int items_per_case = 20;

  /// Probability that a present tag responds to one interrogation.
  /// Paper: 0.5-1, default 0.85.
  double read_rate = 0.85;

  /// Non-shelf readers interrogate this many times per epoch. Paper: 2/sec.
  int nonshelf_ticks_per_epoch = 2;

  /// Shelf readers interrogate once every `shelf_period` epochs.
  /// Paper: 1/sec to 1/min, default 1/min.
  Epoch shelf_period = 60;

  /// Number of distinct shelf locations cases are spread over.
  int num_shelves = 8;

  /// Average shelving period in epochs (uniform in [0.5x, 1.5x]).
  /// Paper: ~1 hour.
  Epoch mean_shelf_stay = 3600;

  /// Dwell times (epochs) in the non-shelf stages.
  Epoch entry_dwell = 10;
  Epoch belt_dwell = 4;
  Epoch packaging_dwell = 30;
  Epoch exit_dwell = 4;

  /// An under-filled outgoing pallet is sealed anyway once its first case
  /// has waited this long in the packaging area (keeps sparse traffic
  /// flowing; a full batch seals immediately).
  Epoch packaging_timeout = 900;

  /// Travel time between consecutive stages; objects in transit are at the
  /// unknown location and unreadable.
  Epoch transit_time = 5;

  /// Unexpected removals (theft / misplacement): one stolen object every
  /// `theft_interval` epochs; 0 disables. Paper (Expt 4): every 100 s.
  Epoch theft_interval = 0;

  /// Deploy a mobile reader patrolling all shelves (the paper's future-work
  /// extension), dwelling `patrol_dwell` epochs per shelf and reading every
  /// epoch while there. Off by default.
  bool patrol_reader = false;
  Epoch patrol_dwell = 10;

  /// Cross-site truck transfers (sim/transfer.h). With `transfer_sites`
  /// >= 2, BuildTransferTrace runs that many independent warehouses and
  /// overlays trucks that carry a closed pallet group from one site's
  /// outgoing belt to the next site's entry door. 1 disables transfers.
  int transfer_sites = 1;

  /// A new truck enters service every `transfer_interval` epochs.
  Epoch transfer_interval = 120;

  /// Epochs a truck spends being loaded at the outgoing belt (readings
  /// before departure) and unloaded at the entry door (readings after
  /// arrival); also the parking gap between consecutive legs.
  Epoch transfer_dwell = 4;

  /// Epochs in transit between sites. Must be >= 1: a handoff has to
  /// arrive strictly after it departs so the distributed feed protocol can
  /// forward the captured state ahead of the arrival epoch.
  Epoch transfer_transit = 5;

  /// Round trips per truck; each round trip is two legs.
  int transfer_round_trips = 1;

  /// Truck cargo: one pallet carrying `transfer_cases` cases with
  /// `transfer_items` items each.
  int transfer_cases = 2;
  int transfer_items = 3;

  /// RNG seed; identical seeds reproduce identical traces.
  std::uint64_t seed = 42;

  /// Every field above as a `key=value` option named after it, defaulted
  /// from SimConfig{} and bounded by the field's type (SPIRE_SIM_FIELDS).
  static std::vector<OptionSpec> Keys();

  /// `base` with every Keys() field that `options` was given set to its
  /// value, then validated. Parsed against Keys(), each value fits its
  /// field's type and is stored unchanged.
  static Result<SimConfig> FromOptions(const Options& options,
                                       const SimConfig& base);

  /// Sanity-checks ranges.
  Status Validate() const;
};

/// Parses a command line's `key=value` arguments (argv[1..argc)) against
/// `keys` plus SimConfig::Keys(). An unknown, malformed or out-of-range key
/// prints its name and a usage line to stderr and exits with status 1.
Options ParseSimArgs(int argc, char** argv,
                     const std::vector<OptionSpec>& keys = {});

/// SimConfig::FromOptions(options, base); prints the reason and exits with
/// status 1 when it fails.
SimConfig ApplySimOverrides(const Options& options, const SimConfig& base);

}  // namespace spire
