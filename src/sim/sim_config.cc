#include "sim/sim_config.h"

namespace spire {

namespace {

// Every field, in declaration order: the key list Keys() declares and
// FromConfig loads.
#define SPIRE_SIM_FIELDS(X)                                                \
  X(duration_epochs) X(pallet_interval) X(min_cases_per_pallet)            \
  X(max_cases_per_pallet) X(items_per_case) X(read_rate)                   \
  X(nonshelf_ticks_per_epoch) X(shelf_period) X(num_shelves)               \
  X(mean_shelf_stay) X(entry_dwell) X(belt_dwell) X(packaging_dwell)       \
  X(exit_dwell) X(packaging_timeout) X(transit_time) X(theft_interval)     \
  X(patrol_reader) X(patrol_dwell) X(transfer_sites) X(transfer_interval)  \
  X(transfer_dwell) X(transfer_transit) X(transfer_round_trips)            \
  X(transfer_cases) X(transfer_items) X(seed)

OptionSpec KeyOf(const char* name, bool value) {
  return BoolOption(name, value);
}
OptionSpec KeyOf(const char* name, double value) {
  return DoubleOption(name, value);
}
template <typename Int>
OptionSpec KeyOf(const char* name, Int value) {
  return IntOption(name, static_cast<std::int64_t>(value));
}

Status Load(const Config& config, const char* key, bool* field) {
  auto r = config.GetBool(key, *field);
  if (r.ok()) *field = r.value();
  return r.status();
}
Status Load(const Config& config, const char* key, double* field) {
  auto r = config.GetDouble(key, *field);
  if (r.ok()) *field = r.value();
  return r.status();
}
template <typename Int>
Status Load(const Config& config, const char* key, Int* field) {
  auto r = config.GetInt(key, static_cast<std::int64_t>(*field));
  if (r.ok()) *field = static_cast<Int>(r.value());
  return r.status();
}

}  // namespace

std::vector<OptionSpec> SimConfig::Keys() {
  const SimConfig defaults;
#define SPIRE_KEY(field) KeyOf(#field, defaults.field),
  return {SPIRE_SIM_FIELDS(SPIRE_KEY)};
#undef SPIRE_KEY
}

Result<SimConfig> SimConfig::FromConfig(const Config& config) {
  return FromConfig(config, SimConfig());
}

Result<SimConfig> SimConfig::FromConfig(const Config& config,
                                        const SimConfig& base) {
  SimConfig out = base;
#define SPIRE_LOAD(field) SPIRE_RETURN_NOT_OK(Load(config, #field, &out.field));
  SPIRE_SIM_FIELDS(SPIRE_LOAD)
#undef SPIRE_LOAD
  SPIRE_RETURN_NOT_OK(out.Validate());
  return out;
}

Status SimConfig::Validate() const {
  if (duration_epochs < 1) {
    return Status::InvalidArgument("duration_epochs must be >= 1");
  }
  if (pallet_interval < 1) {
    return Status::InvalidArgument("pallet_interval must be >= 1");
  }
  if (min_cases_per_pallet < 1 || max_cases_per_pallet < min_cases_per_pallet) {
    return Status::InvalidArgument("invalid cases-per-pallet range");
  }
  if (items_per_case < 0) {
    return Status::InvalidArgument("items_per_case must be >= 0");
  }
  if (read_rate < 0.0 || read_rate > 1.0) {
    return Status::InvalidArgument("read_rate must be in [0, 1]");
  }
  if (nonshelf_ticks_per_epoch < 1) {
    return Status::InvalidArgument("nonshelf_ticks_per_epoch must be >= 1");
  }
  if (shelf_period < 1) {
    return Status::InvalidArgument("shelf_period must be >= 1");
  }
  if (num_shelves < 1) {
    return Status::InvalidArgument("num_shelves must be >= 1");
  }
  if (mean_shelf_stay < 1) {
    return Status::InvalidArgument("mean_shelf_stay must be >= 1");
  }
  if (entry_dwell < 1 || belt_dwell < 1 || packaging_dwell < 1 ||
      exit_dwell < 1) {
    return Status::InvalidArgument("stage dwell times must be >= 1");
  }
  if (transit_time < 0) {
    return Status::InvalidArgument("transit_time must be >= 0");
  }
  if (packaging_timeout < 1) {
    return Status::InvalidArgument("packaging_timeout must be >= 1");
  }
  if (patrol_dwell < 1) {
    return Status::InvalidArgument("patrol_dwell must be >= 1");
  }
  if (theft_interval < 0) {
    return Status::InvalidArgument("theft_interval must be >= 0");
  }
  // 16 real sites is far below the tag space's kEpcMaxSites; the headroom
  // keeps the reserved truck-tag site index (sim/transfer.h) collision-free.
  if (transfer_sites < 1 || transfer_sites > 16) {
    return Status::InvalidArgument("transfer_sites must be in [1, 16]");
  }
  if (transfer_sites > 1) {
    if (transfer_interval < 1) {
      return Status::InvalidArgument("transfer_interval must be >= 1");
    }
    if (transfer_dwell < 1) {
      return Status::InvalidArgument("transfer_dwell must be >= 1");
    }
    if (transfer_transit < 1) {
      return Status::InvalidArgument("transfer_transit must be >= 1");
    }
    if (transfer_round_trips < 1) {
      return Status::InvalidArgument("transfer_round_trips must be >= 1");
    }
    if (transfer_cases < 0 || transfer_items < 0) {
      return Status::InvalidArgument("transfer cargo counts must be >= 0");
    }
  }
  return Status::OK();
}

}  // namespace spire
