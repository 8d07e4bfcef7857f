#include "sim/sim_config.h"

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>

namespace spire {

namespace {

template <typename T>
OptionSpec KeyOf(const char* name, T value) {
  if constexpr (std::is_same_v<T, bool>) {
    return BoolOption(name, value);
  } else if constexpr (std::is_floating_point_v<T>) {
    return DoubleOption(name, value);
  } else {
    return IntOptionOf(name, value);
  }
}

template <typename T>
void Assign(const Options& options, const char* name, T* field) {
  if (!options.Has(name)) return;
  if constexpr (std::is_same_v<T, bool>) {
    *field = options.Bool(name);
  } else if constexpr (std::is_floating_point_v<T>) {
    *field = options.Double(name);
  } else {
    *field = static_cast<T>(options.Int(name));
  }
}

}  // namespace

std::vector<OptionSpec> SimConfig::Keys() {
  const SimConfig defaults;
#define SPIRE_KEY(field) KeyOf(#field, defaults.field),
  return {SPIRE_SIM_FIELDS(SPIRE_KEY)};
#undef SPIRE_KEY
}

Result<SimConfig> SimConfig::FromOptions(const Options& options,
                                         const SimConfig& base) {
  SimConfig out = base;
#define SPIRE_ASSIGN(field) Assign(options, #field, &out.field);
  SPIRE_SIM_FIELDS(SPIRE_ASSIGN)
#undef SPIRE_ASSIGN
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
  if (min_cases_per_pallet < 1) {
    return Status::InvalidArgument("min_cases_per_pallet must be >= 1");
  }
  if (max_cases_per_pallet < min_cases_per_pallet) {
    return Status::InvalidArgument(
        "max_cases_per_pallet must be >= min_cases_per_pallet");
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
  for (const auto& [name, dwell] :
       std::initializer_list<std::pair<const char*, Epoch>>{
           {"entry_dwell", entry_dwell},
           {"belt_dwell", belt_dwell},
           {"packaging_dwell", packaging_dwell},
           {"exit_dwell", exit_dwell}}) {
    if (dwell < 1) {
      return Status::InvalidArgument(std::string(name) + " must be >= 1");
    }
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
    if (transfer_cases < 0) {
      return Status::InvalidArgument("transfer_cases must be >= 0");
    }
    if (transfer_items < 0) {
      return Status::InvalidArgument("transfer_items must be >= 0");
    }
  }
  return Status::OK();
}

Options ParseSimArgs(int argc, char** argv,
                     const std::vector<OptionSpec>& keys) {
  std::vector<OptionSpec> table = keys;
  for (OptionSpec& key : SimConfig::Keys()) table.push_back(std::move(key));
  auto given = Config::FromArgs(argc, argv);
  Result<Options> options =
      given.ok() ? Options::Parse(table, given.value())
                 : Result<Options>(given.status());
  if (!options.ok()) {
    std::string usage;
    for (const OptionSpec& key : keys) usage += " [" + FormatOption(key) + "]";
    std::fprintf(stderr, "%s\nusage: %s%s [<SimConfig key>=value ...]\n",
                 options.status().ToString().c_str(), argv[0], usage.c_str());
    std::exit(1);
  }
  return std::move(options).value();
}

SimConfig ApplySimOverrides(const Options& options, const SimConfig& base) {
  auto config = SimConfig::FromOptions(options, base);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    std::exit(1);
  }
  return config.value();
}

}  // namespace spire
