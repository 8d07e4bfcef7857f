// Warehouse monitoring: live anomaly (theft/misplacement) alerts.
//
// Runs SPIRE over a warehouse trace with unexpected object removals and
// turns the interpreted event stream into alerts. A Missing event opens a
// *pending* alarm; if the object does not reappear within a grace period
// (it was merely in transit between locations), the alarm is confirmed. At
// the end the detector is scored against the injected thefts.
//
//   ./warehouse_monitoring [key=value ...]    e.g. theft_interval=200
#include <cstdio>
#include <map>

#include "eval/delay.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"

using namespace spire;

int main(int argc, char** argv) {
  SimConfig sim_config;
  sim_config.duration_epochs = 3600;
  sim_config.pallet_interval = 400;
  sim_config.items_per_case = 10;
  sim_config.mean_shelf_stay = 1200;
  sim_config.shelf_period = 30;
  sim_config.theft_interval = 300;  // One theft every 5 minutes.
  sim_config = ApplySimOverrides(ParseSimArgs(argc, argv), sim_config);
  // An object in transit legitimately resides nowhere; only a silence
  // longer than any transit plus a shelf period is alarming.
  const Epoch alarm_grace =
      sim_config.transit_time + 2 * sim_config.shelf_period;

  auto sim = WarehouseSimulator::Create(sim_config);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    return 1;
  }
  WarehouseSimulator& s = *sim.value();

  PipelineOptions options;
  options.inference.theta = 1.5;  // Faster decay: shorter detection delay.
  // Monitor the level-1 stream: level 2 suppresses contained objects'
  // location events, so their reappearances would be invisible here (a
  // level-2 consumer would watch the decompressed stream instead; see
  // examples/compression_roundtrip).
  options.level = CompressionLevel::kLevel1;
  SpirePipeline pipeline(&s.registry(), options);

  struct Pending {
    Epoch since = kNeverEpoch;
    LocationId from = kUnknownLocation;
  };
  EventStream output;
  std::map<ObjectId, Pending> pending;
  std::size_t alarms = 0, transits_filtered = 0, printed = 0;

  auto confirm_due = [&](Epoch now) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (now - it->second.since < alarm_grace) {
        ++it;
        continue;
      }
      ++alarms;
      if (++printed <= 10) {
        std::printf("[t=%5lld] ALERT %s missing from %s since t=%lld\n",
                    static_cast<long long>(now),
                    EpcToString(it->first).c_str(),
                    s.registry().LocationName(it->second.from).c_str(),
                    static_cast<long long>(it->second.since));
      }
      it = pending.erase(it);
    }
  };

  while (!s.Done()) {
    EpochReadings readings = s.Step();
    std::size_t before = output.size();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &output);
    for (std::size_t i = before; i < output.size(); ++i) {
      const Event& event = output[i];
      if (event.type == EventType::kMissing) {
        pending.try_emplace(event.object,
                            Pending{event.start, event.location});
      } else if (event.type == EventType::kStartLocation) {
        // Reappeared: it was a transit, not a theft.
        transits_filtered += pending.erase(event.object);
      }
    }
    confirm_due(s.current_epoch());
  }
  pipeline.Finish(s.current_epoch() + 1, &output);
  s.FinishTruth();

  DelayStats delay = EvaluateDetectionDelay(s.thefts(), output);
  std::printf("\n%zu alarms confirmed; %zu transient disappearances "
              "filtered by the %llds grace\n",
              alarms, transits_filtered,
              static_cast<long long>(alarm_grace));
  std::printf("injected thefts: %zu, detected in the event stream: %zu "
              "(%.0f%%), mean delay %.0f s, median %.0f s\n",
              delay.thefts, delay.detected, 100.0 * delay.DetectionRate(),
              delay.mean_delay, delay.median_delay);
  return 0;
}
