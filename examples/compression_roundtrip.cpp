// Compression round trip: level-2 output, on-demand decompression, and a
// point query against the reconstructed stream.
//
// Demonstrates the Section V workflow: SPIRE emits a level-2 stream (child
// locations suppressed while containment is stable); a query processor
// front end decompresses it back to a queriable level-1 stream; a "where
// was object X at time T" query is answered from the reconstruction and
// verified against the simulator's ground truth.
//
//   ./compression_roundtrip [key=value ...]
#include <cstdio>
#include <map>

#include "compress/decompress.h"
#include "compress/well_formed.h"
#include "eval/event_accuracy.h"
#include "eval/size_accounting.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"

using namespace spire;

namespace {

/// Answers resides(object, ?, epoch) from a folded level-1 stream.
LocationId LocationAt(const std::vector<RangedEvent>& folded, ObjectId object,
                      Epoch epoch) {
  for (const RangedEvent& event : folded) {
    if (event.type != EventType::kStartLocation || event.object != object) {
      continue;
    }
    if (event.start <= epoch && epoch < event.end) return event.location;
  }
  return kUnknownLocation;
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig sim_config;
  sim_config.duration_epochs = 2400;
  sim_config.pallet_interval = 400;
  sim_config.items_per_case = 8;
  sim_config.mean_shelf_stay = 800;
  sim_config.shelf_period = 30;
  sim_config = ApplySimOverrides(ParseSimArgs(argc, argv), sim_config);

  auto sim = WarehouseSimulator::Create(sim_config);
  WarehouseSimulator& s = *sim.value();
  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  SpirePipeline pipeline(&s.registry(), options);

  // Record the true location of a probe object at a probe time, mid-trace.
  EventStream level2;
  std::map<Epoch, std::map<ObjectId, LocationId>> probes;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &level2);
    if (s.current_epoch() % 600 == 599) {
      auto& snapshot = probes[s.current_epoch()];
      for (const auto& [id, state] : s.world().objects()) {
        snapshot[id] = state.location;
      }
    }
  }
  pipeline.Finish(s.current_epoch() + 1, &level2);
  s.FinishTruth();

  std::printf("level-2 stream: %zu events (%zu bytes vs %zu raw bytes, "
              "ratio %.4f)\n",
              level2.size(), WireBytes(level2),
              s.total_readings() * kReadingWireBytes,
              CompressionRatio(level2, s.total_readings()));

  // On-demand decompression in front of a query processor.
  EventStream level1 = Decompressor::DecompressAll(level2);
  Status well_formed = ValidateWellFormed(level1, /*allow_open_at_end=*/true);
  std::printf("decompressed:   %zu events, well-formed: %s\n", level1.size(),
              well_formed.ok() ? "yes" : well_formed.ToString().c_str());

  // Point queries: where was each object at the probe epochs?
  auto folded = FoldEvents(level1);
  std::size_t queries = 0, agree = 0, printed = 0;
  for (const auto& [epoch, snapshot] : probes) {
    for (const auto& [object, truth_location] : snapshot) {
      LocationId answer = LocationAt(folded, object, epoch);
      ++queries;
      if (answer == truth_location) ++agree;
      if (printed < 6 && EpcLevel(object) == PackagingLevel::kItem) {
        ++printed;
        std::printf("  query resides(%s, t=%lld): %s (truth: %s)\n",
                    EpcToString(object).c_str(),
                    static_cast<long long>(epoch),
                    s.registry().LocationName(answer).c_str(),
                    s.registry().LocationName(truth_location).c_str());
      }
    }
  }
  std::printf("point queries answered from the decompressed stream: "
              "%zu/%zu consistent with the ground truth (%.1f%%)\n",
              agree, queries, 100.0 * agree / (queries == 0 ? 1 : queries));
  return 0;
}
