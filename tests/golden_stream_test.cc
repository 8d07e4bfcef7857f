// Golden output digests: pins the exact bytes the pipeline emits.
//
// A fixed seeded warehouse trace (pallet -> case -> item, containment depth
// 3; a shelf reader period above one epoch, so most epochs run partial
// inference; thefts, so Missing singletons appear) is processed at level 1,
// at level 2, and at level 2 with delta-driven inference off. Each output
// stream is serialized with the wire encoder and hashed (FNV-1a 64).
//
// The constants were computed on the code as it stood before the
// touched-set level-2 handover and the O(1) Eq. 1 weights replaced the
// full-scan handover and the per-bit weight loop, so they prove those
// changes byte-identical. Hot-path optimisations must keep them; only a
// deliberate change of the output may update them, and such a change says
// so in its description.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "compress/serde.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"

namespace spire {
namespace {

SimConfig GoldenConfig() {
  SimConfig config;
  config.duration_epochs = 400;
  config.pallet_interval = 40;
  config.min_cases_per_pallet = 2;
  config.max_cases_per_pallet = 3;
  config.items_per_case = 4;
  config.num_shelves = 4;
  config.shelf_period = 6;
  config.mean_shelf_stay = 120;
  config.packaging_timeout = 120;
  config.theft_interval = 90;
  config.read_rate = 0.85;
  config.seed = 20080407;
  return config;
}

struct Digest {
  std::size_t events = 0;
  std::uint64_t fnv1a = 0;
};

Digest RunAndHash(const PipelineOptions& options) {
  auto sim = WarehouseSimulator::Create(GoldenConfig());
  EXPECT_TRUE(sim.ok());
  WarehouseSimulator& s = *sim.value();
  SpirePipeline pipeline(&s.registry(), options);
  EventStream out;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &out);
  }
  pipeline.Finish(s.current_epoch() + 1, &out);

  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(EventEncoder::EncodeStream(out, &bytes).ok());
  std::uint64_t hash = 14695981039346656037ull;
  for (std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return Digest{out.size(), hash};
}

TEST(GoldenStreamTest, Level1) {
  PipelineOptions options;
  options.level = CompressionLevel::kLevel1;
  const Digest digest = RunAndHash(options);
  EXPECT_EQ(digest.events, 1571u);
  EXPECT_EQ(digest.fnv1a, 11199558685534414262ull);
}

TEST(GoldenStreamTest, Level2) {
  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  const Digest digest = RunAndHash(options);
  EXPECT_EQ(digest.events, 1205u);
  EXPECT_EQ(digest.fnv1a, 9543000000104732580ull);
}

TEST(GoldenStreamTest, Level2FullRecompute) {
  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  options.inference.incremental = false;
  const Digest digest = RunAndHash(options);
  EXPECT_EQ(digest.events, 1205u);
  EXPECT_EQ(digest.fnv1a, 9543000000104732580ull);
}

}  // namespace
}  // namespace spire
