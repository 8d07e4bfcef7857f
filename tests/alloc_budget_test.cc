// Allocation budget of steady ingest epochs.
//
// This binary replaces the global operator new with a counting one, so it
// holds only this test: a fixed simulated warehouse stream is warmed up,
// then the heap allocations made inside SpirePipeline::ProcessEpoch are
// counted over the steady partial epochs that follow. The pipeline keeps
// its per-epoch scratch (winner table, reader batch, graph-update stamps,
// the inference result, conflict index lists, report entries) across
// epochs, so a steady partial epoch allocates only for genuinely new state
// — new nodes and edges, new events — well under one allocation per
// reading. Per-epoch hash maps, sets and result copies cost several per
// reading.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/simulator.h"
#include "spire/pipeline.h"

namespace {

bool g_counting = false;
std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace spire {
namespace {

/// Allocations per reading allowed over steady partial epochs.
constexpr double kMaxAllocationsPerReading = 0.3;

TEST(AllocationBudgetTest, SteadyPartialEpochsStayUnderBudget) {
  // ingest_large's shape at a quarter of its shelves: a stationary graph
  // of ~2.5k live objects, complete passes every 60 epochs.
  SimConfig config;
  config.pallet_interval = 16;
  config.belt_dwell = 1;
  config.transit_time = 1;
  config.min_cases_per_pallet = 5;
  config.max_cases_per_pallet = 8;
  config.items_per_case = 20;
  config.num_shelves = 16;
  config.shelf_period = 60;
  config.mean_shelf_stay = 1200;
  config.seed = 7;
  constexpr Epoch kWarmup = 1200;
  constexpr Epoch kMeasured = 360;
  config.duration_epochs = kWarmup + kMeasured + 1;
  auto sim = WarehouseSimulator::Create(config);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  WarehouseSimulator& s = *sim.value();
  SpirePipeline pipeline(&s.registry(), PipelineOptions{});

  EventStream out;
  out.reserve(1 << 16);  // Output growth is the caller's, not the epoch's.
  std::size_t readings = 0, allocations = 0, epochs = 0;
  for (Epoch e = 0; e < kWarmup + kMeasured; ++e) {
    EpochReadings input = s.Step();
    const std::size_t count = input.size();
    const std::size_t before = g_allocations;
    g_counting = e >= kWarmup;
    pipeline.ProcessEpoch(s.current_epoch(), std::move(input), &out);
    g_counting = false;
    if (e >= kWarmup && !pipeline.last_epoch_complete()) {
      readings += count;
      allocations += g_allocations - before;
      ++epochs;
    }
    out.clear();
  }
  ASSERT_GT(epochs, 300u);
  ASSERT_GT(readings, 20 * epochs);
  const double per_reading =
      static_cast<double>(allocations) / static_cast<double>(readings);
  std::printf("steady partial epochs: %zu, readings %zu, allocations %zu "
              "(%.3f per reading, %.1f per epoch)\n",
              epochs, readings, allocations, per_reading,
              static_cast<double>(allocations) / static_cast<double>(epochs));
  EXPECT_LT(per_reading, kMaxAllocationsPerReading);
}

}  // namespace
}  // namespace spire
