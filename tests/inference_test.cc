// Unit tests for src/inference: edge inference (Eqs. 1-2), node inference
// (Eqs. 3-4), the iterative sweep, pruning, scheduling, and conflict
// resolution (Table I).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "common/epc.h"
#include "graph/graph.h"
#include "inference/conflict.h"
#include "inference/edge_inference.h"
#include "inference/iterative.h"
#include "inference/node_inference.h"
#include "inference/schedule.h"

namespace spire {
namespace {

ObjectId Obj(PackagingLevel level, std::uint32_t serial) {
  EpcFields fields;
  fields.level = level;
  fields.serial = serial;
  return EncodeEpcUnchecked(fields);
}

const ObjectId kItem = Obj(PackagingLevel::kItem, 1);
const ObjectId kCaseA = Obj(PackagingLevel::kCase, 2);
const ObjectId kCaseB = Obj(PackagingLevel::kCase, 3);
const ObjectId kPallet = Obj(PackagingLevel::kPallet, 4);

/// The live estimate of `object` in `result`; fails the test (and returns
/// a default estimate) when there is none.
const ObjectEstimate& At(const InferenceResult& result, ObjectId object) {
  static const ObjectEstimate kMissing;
  const ObjectEstimate* estimate = result.Find(object);
  if (estimate == nullptr) {
    ADD_FAILURE() << "no estimate for " << EpcToString(object);
    return kMissing;
  }
  return *estimate;
}

/// A stand-in node slot per test object: its EPC serial (unique among the
/// objects of these tests).
NodeId SlotOf(ObjectId object) {
  return static_cast<NodeId>(DecodeEpc(object).serial);
}

/// Records an estimate the way a pass does: under its object's slot, with
/// its container's slot.
void Put(InferenceResult* result, const ObjectEstimate& estimate) {
  result->Put(SlotOf(estimate.object), estimate,
              estimate.container == kNoObject ? kNoNode
                                              : SlotOf(estimate.container));
}

/// Pushes `history` (index 0 = oldest pushed = least recent ... pushed in
/// order, so the LAST element becomes the most recent bit).
void PushHistory(Edge& edge, std::initializer_list<bool> history) {
  for (bool bit : history) edge.recent_colocations.Push(bit);
}

// -------------------------------------------------------- Edge inference --

class EdgeInferenceTest : public ::testing::Test {
 protected:
  EdgeInferenceTest() : inferencer_(&graph_, &params_) {
    graph_.BeginEpoch(1);
  }

  Graph graph_{8};
  InferenceParams params_;
  EdgeInferencer inferencer_;
};

TEST_F(EdgeInferenceTest, WeightAveragesHistoryWithAlphaZero) {
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  PushHistory(graph_.edge(e), {true, false, true, true});
  params_.alpha = 0.0;
  EXPECT_DOUBLE_EQ(inferencer_.Weight(graph_.edge(e)), 0.75);
}

TEST_F(EdgeInferenceTest, WeightNormalizesOverObservedBitsOnly) {
  // A fresh edge with one positive instance has full weight (DESIGN.md #3);
  // normalizing over the whole capacity would starve new edges.
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  PushHistory(graph_.edge(e), {true});
  EXPECT_DOUBLE_EQ(inferencer_.Weight(graph_.edge(e)), 1.0);
}

TEST_F(EdgeInferenceTest, WeightZeroForEmptyHistory) {
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  EXPECT_DOUBLE_EQ(inferencer_.Weight(graph_.edge(e)), 0.0);
}

TEST_F(EdgeInferenceTest, PositiveAlphaFavorsRecentBits) {
  EdgeId recent = graph_.AddEdge(kCaseA, kItem);
  EdgeId old = graph_.AddEdge(kCaseB, kItem);
  // Same popcount; `recent` has the co-location most recently.
  PushHistory(graph_.edge(recent), {false, false, true});
  PushHistory(graph_.edge(old), {true, false, false});
  params_.alpha = 1.0;
  EXPECT_GT(inferencer_.Weight(graph_.edge(recent)),
            inferencer_.Weight(graph_.edge(old)));
  // With alpha = 0 they weigh the same.
  params_.alpha = 0.0;
  EXPECT_DOUBLE_EQ(inferencer_.Weight(graph_.edge(recent)),
                   inferencer_.Weight(graph_.edge(old)));
}

/// Eq. 1 term by term, the way Weight() computed it before the popcount
/// and Zipf-table forms: every index, in order.
double PerBitWeight(const ShiftRegister& bits, double alpha) {
  const int n = bits.size();
  if (n == 0) return 0.0;
  double numerator = 0.0;
  double denominator = 0.0;
  for (int i = 0; i < n; ++i) {
    const double zipf =
        alpha == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    if (bits.Get(i)) numerator += zipf;
    denominator += zipf;
  }
  return numerator / denominator;
}

TEST_F(EdgeInferenceTest, WeightIsBitExactAgainstPerBitSummation) {
  std::mt19937_64 rng(14);
  for (double alpha : {0.0, 0.5, 1.0, 2.0}) {
    params_.alpha = alpha;
    for (int trial = 0; trial < 200; ++trial) {
      Edge edge;
      edge.recent_colocations = ShiftRegister(ShiftRegister::kMaxCapacity);
      const int n = 1 + static_cast<int>(rng() % ShiftRegister::kMaxCapacity);
      // Push more bits than the window holds now and then, so bits that
      // shifted past the capacity must not leak into the weight.
      const int pushes = n + (trial % 3 == 0 ? 7 : 0);
      const std::uint64_t pattern = rng();
      for (int i = 0; i < pushes; ++i) {
        edge.recent_colocations.Push((pattern >> (i % 64)) & 1u);
      }
      // Exact equality on purpose: the output bytes depend on every bit.
      EXPECT_EQ(inferencer_.Weight(edge),
                PerBitWeight(edge.recent_colocations, alpha))
          << "alpha " << alpha << " window " << edge.recent_colocations.size();
    }
  }
}

TEST_F(EdgeInferenceTest, AlphaChangeBetweenCallsRebuildsZipfTable) {
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  PushHistory(graph_.edge(e), {true, true, false, true, false});
  params_.alpha = 1.0;
  const double at_one = inferencer_.Weight(graph_.edge(e));
  EXPECT_EQ(at_one, PerBitWeight(graph_.edge(e).recent_colocations, 1.0));
  params_.alpha = 2.0;
  const double at_two = inferencer_.Weight(graph_.edge(e));
  EXPECT_EQ(at_two, PerBitWeight(graph_.edge(e).recent_colocations, 2.0));
  EXPECT_NE(at_one, at_two);
}

TEST_F(EdgeInferenceTest, ProbabilityOfForgetsEdgesOfEarlierPasses) {
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  EdgeId other = graph_.AddEdge(kCaseB, kPallet);
  PushHistory(graph_.edge(e), {true, true});
  PushHistory(graph_.edge(other), {true});
  inferencer_.BeginPass();
  inferencer_.InferAt(*graph_.FindNode(kItem));
  EXPECT_EQ(inferencer_.ProbabilityOf(e), 1.0);
  // Pass N+1 writes only the other edge: e's pass-N entry must read as 0.
  inferencer_.BeginPass();
  EXPECT_EQ(inferencer_.ProbabilityOf(e), 0.0);
  inferencer_.InferAt(*graph_.FindNode(kPallet));
  EXPECT_EQ(inferencer_.ProbabilityOf(other), 1.0);
  EXPECT_EQ(inferencer_.ProbabilityOf(e), 0.0);
  // Edge ids past the arena read as 0 too.
  EXPECT_EQ(inferencer_.ProbabilityOf(other + 100), 0.0);
}

TEST_F(EdgeInferenceTest, ConfidenceBlendsConfirmationAndHistory) {
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  PushHistory(graph_.edge(e), {true, true, false, false});  // w = 0.5.
  Node& item = *graph_.FindNode(kItem);
  params_.beta = 0.4;
  // Unconfirmed: confidence = beta * w.
  EXPECT_NEAR(inferencer_.Confidence(graph_.edge(e), item), 0.2, 1e-12);
  // Confirmed: + (1 - beta).
  item.confirmed.parent = kCaseA;
  item.confirmed.confirmed_at = 1;
  EXPECT_NEAR(inferencer_.Confidence(graph_.edge(e), item), 0.8, 1e-12);
}

TEST_F(EdgeInferenceTest, ConfirmedEdgeBeatsBetterHistory) {
  EdgeId confirmed = graph_.AddEdge(kCaseA, kItem);
  EdgeId rival = graph_.AddEdge(kCaseB, kItem);
  PushHistory(graph_.edge(confirmed), {true, false, false, false});  // 0.25.
  PushHistory(graph_.edge(rival), {true, true, true, true});         // 1.0.
  Node& item = *graph_.FindNode(kItem);
  item.confirmed.parent = kCaseA;
  item.confirmed.confirmed_at = 1;
  params_.beta = 0.4;
  inferencer_.BeginPass();
  EdgeInferenceResult result = inferencer_.InferAt(item);
  EXPECT_EQ(result.best_parent, kCaseA);  // 0.6 + 0.1 > 0.4.
}

TEST_F(EdgeInferenceTest, HighBetaLetsHistoryOutweighConfirmation) {
  EdgeId confirmed = graph_.AddEdge(kCaseA, kItem);
  EdgeId rival = graph_.AddEdge(kCaseB, kItem);
  PushHistory(graph_.edge(confirmed), {false, false, false, false});
  PushHistory(graph_.edge(rival), {true, true, true, true});
  Node& item = *graph_.FindNode(kItem);
  item.confirmed.parent = kCaseA;
  item.confirmed.confirmed_at = 1;
  params_.beta = 0.9;  // Recent history dominates.
  inferencer_.BeginPass();
  EXPECT_EQ(inferencer_.InferAt(item).best_parent, kCaseB);
}

TEST_F(EdgeInferenceTest, ProbabilitiesNormalize) {
  graph_.AddEdge(kCaseA, kItem);
  graph_.AddEdge(kCaseB, kItem);
  Node& item = *graph_.FindNode(kItem);
  PushHistory(graph_.edge(item.parent_edges[0]), {true, true});
  PushHistory(graph_.edge(item.parent_edges[1]), {true, false});
  inferencer_.BeginPass();
  inferencer_.InferAt(item);
  double total = inferencer_.ProbabilityOf(item.parent_edges[0]) +
                 inferencer_.ProbabilityOf(item.parent_edges[1]);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_F(EdgeInferenceTest, NoParentsNoResult) {
  graph_.GetOrCreateNode(kItem);
  inferencer_.BeginPass();
  EdgeInferenceResult result = inferencer_.InferAt(*graph_.FindNode(kItem));
  EXPECT_EQ(result.best_edge, kNoEdge);
  EXPECT_EQ(result.best_parent, kNoObject);
}

TEST_F(EdgeInferenceTest, ZeroEvidenceFallsBackToUniform) {
  graph_.AddEdge(kCaseA, kItem);
  graph_.AddEdge(kCaseB, kItem);
  Node& item = *graph_.FindNode(kItem);
  inferencer_.BeginPass();
  EdgeInferenceResult result = inferencer_.InferAt(item);
  EXPECT_NEAR(result.best_prob, 0.5, 1e-12);
}

TEST_F(EdgeInferenceTest, CollectsPrunableEdges) {
  EdgeId weak = graph_.AddEdge(kCaseA, kItem);
  EdgeId strong = graph_.AddEdge(kCaseB, kItem);
  PushHistory(graph_.edge(weak), {true, false, false, false});   // conf 0.1.
  PushHistory(graph_.edge(strong), {true, true, true, true});    // conf 0.4.
  params_.beta = 0.4;
  params_.prune_threshold = 0.25;
  inferencer_.BeginPass();
  std::vector<EdgeId> prunable;
  inferencer_.InferAt(*graph_.FindNode(kItem), &prunable);
  ASSERT_EQ(prunable.size(), 1u);
  EXPECT_EQ(prunable[0], weak);
}

TEST_F(EdgeInferenceTest, PruningDisabledByNonPositiveThreshold) {
  EdgeId weak = graph_.AddEdge(kCaseA, kItem);
  PushHistory(graph_.edge(weak), {false, false});
  params_.prune_threshold = 0.0;
  inferencer_.BeginPass();
  std::vector<EdgeId> prunable;
  inferencer_.InferAt(*graph_.FindNode(kItem), &prunable);
  EXPECT_TRUE(prunable.empty());
}

TEST_F(EdgeInferenceTest, AdaptiveBetaTracksConflictRatio) {
  Node& item = graph_.GetOrCreateNode(kItem);
  params_.adaptive_beta = true;
  params_.beta = 0.4;
  // No confirmation: fall back to the static beta.
  EXPECT_DOUBLE_EQ(inferencer_.EffectiveBeta(item), 0.4);
  item.confirmed.parent = kCaseA;
  item.confirmed.confirmed_at = 1;
  // Fresh confirmation, no observations yet: full trust (beta = 0).
  EXPECT_DOUBLE_EQ(inferencer_.EffectiveBeta(item), 0.0);
  item.confirmed.observations = 10;
  item.confirmed.conflicts = 3;
  EXPECT_DOUBLE_EQ(inferencer_.EffectiveBeta(item), 0.3);
  params_.adaptive_beta = false;
  EXPECT_DOUBLE_EQ(inferencer_.EffectiveBeta(item), 0.4);
}

// -------------------------------------------------------- Node inference --

class NodeInferenceTest : public ::testing::Test {
 protected:
  NodeInferenceTest()
      : edges_(&graph_, &params_), nodes_(&graph_, &params_, &edges_) {
    graph_.BeginEpoch(1);
  }

  /// Pass colors that only know colors observed this epoch (no committed
  /// wave estimates).
  PassColors ObservedOnly() { return PassColors{&graph_}; }

  Graph graph_{8};
  InferenceParams params_;
  EdgeInferencer edges_;
  NodeInferencer nodes_;
};

TEST_F(NodeInferenceTest, FreshColorWinsOverUnknown) {
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  graph_.BeginEpoch(2);
  // Seen one epoch ago: fade = 1, unknown mass = 0.
  NodeInferenceResult result = nodes_.InferAt(item, 2, ObservedOnly());
  EXPECT_EQ(result.location, 5);
}

TEST_F(NodeInferenceTest, StaleColorLosesToUnknown) {
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  params_.theta = 1.25;
  params_.gamma = 0.4;
  graph_.BeginEpoch(100);
  // fade = 1/99^1.25 ~ 0.003: the unknown color dominates.
  NodeInferenceResult result = nodes_.InferAt(item, 100, ObservedOnly());
  EXPECT_EQ(result.location, kUnknownLocation);
}

TEST_F(NodeInferenceTest, ThetaControlsFadeRate) {
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  graph_.BeginEpoch(4);  // Age 3.
  params_.gamma = 0.0;
  params_.theta = 0.1;  // Slow fade: 3^-0.1 ~ 0.896 > 0.5.
  EXPECT_EQ(nodes_.InferAt(item, 4, ObservedOnly()).location, 5);
  params_.theta = 3.0;  // Fast fade: 3^-3 ~ 0.037.
  EXPECT_EQ(nodes_.InferAt(item, 4, ObservedOnly()).location,
            kUnknownLocation);
}

TEST_F(NodeInferenceTest, ContainmentPropagatesColor) {
  // The item was last seen long ago, but its (confirmed) case is observed:
  // with enough gamma the case's color wins.
  graph_.GetOrCreateNode(kCaseA);
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  PushHistory(graph_.edge(e), {true, true, true});
  graph_.BeginEpoch(200);
  Node& case_node = *graph_.FindNode(kCaseA);
  graph_.ColorNode(case_node, 7);

  params_.gamma = 0.4;
  params_.theta = 1.25;
  edges_.BeginPass();
  edges_.InferAt(item);  // Fill edge probabilities.
  NodeInferenceResult result = nodes_.InferAt(item, 200, ObservedOnly());
  // Propagated: 0.4 * 1.0 = 0.4; unknown: 0.6 * (1 - ~0) ~ 0.6. Unknown
  // still wins at gamma 0.4 — conflict resolution would fix this via the
  // containment. With a higher gamma the propagation wins outright.
  params_.gamma = 0.7;
  result = nodes_.InferAt(item, 200, ObservedOnly());
  EXPECT_EQ(result.location, 7);
}

TEST_F(NodeInferenceTest, GammaZeroIgnoresNeighbors) {
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  PushHistory(graph_.edge(e), {true});
  graph_.BeginEpoch(50);
  graph_.ColorNode(*graph_.FindNode(kCaseA), 7);
  params_.gamma = 0.0;
  edges_.BeginPass();
  edges_.InferAt(item);
  NodeInferenceResult result = nodes_.InferAt(item, 50, ObservedOnly());
  EXPECT_NE(result.location, 7);
}

TEST_F(NodeInferenceTest, ColorPropagatesFromChildrenToo) {
  // A case whose items are observed gains the items' color (this is how
  // SPIRE recovers a container's location from its contents).
  Node& case_node = graph_.GetOrCreateNode(kCaseA);
  graph_.ColorNode(case_node, 3);
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  PushHistory(graph_.edge(e), {true, true});
  graph_.BeginEpoch(300);
  graph_.ColorNode(*graph_.FindNode(kItem), 9);
  params_.gamma = 0.5;
  edges_.BeginPass();
  edges_.InferAt(*graph_.FindNode(kItem));
  NodeInferenceResult result =
      nodes_.InferAt(case_node, 300, ObservedOnly());
  EXPECT_EQ(result.location, 9);
}

TEST_F(NodeInferenceTest, DistributionNormalized) {
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  graph_.BeginEpoch(3);
  NodeInferenceResult result = nodes_.InferAt(item, 3, ObservedOnly());
  EXPECT_GT(result.probability, 0.0);
  EXPECT_LE(result.probability, 1.0);
}

TEST_F(NodeInferenceTest, MultipleNeighborsSplitTheGammaMass) {
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  EdgeId ea = graph_.AddEdge(kCaseA, kItem);
  EdgeId eb = graph_.AddEdge(kCaseB, kItem);
  PushHistory(graph_.edge(ea), {true, true, true});   // Stronger.
  PushHistory(graph_.edge(eb), {true, false, false});
  graph_.BeginEpoch(400);
  graph_.ColorNode(*graph_.FindNode(kCaseA), 7);
  graph_.ColorNode(*graph_.FindNode(kCaseB), 8);
  params_.gamma = 1.0;
  edges_.BeginPass();
  edges_.InferAt(item);
  NodeInferenceResult result = nodes_.InferAt(item, 400, ObservedOnly());
  EXPECT_EQ(result.location, 7);  // The stronger edge's color wins.
}

// ------------------------------------------------------------- Schedule ---

TEST(ScheduleTest, CompleteEveryLcmEpochs) {
  InferenceSchedule schedule(10);
  EXPECT_TRUE(schedule.IsCompleteEpoch(0));
  EXPECT_FALSE(schedule.IsCompleteEpoch(5));
  EXPECT_TRUE(schedule.IsCompleteEpoch(20));
}

TEST(ScheduleTest, AlwaysCompleteWhenAllReadersFast) {
  InferenceSchedule schedule(1);
  for (Epoch e = 0; e < 5; ++e) EXPECT_TRUE(schedule.IsCompleteEpoch(e));
}

TEST(ScheduleTest, FromRegistryUsesPeriodLcm) {
  ReaderRegistry registry;
  LocationId a = registry.AddLocation("a");
  LocationId b = registry.AddLocation("b");
  ReaderInfo fast;
  fast.id = 0;
  fast.location = a;
  fast.period_epochs = 1;
  ReaderInfo slow;
  slow.id = 1;
  slow.location = b;
  slow.period_epochs = 60;
  ASSERT_TRUE(registry.AddReader(fast).ok());
  ASSERT_TRUE(registry.AddReader(slow).ok());
  EXPECT_EQ(InferenceSchedule::FromRegistry(registry).period_lcm(), 60);
}

// ---------------------------------------------------- Iterative inference --

class IterativeTest : public ::testing::Test {
 protected:
  IterativeTest() : inference_(&graph_, params_) {}

  Graph graph_{8};
  InferenceParams params_;
  IterativeInference inference_{&graph_, params_};
};

TEST_F(IterativeTest, ObservedNodesKeepTheirColors) {
  graph_.BeginEpoch(1);
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  InferenceResult result = inference_.RunComplete(1);
  ASSERT_TRUE(result.Find(kItem) != nullptr);
  const ObjectEstimate& estimate = At(result, kItem);
  EXPECT_EQ(estimate.location, 5);
  EXPECT_TRUE(estimate.observed);
  EXPECT_EQ(estimate.location_prob, 1.0);
}

TEST_F(IterativeTest, UnobservedNeighborInferredFromColoredNode) {
  graph_.BeginEpoch(1);
  Node& item = graph_.GetOrCreateNode(kItem);
  Node& case_node = graph_.GetOrCreateNode(kCaseA);
  graph_.ColorNode(item, 5);
  graph_.ColorNode(case_node, 5);
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  graph_.edge(e).recent_colocations.Push(true);

  graph_.BeginEpoch(2);
  graph_.ColorNode(*graph_.FindNode(kItem), 5);  // Case missed this epoch.
  InferenceResult result = inference_.RunComplete(2);
  const ObjectEstimate& case_estimate = At(result, kCaseA);
  EXPECT_FALSE(case_estimate.observed);
  EXPECT_EQ(case_estimate.location, 5);  // Fresh fading color + propagation.
}

TEST_F(IterativeTest, ChainPropagationAcrossWaves) {
  // pallet -> case -> item; only the item is observed. The case is inferred
  // at d=1, then the pallet at d=2 using the case's committed estimate.
  graph_.BeginEpoch(1);
  for (ObjectId id : {kItem, kCaseA, kPallet}) {
    graph_.ColorNode(graph_.GetOrCreateNode(id), 5);
  }
  EdgeId e1 = graph_.AddEdge(kCaseA, kItem);
  EdgeId e2 = graph_.AddEdge(kPallet, kCaseA);
  graph_.edge(e1).recent_colocations.Push(true);
  graph_.edge(e2).recent_colocations.Push(true);

  graph_.BeginEpoch(2);
  graph_.ColorNode(*graph_.FindNode(kItem), 5);
  InferenceResult result = inference_.RunComplete(2);
  EXPECT_EQ(At(result, kCaseA).location, 5);
  EXPECT_EQ(At(result, kPallet).location, 5);
}

TEST_F(IterativeTest, MutableAlphaTakesEffectOnTheNextPass) {
  InferenceParams params;
  params.prune_threshold = 0.0;  // Keep both weak candidates alive.
  IterativeInference inference(&graph_, params);
  graph_.BeginEpoch(1);
  graph_.ColorNode(graph_.GetOrCreateNode(kItem), 5);
  EdgeId recent = graph_.AddEdge(kCaseA, kItem);
  EdgeId old = graph_.AddEdge(kCaseB, kItem);
  // Same popcount; only `recent` co-located in the newest observation.
  PushHistory(graph_.edge(recent), {false, false, true});
  PushHistory(graph_.edge(old), {true, false, false});
  // alpha = 0: the two histories weigh the same.
  EXPECT_EQ(At(inference.RunComplete(1), kItem).container_prob, 0.5);

  inference.mutable_params().alpha = 2.0;
  graph_.BeginEpoch(2);
  graph_.ColorNode(*graph_.FindNode(kItem), 5);
  const ObjectEstimate estimate = At(inference.RunComplete(2), kItem);
  EXPECT_EQ(estimate.container, kCaseA);
  EXPECT_GT(estimate.container_prob, 0.5);
}

TEST_F(IterativeTest, IdentifiesMissingObject) {
  graph_.BeginEpoch(1);
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  // Long silence, no edges: the object is most likely away.
  graph_.BeginEpoch(500);
  InferenceResult result = inference_.RunComplete(500);
  const ObjectEstimate& estimate = At(result, kItem);
  EXPECT_EQ(estimate.location, kUnknownLocation);
  EXPECT_FALSE(estimate.withheld);  // Complete inference reports it.
}

TEST_F(IterativeTest, PartialInferenceWithholdsUnknown) {
  graph_.BeginEpoch(1);
  Node& item = graph_.GetOrCreateNode(kItem);
  Node& case_node = graph_.GetOrCreateNode(kCaseA);
  graph_.ColorNode(item, 5);
  graph_.ColorNode(case_node, 5);
  EdgeId e = graph_.AddEdge(kCaseA, kItem);
  graph_.edge(e).recent_colocations.Push(false);  // Weak evidence.

  graph_.BeginEpoch(300);
  graph_.ColorNode(*graph_.FindNode(kItem), 5);
  InferenceParams no_prune;
  no_prune.prune_threshold = 0.0;  // Keep the weak-evidence edge alive.
  IterativeInference inference(&graph_, no_prune);
  InferenceResult result = inference.RunPartial(300);
  ASSERT_TRUE(result.Find(kCaseA) != nullptr);
  const ObjectEstimate& estimate = At(result, kCaseA);
  // The case is stale; partial inference yields "unknown" but withholds it.
  EXPECT_EQ(estimate.location, kUnknownLocation);
  EXPECT_TRUE(estimate.withheld);
  EXPECT_FALSE(result.complete);
}

TEST_F(IterativeTest, PartialInferenceRespectsHopLimit) {
  graph_.BeginEpoch(1);
  for (ObjectId id : {kItem, kCaseA, kPallet}) {
    graph_.ColorNode(graph_.GetOrCreateNode(id), 5);
  }
  graph_.AddEdge(kCaseA, kItem);
  graph_.AddEdge(kPallet, kCaseA);

  graph_.BeginEpoch(2);
  graph_.ColorNode(*graph_.FindNode(kItem), 5);
  InferenceParams params;
  params.partial_hops = 1;
  params.prune_threshold = 0.0;  // Keep the evidence-free edges alive.
  IterativeInference limited(&graph_, params);
  InferenceResult result = limited.RunPartial(2);
  EXPECT_TRUE(result.Find(kItem) != nullptr);     // d=0.
  EXPECT_TRUE(result.Find(kCaseA) != nullptr);    // d=1.
  EXPECT_FALSE(result.Find(kPallet) != nullptr);  // d=2: out of range.
}

TEST_F(IterativeTest, CompleteInferenceCoversUnreachableNodes) {
  graph_.BeginEpoch(1);
  Node& lone = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(lone, 5);
  graph_.BeginEpoch(2);
  // Nothing colored at all: every node is "unreachable".
  InferenceResult result = inference_.RunComplete(2);
  ASSERT_TRUE(result.Find(kItem) != nullptr);
  EXPECT_EQ(At(result, kItem).location, 5);  // Fresh fade wins.
}

TEST_F(IterativeTest, PruningRemovesWeakEdgesDuringInference) {
  graph_.BeginEpoch(1);
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  EdgeId weak = graph_.AddEdge(kCaseA, kItem);
  EdgeId strong = graph_.AddEdge(kCaseB, kItem);
  for (int i = 0; i < 8; ++i) {
    graph_.edge(weak).recent_colocations.Push(false);
    graph_.edge(strong).recent_colocations.Push(true);
  }
  InferenceResult result = inference_.RunComplete(1);
  EXPECT_GE(result.edges_pruned, 1u);
  EXPECT_FALSE(graph_.edge(weak).alive);
  EXPECT_TRUE(graph_.edge(strong).alive);
  EXPECT_EQ(At(result, kItem).container, kCaseB);
}

TEST_F(IterativeTest, AllEdgesPrunedMeansNoContainer) {
  graph_.BeginEpoch(1);
  Node& item = graph_.GetOrCreateNode(kItem);
  graph_.ColorNode(item, 5);
  EdgeId weak = graph_.AddEdge(kCaseA, kItem);
  for (int i = 0; i < 8; ++i) graph_.edge(weak).recent_colocations.Push(false);
  InferenceResult result = inference_.RunComplete(1);
  EXPECT_EQ(At(result, kItem).container, kNoObject);
  EXPECT_EQ(graph_.NumEdges(), 0u);
}

// ---------------------------------------------------- Conflict resolution --

ObjectEstimate MakeEstimate(ObjectId object, LocationId location,
                            ObjectId container, bool observed) {
  ObjectEstimate estimate;
  estimate.object = object;
  estimate.location = location;
  estimate.location_prob = observed ? 1.0 : 0.6;
  estimate.container = container;
  estimate.container_prob = container == kNoObject ? 0.0 : 0.9;
  estimate.observed = observed;
  return estimate;
}

TEST(ConflictTest, RuleIObservedParentOverridesInferredChild) {
  InferenceResult result;
  Put(&result, MakeEstimate(kCaseA, 7, kNoObject, true));
  Put(&result, MakeEstimate(kItem, 5, kCaseA, false));
  ConflictStats stats = ResolveConflicts(&result);
  EXPECT_EQ(stats.children_overridden, 1u);
  EXPECT_EQ(At(result, kItem).location, 7);
  EXPECT_EQ(At(result, kItem).container, kCaseA);
}

TEST(ConflictTest, RuleIIMajorityVoteRepositionsParent) {
  InferenceResult result;
  ObjectId i1 = Obj(PackagingLevel::kItem, 10);
  ObjectId i2 = Obj(PackagingLevel::kItem, 11);
  ObjectId i3 = Obj(PackagingLevel::kItem, 12);
  Put(&result, MakeEstimate(kCaseA, 3, kNoObject, false));
  Put(&result, MakeEstimate(i1, 7, kCaseA, true));
  Put(&result, MakeEstimate(i2, 7, kCaseA, true));
  Put(&result, MakeEstimate(i3, 3, kCaseA, true));
  ConflictStats stats = ResolveConflicts(&result);
  EXPECT_EQ(stats.parents_repositioned, 1u);
  EXPECT_EQ(At(result, kCaseA).location, 7);
  // The minority observed child ends its containment (Rule II).
  EXPECT_EQ(stats.containments_ended, 1u);
  EXPECT_EQ(At(result, i3).container, kNoObject);
}

TEST(ConflictTest, RuleIINoMajorityLeavesParentAndEndsConflicts) {
  InferenceResult result;
  ObjectId i1 = Obj(PackagingLevel::kItem, 10);
  ObjectId i2 = Obj(PackagingLevel::kItem, 11);
  Put(&result, MakeEstimate(kCaseA, 3, kNoObject, false));
  Put(&result, MakeEstimate(i1, 7, kCaseA, true));
  Put(&result, MakeEstimate(i2, 8, kCaseA, true));
  ConflictStats stats = ResolveConflicts(&result);
  EXPECT_EQ(stats.parents_repositioned, 0u);
  EXPECT_EQ(At(result, kCaseA).location, 3);
  EXPECT_EQ(stats.containments_ended, 2u);
}

TEST(ConflictTest, RuleIIIInferredChildFollowsParent) {
  InferenceResult result;
  ObjectId i1 = Obj(PackagingLevel::kItem, 10);
  ObjectId i2 = Obj(PackagingLevel::kItem, 11);
  ObjectId i3 = Obj(PackagingLevel::kItem, 12);
  Put(&result, MakeEstimate(kCaseA, 3, kNoObject, false));
  Put(&result, MakeEstimate(i1, 7, kCaseA, true));
  Put(&result, MakeEstimate(i2, 7, kCaseA, true));
  Put(&result, MakeEstimate(i3, 3, kCaseA, false));  // Inferred.
  ResolveConflicts(&result);
  // Parent moved to 7; the inferred child follows rather than ending.
  EXPECT_EQ(At(result, kCaseA).location, 7);
  EXPECT_EQ(At(result, i3).location, 7);
  EXPECT_EQ(At(result, i3).container, kCaseA);
}

TEST(ConflictTest, ProcessesParentsTopDown) {
  // pallet (observed, loc 9) -> case (inferred, loc 5) -> item (inferred,
  // loc 5): Rule I fixes the case first, then the case fixes the item.
  InferenceResult result;
  Put(&result, MakeEstimate(kPallet, 9, kNoObject, true));
  Put(&result, MakeEstimate(kCaseA, 5, kPallet, false));
  Put(&result, MakeEstimate(kItem, 5, kCaseA, false));
  ResolveConflicts(&result);
  EXPECT_EQ(At(result, kCaseA).location, 9);
  EXPECT_EQ(At(result, kItem).location, 9);
}

TEST(ConflictTest, AgreementIsUntouched) {
  InferenceResult result;
  Put(&result, MakeEstimate(kCaseA, 7, kNoObject, true));
  Put(&result, MakeEstimate(kItem, 7, kCaseA, false));
  ConflictStats stats = ResolveConflicts(&result);
  EXPECT_EQ(stats.children_overridden, 0u);
  EXPECT_EQ(stats.containments_ended, 0u);
  EXPECT_EQ(stats.parents_repositioned, 0u);
}

TEST(ConflictTest, MissingParentEstimateSkipsFamily) {
  InferenceResult result;
  Put(&result, MakeEstimate(kItem, 5, kCaseA, false));
  // kCaseA has no estimate (e.g. outside the partial-inference radius).
  ConflictStats stats = ResolveConflicts(&result);
  EXPECT_EQ(stats.children_overridden, 0u);
  EXPECT_EQ(At(result, kItem).location, 5);
}

TEST(ConflictTest, WithheldParentSkipsResolution) {
  InferenceResult result;
  ObjectEstimate parent = MakeEstimate(kCaseA, kUnknownLocation, kNoObject,
                                       false);
  parent.withheld = true;
  Put(&result, parent);
  Put(&result, MakeEstimate(kItem, 5, kCaseA, false));
  ResolveConflicts(&result);
  EXPECT_EQ(At(result, kItem).location, 5);
}

TEST(ConflictTest, MissingIsNotAConflict) {
  // Missing events nest inside containment pairs (Section V-A): a missing
  // child keeps both its verdict and its containment — that is how objects
  // that silently vanish from their containers are detected — and a missing
  // parent exerts no location priority over its children.
  InferenceResult result;
  ObjectId i1 = Obj(PackagingLevel::kItem, 10);
  Put(&result, MakeEstimate(kCaseA, 7, kNoObject, true));
  Put(&result,
      MakeEstimate(i1, kUnknownLocation, kCaseA, false));  // Vanished item.
  ResolveConflicts(&result);
  EXPECT_EQ(At(result, i1).location, kUnknownLocation);
  EXPECT_EQ(At(result, i1).container, kCaseA);

  InferenceResult parent_missing;
  Put(&parent_missing,
      MakeEstimate(kCaseA, kUnknownLocation, kNoObject, false));
  Put(&parent_missing, MakeEstimate(i1, 5, kCaseA, false));
  ConflictStats stats = ResolveConflicts(&parent_missing);
  EXPECT_EQ(At(parent_missing, i1).location, 5);
  // One voting child forms a majority and repositions the missing parent.
  EXPECT_EQ(stats.parents_repositioned, 1u);
  EXPECT_EQ(At(parent_missing, kCaseA).location, 5);
}

// ----------------------------------------------- Recycled dense results --

TEST(InferenceResultTest, ResetForgetsTheSlotsOfThePreviousPass) {
  InferenceResult result;
  Put(&result, MakeEstimate(kItem, 5, kNoObject, true));
  Put(&result, MakeEstimate(kCaseA, 5, kNoObject, true));
  result.Reset(2, false);
  Put(&result, MakeEstimate(kCaseA, 6, kNoObject, true));
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.IndexOf(SlotOf(kItem)), InferenceResult::kNoIndex);
  EXPECT_EQ(result.Find(SlotOf(kItem), kItem), nullptr);
  EXPECT_EQ(result.Find(kItem), nullptr);
  ASSERT_NE(result.Find(SlotOf(kCaseA), kCaseA), nullptr);
  EXPECT_EQ(result.Find(SlotOf(kCaseA), kCaseA)->location, 6);
}

TEST_F(IterativeTest, ARecycledResultHoldsNoEstimateForAnAbsentSlot) {
  graph_.BeginEpoch(1);
  graph_.ColorNode(graph_.GetOrCreateNode(kItem), 5);
  graph_.ColorNode(graph_.GetOrCreateNode(kCaseA), 5);
  const NodeId case_slot = graph_.FindNodeId(kCaseA);
  InferenceResult result;
  inference_.RunComplete(1, &result);
  ASSERT_NE(result.Find(case_slot, kCaseA), nullptr);

  graph_.RemoveNode(kCaseA);
  graph_.BeginEpoch(2);
  graph_.ColorNode(*graph_.FindNode(kItem), 5);
  inference_.RunPartial(2, &result);
  EXPECT_EQ(result.epoch, 2);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.IndexOf(case_slot), InferenceResult::kNoIndex);
  EXPECT_EQ(result.Find(kCaseA), nullptr);
}

TEST_F(IterativeTest, ARecycledSlotNeverReturnsTheOldObjectsEstimate) {
  graph_.BeginEpoch(1);
  graph_.ColorNode(graph_.GetOrCreateNode(kItem), 5);
  const NodeId slot = graph_.FindNodeId(kItem);
  InferenceResult result;
  inference_.RunComplete(1, &result);
  ASSERT_NE(result.Find(slot, kItem), nullptr);

  // The item leaves; a new object takes over its slot.
  const ObjectId newcomer = Obj(PackagingLevel::kItem, 99);
  graph_.RemoveNode(kItem);
  graph_.BeginEpoch(2);
  Node& node = graph_.GetOrCreateNode(newcomer);
  ASSERT_EQ(node.self, slot);
  EXPECT_EQ(result.Find(slot, newcomer), nullptr);  // Last pass: the item's.

  graph_.ColorNode(node, 8);
  inference_.RunComplete(2, &result);
  const ObjectEstimate* estimate = result.Find(slot, newcomer);
  ASSERT_NE(estimate, nullptr);
  EXPECT_EQ(estimate->object, newcomer);
  EXPECT_EQ(estimate->location, 8);
  EXPECT_EQ(result.Find(slot, kItem), nullptr);
}

TEST(ConflictTest, ARetiredEstimateIsNeitherFoundNorResolved) {
  // A retired child keeps its estimate (a tombstone) but no rule touches it.
  InferenceResult result;
  Put(&result, MakeEstimate(kCaseA, 7, kNoObject, true));
  Put(&result, MakeEstimate(kItem, 5, kCaseA, false));
  ASSERT_NE(result.Retire(SlotOf(kItem), kItem), nullptr);
  EXPECT_EQ(result.Retire(SlotOf(kItem), kItem), nullptr);  // Once only.
  ConflictStats stats = ResolveConflicts(&result);
  EXPECT_EQ(stats.children_overridden, 0u);
  EXPECT_EQ(result.Find(kItem), nullptr);
  EXPECT_EQ(result.Find(SlotOf(kItem), kItem), nullptr);
  const InferenceResult::Entry& child =
      result.entries()[result.IndexOf(SlotOf(kItem))];
  EXPECT_TRUE(child.retired);
  EXPECT_EQ(child.estimate.location, 5);

  // A retired container resolves nothing against its children.
  InferenceResult parent_gone;
  Put(&parent_gone, MakeEstimate(kCaseA, 7, kNoObject, true));
  Put(&parent_gone, MakeEstimate(kItem, 5, kCaseA, false));
  ASSERT_NE(parent_gone.Retire(SlotOf(kCaseA), kCaseA), nullptr);
  stats = ResolveConflicts(&parent_gone);
  EXPECT_EQ(stats.children_overridden, 0u);
  EXPECT_EQ(At(parent_gone, kItem).location, 5);
}

TEST(ConflictTest, RuleIIClearsTheContainerSlotWithTheContainer) {
  InferenceResult result;
  ObjectId i1 = Obj(PackagingLevel::kItem, 10);
  ObjectId i2 = Obj(PackagingLevel::kItem, 11);
  ObjectId i3 = Obj(PackagingLevel::kItem, 12);
  Put(&result, MakeEstimate(kCaseA, 3, kNoObject, false));
  Put(&result, MakeEstimate(i1, 7, kCaseA, true));
  Put(&result, MakeEstimate(i2, 7, kCaseA, true));
  Put(&result, MakeEstimate(i3, 3, kCaseA, true));
  ResolveConflicts(&result);
  auto entry = [&](ObjectId id) -> const InferenceResult::Entry& {
    return result.entries()[result.IndexOf(SlotOf(id))];
  };
  EXPECT_EQ(entry(i3).estimate.container, kNoObject);
  EXPECT_EQ(entry(i3).container_slot, kNoNode);
  EXPECT_EQ(entry(i1).container_slot, SlotOf(kCaseA));
}

TEST(ConflictTest, AResolverReusedAcrossResultsOfDifferentSizes) {
  // The pipeline's resolver keeps its index lists between epochs; a large
  // result followed by a small one resolves the small one as a fresh
  // resolver would.
  ConflictResolver resolver;
  InferenceResult large;
  Put(&large, MakeEstimate(kCaseA, 3, kNoObject, false));
  for (std::uint32_t serial = 10; serial < 40; ++serial) {
    const ObjectId item = Obj(PackagingLevel::kItem, serial);
    Put(&large, MakeEstimate(item, serial < 30 ? 7 : 3, kCaseA, true));
  }
  ConflictStats stats = resolver.Resolve(&large);
  EXPECT_EQ(stats.parents_repositioned, 1u);
  EXPECT_EQ(stats.containments_ended, 10u);

  InferenceResult small;
  Put(&small, MakeEstimate(kCaseA, 7, kNoObject, true));
  Put(&small, MakeEstimate(kItem, 5, kCaseA, false));
  stats = resolver.Resolve(&small);
  EXPECT_EQ(stats.children_overridden, 1u);
  EXPECT_EQ(stats.parents_repositioned, 0u);
  EXPECT_EQ(At(small, kItem).location, 7);
}

}  // namespace
}  // namespace spire
