// Unit tests for the time-varying colored graph and the stream-driven
// update procedure (Fig. 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/epc.h"
#include "graph/graph.h"
#include "graph/update.h"
#include "stream/reader.h"

namespace spire {
namespace {

ObjectId Obj(PackagingLevel level, std::uint32_t serial) {
  EpcFields fields;
  fields.level = level;
  fields.serial = serial;
  return EncodeEpcUnchecked(fields);
}

// A registry with one regular "dock", one regular "shelf", one belt reader,
// and one exit reader.
class GraphUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dock_ = registry_.AddLocation("dock");
    shelf_ = registry_.AddLocation("shelf");
    belt_ = registry_.AddLocation("belt");
    exit_ = registry_.AddLocation("exit");
    AddReader(0, dock_, ReaderType::kPackaging);
    AddReader(1, shelf_, ReaderType::kShelf);
    AddReader(2, belt_, ReaderType::kReceivingBelt);
    AddReader(3, exit_, ReaderType::kExitDoor);
    updater_ = std::make_unique<GraphUpdater>(&graph_, &registry_);
  }

  void AddReader(ReaderId id, LocationId location, ReaderType type) {
    ReaderInfo info;
    info.id = id;
    info.location = location;
    info.type = type;
    info.period_epochs = 1;
    ASSERT_TRUE(registry_.AddReader(info).ok());
  }

  ReaderBatch Batch(ReaderId reader, std::vector<ObjectId> tags) {
    ReaderBatch batch;
    batch.reader = reader;
    batch.tags = std::move(tags);
    return batch;
  }

  ReaderRegistry registry_;
  Graph graph_{8};
  std::unique_ptr<GraphUpdater> updater_;
  LocationId dock_, shelf_, belt_, exit_;
};

// ----------------------------------------------------------- Graph model --

TEST(GraphTest, NodesCarryEpcLayer) {
  Graph graph;
  Node& item = graph.GetOrCreateNode(Obj(PackagingLevel::kItem, 1));
  Node& pallet = graph.GetOrCreateNode(Obj(PackagingLevel::kPallet, 2));
  EXPECT_EQ(item.layer, 0);
  EXPECT_EQ(pallet.layer, 2);
  EXPECT_EQ(graph.NumNodes(), 2u);
}

TEST(GraphTest, ColoringIsPerEpoch) {
  Graph graph;
  graph.BeginEpoch(1);
  Node& node = graph.GetOrCreateNode(Obj(PackagingLevel::kItem, 1));
  graph.ColorNode(node, 4);
  EXPECT_TRUE(graph.IsColored(node));
  EXPECT_EQ(graph.ColorOf(node), 4);
  EXPECT_EQ(node.seen_at, 1);

  graph.BeginEpoch(2);
  EXPECT_FALSE(graph.IsColored(node));
  EXPECT_EQ(graph.ColorOf(node), kUnknownLocation);
  // Uncolored nodes remember (recent color, seen at).
  EXPECT_EQ(node.recent_color, 4);
  EXPECT_EQ(node.seen_at, 1);
}

TEST(GraphTest, ColoredIndexTracksLayerAndColor) {
  Graph graph;
  graph.BeginEpoch(1);
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId pallet = Obj(PackagingLevel::kPallet, 2);
  graph.ColorNode(graph.GetOrCreateNode(item), 7);
  graph.ColorNode(graph.GetOrCreateNode(pallet), 7);
  EXPECT_EQ(graph.ColoredAt(7, 0).size(), 1u);
  EXPECT_EQ(graph.ColoredAt(7, 2).size(), 1u);
  EXPECT_TRUE(graph.ColoredAt(7, 1).empty());
  EXPECT_TRUE(graph.ColoredAt(9, 0).empty());
  EXPECT_EQ(graph.ColoredSlots().size(), 2u);
  graph.BeginEpoch(2);
  EXPECT_TRUE(graph.ColoredAt(7, 0).empty());
  EXPECT_TRUE(graph.ColoredSlots().empty());
}

TEST(GraphTest, DoubleColorSameEpochIsIdempotent) {
  Graph graph;
  graph.BeginEpoch(1);
  Node& node = graph.GetOrCreateNode(Obj(PackagingLevel::kItem, 1));
  graph.ColorNode(node, 3);
  graph.ColorNode(node, 3);
  EXPECT_EQ(graph.ColoredSlots().size(), 1u);
  EXPECT_EQ(graph.ColoredAt(3, 0).size(), 1u);
}

TEST(GraphTest, AddEdgeDeduplicates) {
  Graph graph;
  graph.BeginEpoch(1);
  ObjectId parent = Obj(PackagingLevel::kCase, 1);
  ObjectId child = Obj(PackagingLevel::kItem, 2);
  EdgeId first = graph.AddEdge(parent, child);
  EdgeId second = graph.AddEdge(parent, child);
  EXPECT_EQ(first, second);
  EXPECT_EQ(graph.NumEdges(), 1u);
  EXPECT_EQ(graph.FindEdge(parent, child), first);
  EXPECT_EQ(graph.FindEdge(child, parent), kNoEdge);  // Directed.
}

TEST(GraphTest, EdgeAdjacency) {
  Graph graph;
  graph.BeginEpoch(1);
  ObjectId parent = Obj(PackagingLevel::kCase, 1);
  ObjectId child = Obj(PackagingLevel::kItem, 2);
  EdgeId edge = graph.AddEdge(parent, child);
  EXPECT_EQ(graph.FindNode(parent)->child_edges.size(), 1u);
  EXPECT_EQ(graph.FindNode(child)->parent_edges.size(), 1u);
  EXPECT_EQ(graph.OtherEnd(graph.edge(edge), parent), child);
  EXPECT_EQ(graph.OtherEnd(graph.edge(edge), child), parent);
}

TEST(GraphTest, RemoveEdgeFreesSlotForReuse) {
  Graph graph;
  graph.BeginEpoch(1);
  ObjectId a = Obj(PackagingLevel::kCase, 1);
  ObjectId b = Obj(PackagingLevel::kItem, 2);
  EdgeId edge = graph.AddEdge(a, b);
  graph.RemoveEdge(edge);
  EXPECT_EQ(graph.NumEdges(), 0u);
  EXPECT_TRUE(graph.FindNode(a)->child_edges.empty());
  EXPECT_TRUE(graph.FindNode(b)->parent_edges.empty());
  EdgeId reused = graph.AddEdge(a, b);
  EXPECT_EQ(reused, edge);  // Slot recycled.
  EXPECT_EQ(graph.EdgeCapacity(), 1u);
}

TEST(GraphTest, RemoveNodeDropsIncidentEdgesAndIndex) {
  Graph graph;
  graph.BeginEpoch(1);
  ObjectId pallet = Obj(PackagingLevel::kPallet, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  ObjectId item = Obj(PackagingLevel::kItem, 3);
  graph.AddEdge(pallet, case1);
  graph.AddEdge(case1, item);
  graph.ColorNode(*graph.FindNode(case1), 5);
  graph.RemoveNode(case1);
  EXPECT_EQ(graph.NumNodes(), 2u);
  EXPECT_EQ(graph.NumEdges(), 0u);
  EXPECT_TRUE(graph.ColoredAt(5, 1).empty());
  EXPECT_TRUE(graph.ColoredSlots().empty());
  EXPECT_TRUE(graph.FindNode(pallet)->child_edges.empty());
  EXPECT_TRUE(graph.FindNode(item)->parent_edges.empty());
}

TEST(GraphTest, NodeArenaRecyclesSlotsAfterRemove) {
  Graph graph;
  graph.BeginEpoch(1);
  ObjectId a = Obj(PackagingLevel::kItem, 1);
  ObjectId b = Obj(PackagingLevel::kItem, 2);
  NodeId slot_a = graph.GetOrCreateNode(a).self;
  graph.GetOrCreateNode(b);
  const std::size_t slots = graph.NodeSlots();
  graph.RemoveNode(a);
  EXPECT_FALSE(graph.NodeAlive(slot_a));
  EXPECT_EQ(graph.NodeAt(slot_a), nullptr);
  EXPECT_EQ(graph.FindNodeId(a), kNoNode);
  // A new object takes the freed slot instead of growing the arena.
  ObjectId c = Obj(PackagingLevel::kItem, 3);
  Node& reused = graph.GetOrCreateNode(c);
  EXPECT_EQ(reused.self, slot_a);
  EXPECT_EQ(graph.NodeSlots(), slots);
  EXPECT_EQ(graph.FindNodeId(c), slot_a);
  EXPECT_EQ(graph.NodeAt(slot_a)->id, c);
}

TEST(GraphTest, NodeReferencesStayValidAcrossArenaGrowth) {
  // The chunked arena must never move a live node: update code holds Node&
  // across calls that create further nodes.
  Graph graph;
  graph.BeginEpoch(1);
  Node& first = graph.GetOrCreateNode(Obj(PackagingLevel::kItem, 0));
  Node* first_address = &first;
  for (std::uint32_t i = 1; i < 5000; ++i) {
    graph.GetOrCreateNode(Obj(PackagingLevel::kItem, i));
  }
  EXPECT_EQ(graph.FindNode(Obj(PackagingLevel::kItem, 0)), first_address);
  EXPECT_EQ(first_address->self, graph.FindNodeId(Obj(PackagingLevel::kItem, 0)));
}

TEST(GraphTest, EdgeCapacityBoundedByPeakAliveEdges) {
  Graph graph;
  graph.BeginEpoch(1);
  ObjectId c1 = Obj(PackagingLevel::kCase, 1);
  // Churn: one alive edge at a time, many times over.
  for (std::uint32_t i = 0; i < 64; ++i) {
    EdgeId e = graph.AddEdge(c1, Obj(PackagingLevel::kItem, 10 + i));
    graph.RemoveEdge(e);
  }
  EXPECT_EQ(graph.NumEdges(), 0u);
  EXPECT_EQ(graph.EdgeCapacity(), 1u);  // Free list reused one slot.
}

TEST(GraphTest, DirtySetTracksColorAdjacencyAndLoss) {
  Graph graph;
  graph.BeginEpoch(1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 1);
  ObjectId item = Obj(PackagingLevel::kItem, 2);
  Node& case_node = graph.GetOrCreateNode(case1);
  graph.ColorNode(case_node, 3);
  EXPECT_EQ(graph.DirtyNodes().size(), 1u);
  EXPECT_EQ(graph.DirtyNodes()[0], case_node.self);
  graph.ClearDirty();
  EXPECT_TRUE(graph.DirtyNodes().empty());
  EXPECT_FALSE(case_node.dirty);

  // Adjacency changes dirty both endpoints.
  EdgeId e = graph.AddEdge(case1, item);
  EXPECT_EQ(graph.DirtyNodes().size(), 2u);
  graph.ClearDirty();
  graph.RemoveEdge(e);
  EXPECT_EQ(graph.DirtyNodes().size(), 2u);
  graph.ClearDirty();

  // Losing the color at the epoch boundary dirties the node again: its
  // estimate flips from observed to inferred.
  graph.BeginEpoch(2);
  ASSERT_FALSE(graph.DirtyNodes().empty());
  EXPECT_EQ(graph.DirtyNodes()[0], case_node.self);

  // Re-dirtying an already-dirty node does not duplicate the entry.
  graph.MarkDirty(case_node);
  graph.MarkDirty(case_node);
  EXPECT_EQ(graph.DirtyNodes().size(), 1u);
}

TEST(GraphTest, RemoveNodeDirtiesFormerNeighbors) {
  Graph graph;
  graph.BeginEpoch(1);
  ObjectId pallet = Obj(PackagingLevel::kPallet, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  ObjectId item = Obj(PackagingLevel::kItem, 3);
  graph.AddEdge(pallet, case1);
  graph.AddEdge(case1, item);
  graph.ClearDirty();
  graph.RemoveNode(case1);
  // Both ex-neighbors must be re-inferred: their adjacency changed. The
  // removed node's own slot may linger on the list; consumers skip dead
  // slots.
  std::vector<NodeId> alive_dirty;
  for (NodeId slot : graph.DirtyNodes()) {
    if (graph.NodeAlive(slot)) alive_dirty.push_back(slot);
  }
  ASSERT_EQ(alive_dirty.size(), 2u);
  std::sort(alive_dirty.begin(), alive_dirty.end());
  EXPECT_EQ(graph.NodeAt(alive_dirty[0])->id, pallet);
  EXPECT_EQ(graph.NodeAt(alive_dirty[1])->id, item);
}

TEST(GraphTest, MemoryUsageGrowsWithContent) {
  Graph graph;
  graph.BeginEpoch(1);
  std::size_t empty = graph.MemoryUsage();
  for (std::uint32_t i = 0; i < 100; ++i) {
    graph.GetOrCreateNode(Obj(PackagingLevel::kItem, i));
  }
  std::size_t with_nodes = graph.MemoryUsage();
  EXPECT_GT(with_nodes, empty);
  for (std::uint32_t i = 0; i < 99; ++i) {
    graph.AddEdge(Obj(PackagingLevel::kItem, i), Obj(PackagingLevel::kItem, i + 1));
  }
  EXPECT_GT(graph.MemoryUsage(), with_nodes);
}

// ------------------------------------------------- Update: steps 1 and 2 --

TEST_F(GraphUpdateTest, Step1CreatesAndColorsNodes) {
  updater_->BeginEpoch(1);
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  UpdateStats stats = updater_->ApplyReaderBatch(Batch(0, {item}));
  EXPECT_EQ(stats.nodes_created, 1u);
  EXPECT_EQ(stats.readings, 1u);
  const Node* node = graph_.FindNode(item);
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(graph_.IsColored(*node));
  EXPECT_EQ(node->recent_color, dock_);
}

TEST_F(GraphUpdateTest, Step2ConnectsAdjacentLayersSameColor) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  ObjectId case2 = Obj(PackagingLevel::kCase, 3);
  ObjectId pallet = Obj(PackagingLevel::kPallet, 4);
  updater_->BeginEpoch(1);
  UpdateStats stats =
      updater_->ApplyReaderBatch(Batch(0, {item, case1, case2, pallet}));
  // item <- case1, item <- case2, case1 <- pallet, case2 <- pallet.
  EXPECT_EQ(stats.edges_created, 4u);
  EXPECT_NE(graph_.FindEdge(case1, item), kNoEdge);
  EXPECT_NE(graph_.FindEdge(case2, item), kNoEdge);
  EXPECT_NE(graph_.FindEdge(pallet, case1), kNoEdge);
  EXPECT_NE(graph_.FindEdge(pallet, case2), kNoEdge);
  // No cross-layer pallet->item edge: the case layer was present.
  EXPECT_EQ(graph_.FindEdge(pallet, item), kNoEdge);
}

TEST_F(GraphUpdateTest, Step2CrossesLayersWhenMiddleEmpty) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId pallet = Obj(PackagingLevel::kPallet, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(0, {item, pallet}));
  // No case present: the edge may skip the case layer (Section III-A).
  EXPECT_NE(graph_.FindEdge(pallet, item), kNoEdge);
}

TEST_F(GraphUpdateTest, Step2OnlyForNewColors) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(0, {item, case1}));
  EXPECT_EQ(graph_.NumEdges(), 1u);
  graph_.RemoveEdge(graph_.FindEdge(case1, item));
  // Same color re-observed: no new color, no edge re-creation.
  updater_->BeginEpoch(2);
  UpdateStats stats = updater_->ApplyReaderBatch(Batch(0, {item, case1}));
  EXPECT_EQ(stats.edges_created, 0u);
  EXPECT_EQ(graph_.NumEdges(), 0u);
}

TEST_F(GraphUpdateTest, MovedNodeGetsNewColorAndEdges) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(1, {case1}));  // Case on the shelf.
  updater_->BeginEpoch(2);
  updater_->ApplyReaderBatch(Batch(1, {case1, item}));  // Item arrives.
  EXPECT_NE(graph_.FindEdge(case1, item), kNoEdge);
}

// ------------------------------------------------------- Update: step 3 ---

TEST_F(GraphUpdateTest, Step3DropsEdgeOnColorDivergence) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(0, {item, case1}));
  ASSERT_NE(graph_.FindEdge(case1, item), kNoEdge);
  // Next epoch the two objects appear in different locations.
  updater_->BeginEpoch(2);
  updater_->ApplyReaderBatch(Batch(0, {item}));
  UpdateStats stats = updater_->ApplyReaderBatch(Batch(1, {case1}));
  EXPECT_EQ(stats.edges_removed, 1u);
  EXPECT_EQ(graph_.FindEdge(case1, item), kNoEdge);
}

TEST_F(GraphUpdateTest, Step3KeepsEdgeWhenOtherEndUnobserved) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(0, {item, case1}));
  updater_->BeginEpoch(2);
  updater_->ApplyReaderBatch(Batch(0, {item}));  // Case missed.
  EXPECT_NE(graph_.FindEdge(case1, item), kNoEdge);
}

TEST_F(GraphUpdateTest, EdgeCreatedThisEpochSurvivesStep3) {
  // Fig. 4 line 15 guards removal with "created in a previous epoch".
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(0, {item, case1}));
  EXPECT_NE(graph_.FindEdge(case1, item), kNoEdge);
  EXPECT_EQ(graph_.NumEdges(), 1u);
}

// --------------------------------------- Update: belt confirmation (3&4) --

TEST_F(GraphUpdateTest, BeltConfirmsContainment) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  UpdateStats stats = updater_->ApplyReaderBatch(Batch(2, {case1, item}));
  EXPECT_EQ(stats.confirmations, 1u);
  const Node* node = graph_.FindNode(item);
  EXPECT_EQ(node->confirmed.parent, case1);
  EXPECT_EQ(node->confirmed.confirmed_at, 1);
}

TEST_F(GraphUpdateTest, BeltDropsCompetingParentEdges) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  ObjectId case2 = Obj(PackagingLevel::kCase, 3);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(0, {item, case1, case2}));
  ASSERT_NE(graph_.FindEdge(case2, item), kNoEdge);
  // The belt scans case1 + item alone: case2's claim on the item dies.
  updater_->BeginEpoch(2);
  updater_->ApplyReaderBatch(Batch(2, {case1, item}));
  EXPECT_EQ(graph_.FindEdge(case2, item), kNoEdge);
  EXPECT_NE(graph_.FindEdge(case1, item), kNoEdge);
}

TEST_F(GraphUpdateTest, BeltDropsParentEdgesOfTopLevelContainer) {
  ObjectId case1 = Obj(PackagingLevel::kCase, 1);
  ObjectId pallet = Obj(PackagingLevel::kPallet, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(0, {case1, pallet}));
  ASSERT_NE(graph_.FindEdge(pallet, case1), kNoEdge);
  // The belt confirms case1 is top-level: its parent edge is dropped.
  updater_->BeginEpoch(2);
  updater_->ApplyReaderBatch(Batch(2, {case1}));
  EXPECT_EQ(graph_.FindEdge(pallet, case1), kNoEdge);
}

TEST_F(GraphUpdateTest, NoConfirmationWithTwoTopLevelObjects) {
  ObjectId case1 = Obj(PackagingLevel::kCase, 1);
  ObjectId case2 = Obj(PackagingLevel::kCase, 2);
  ObjectId item = Obj(PackagingLevel::kItem, 3);
  updater_->BeginEpoch(1);
  UpdateStats stats =
      updater_->ApplyReaderBatch(Batch(2, {case1, case2, item}));
  EXPECT_EQ(stats.confirmations, 0u);
  EXPECT_EQ(graph_.FindNode(item)->confirmed.parent, kNoObject);
}

TEST_F(GraphUpdateTest, NoConfirmationForItemsOnly) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  updater_->BeginEpoch(1);
  UpdateStats stats = updater_->ApplyReaderBatch(Batch(2, {item}));
  EXPECT_EQ(stats.confirmations, 0u);
}

TEST_F(GraphUpdateTest, PalletScanConfirmsCasesButNotItems) {
  ObjectId pallet = Obj(PackagingLevel::kPallet, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  ObjectId item = Obj(PackagingLevel::kItem, 3);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(2, {pallet, case1, item}));
  EXPECT_EQ(graph_.FindNode(case1)->confirmed.parent, pallet);
  // The item's direct container is unknown from a pallet-level scan.
  EXPECT_EQ(graph_.FindNode(item)->confirmed.parent, kNoObject);
}

// ------------------------------------------------------- Update: step 4 ---

TEST_F(GraphUpdateTest, Step4RecordsColocationHistory) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(0, {item, case1}));
  EdgeId edge = graph_.FindEdge(case1, item);
  ASSERT_NE(edge, kNoEdge);
  EXPECT_EQ(graph_.edge(edge).recent_colocations.size(), 1);
  EXPECT_TRUE(graph_.edge(edge).recent_colocations.Get(0));

  updater_->BeginEpoch(2);
  updater_->ApplyReaderBatch(Batch(0, {item}));  // Case missed.
  EXPECT_EQ(graph_.edge(edge).recent_colocations.size(), 2);
  EXPECT_FALSE(graph_.edge(edge).recent_colocations.Get(0));
  EXPECT_TRUE(graph_.edge(edge).recent_colocations.Get(1));
}

TEST_F(GraphUpdateTest, Step4UpdatesEdgeOncePerEpoch) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(0, {item, case1}));
  EdgeId edge = graph_.FindEdge(case1, item);
  // Both endpoints colored: the edge is visited from the case (higher
  // layer) only, so exactly one observation was pushed.
  EXPECT_EQ(graph_.edge(edge).recent_colocations.size(), 1);
  EXPECT_EQ(graph_.edge(edge).update_time, 1);
}

TEST_F(GraphUpdateTest, ConflictsCountedAgainstConfirmation) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(2, {case1, item}));  // Confirmed.
  // Two epochs where only the item is read: the confirmed edge records
  // one-sided observations as conflicts.
  updater_->BeginEpoch(2);
  updater_->ApplyReaderBatch(Batch(0, {item}));
  updater_->BeginEpoch(3);
  UpdateStats stats = updater_->ApplyReaderBatch(Batch(0, {item}));
  EXPECT_EQ(stats.conflicts_recorded, 1u);
  const ConfirmedParent& confirmed = graph_.FindNode(item)->confirmed;
  EXPECT_EQ(confirmed.conflicts, 2);
  EXPECT_EQ(confirmed.observations, 2);
}

TEST_F(GraphUpdateTest, ReconfirmationResetsConflicts) {
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(2, {case1, item}));
  updater_->BeginEpoch(2);
  updater_->ApplyReaderBatch(Batch(0, {item}));  // One conflict.
  updater_->BeginEpoch(3);
  updater_->ApplyReaderBatch(Batch(2, {case1, item}));  // Re-confirmed.
  const ConfirmedParent& confirmed = graph_.FindNode(item)->confirmed;
  EXPECT_EQ(confirmed.conflicts, 0);
  EXPECT_EQ(confirmed.confirmed_at, 3);
}

// --------------------------------------------------------- Epoch driving --

TEST_F(GraphUpdateTest, ApplyEpochProcessesAllReaders) {
  ObjectId a = Obj(PackagingLevel::kItem, 1);
  ObjectId b = Obj(PackagingLevel::kItem, 2);
  EpochBatch batch;
  batch.epoch = 1;
  batch.per_reader.push_back(Batch(0, {a}));
  batch.per_reader.push_back(Batch(1, {b}));
  UpdateStats stats = updater_->ApplyEpoch(batch);
  EXPECT_EQ(stats.readings, 2u);
  EXPECT_EQ(graph_.NumNodes(), 2u);
  EXPECT_EQ(graph_.ColorOf(*graph_.FindNode(a)), dock_);
  EXPECT_EQ(graph_.ColorOf(*graph_.FindNode(b)), shelf_);
}

TEST_F(GraphUpdateTest, ExitReadingsCollected) {
  ObjectId a = Obj(PackagingLevel::kItem, 1);
  updater_->BeginEpoch(1);
  updater_->ApplyReaderBatch(Batch(3, {a}));
  ASSERT_EQ(updater_->exited_this_epoch().size(), 1u);
  EXPECT_EQ(updater_->exited_this_epoch()[0], a);
  updater_->BeginEpoch(2);
  EXPECT_TRUE(updater_->exited_this_epoch().empty());
}

TEST_F(GraphUpdateTest, UnknownReaderBatchIgnored) {
  updater_->BeginEpoch(1);
  UpdateStats stats =
      updater_->ApplyReaderBatch(Batch(42, {Obj(PackagingLevel::kItem, 1)}));
  EXPECT_EQ(stats.readings, 0u);
  EXPECT_EQ(graph_.NumNodes(), 0u);
}

TEST_F(GraphUpdateTest, IncrementalConsistencyAcrossReaderOrder) {
  // The update is incremental: reader order within an epoch must not change
  // the final node colors or the surviving edge set.
  ObjectId item = Obj(PackagingLevel::kItem, 1);
  ObjectId case1 = Obj(PackagingLevel::kCase, 2);

  Graph g1(8), g2(8);
  GraphUpdater u1(&g1, &registry_), u2(&g2, &registry_);
  // Seed both graphs with a co-located pair.
  for (GraphUpdater* u : {&u1, &u2}) {
    u->BeginEpoch(1);
    u->ApplyReaderBatch(Batch(0, {item, case1}));
  }
  // Epoch 2: item at dock, case at shelf — in both reader orders.
  u1.BeginEpoch(2);
  u1.ApplyReaderBatch(Batch(0, {item}));
  u1.ApplyReaderBatch(Batch(1, {case1}));
  u2.BeginEpoch(2);
  u2.ApplyReaderBatch(Batch(1, {case1}));
  u2.ApplyReaderBatch(Batch(0, {item}));

  EXPECT_EQ(g1.FindEdge(case1, item), kNoEdge);
  EXPECT_EQ(g2.FindEdge(case1, item), kNoEdge);
  EXPECT_EQ(g1.ColorOf(*g1.FindNode(item)), g2.ColorOf(*g2.FindNode(item)));
  EXPECT_EQ(g1.ColorOf(*g1.FindNode(case1)),
            g2.ColorOf(*g2.FindNode(case1)));
}

}  // namespace
}  // namespace spire
